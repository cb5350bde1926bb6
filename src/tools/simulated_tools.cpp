#include "tools/simulated_tools.hpp"

#include "common/error.hpp"

namespace damocles::tools {

namespace {

using metadb::LinkKind;
using metadb::Oid;

/// FNV-1a: stable across platforms, so tool verdicts are reproducible
/// everywhere (std::hash is implementation-defined).
uint64_t StableHash(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Maps content to [0, 1) deterministically.
double ContentDraw(const std::string& content) {
  return static_cast<double>(StableHash(content) >> 11) * 0x1.0p-53;
}

std::string ReadLatestContent(engine::ProjectServer& server,
                              const std::string& block,
                              const std::string& view) {
  const int version = server.workspace().LatestVersion(block, view);
  if (version == 0) return std::string();
  const auto file =
      server.workspace().Read(Oid{block, view, version});
  return file.has_value() ? file->content : std::string();
}

Oid LatestOid(const engine::ProjectServer& server, const std::string& block,
              const std::string& view) {
  const auto id = server.database().FindLatest(block, view);
  if (!id.has_value()) {
    throw NotFoundError("no tracked version of " + block + "." + view);
  }
  return server.database().OidOf(*id);
}

}  // namespace

std::string VerdictModel::Judge(const std::string& content,
                                const char* failure) const {
  if (defect_rate <= 0.0) return "good";
  if (defect_rate >= 1.0 || ContentDraw(content) < defect_rate) {
    // Derive a small error count from the content so messages vary the
    // way real log extracts do ("4 errors").
    const int errors = 1 + static_cast<int>(StableHash(content) % 9);
    return std::string(failure) + ": " + std::to_string(errors) + " errors";
  }
  return "good";
}

// --- HdlEditor -----------------------------------------------------------------

Oid HdlEditor::Edit(const std::string& block, const std::string& content,
                    const std::string& user) {
  return server_.CheckIn(block, views::kHdlModel, content, user);
}

// --- HdlSimulator ---------------------------------------------------------------

std::string HdlSimulator::Simulate(const std::string& block,
                                   const std::string& user) {
  if (!Gate(block, views::kHdlModel, {})) return std::string();
  const std::string content =
      ReadLatestContent(server_, block, views::kHdlModel);
  const std::string verdict = model_.Judge(content, "sim failed");
  PostWire("hdl_sim", events::Direction::kUp,
           LatestOid(server_, block, views::kHdlModel), verdict, user);
  return verdict;
}

// --- SynthesisTool ---------------------------------------------------------------

std::optional<Oid> SynthesisTool::Synthesize(
    const std::string& block, const std::vector<std::string>& sub_blocks,
    const std::string& user) {
  // The §3.3 gate: the input HDL model must have passed simulation.
  if (!Gate(block, views::kHdlModel,
            {InputRequirement{"sim_result", "good"}})) {
    return std::nullopt;
  }
  const Oid hdl = LatestOid(server_, block, views::kHdlModel);
  const std::string hdl_content =
      ReadLatestContent(server_, block, views::kHdlModel);

  const Oid top = server_.CheckIn(
      block, views::kSchematic, "synthesized from " + hdl_content, user);

  // Hierarchy: one schematic per sub-block plus a use link from the top.
  for (const std::string& sub : sub_blocks) {
    const Oid child = server_.CheckIn(
        sub, views::kSchematic, "synthesized component of " + block, user);
    server_.RegisterLink(LinkKind::kUse, top, child);
  }

  // Derivation provenance: schematic derives from the HDL model and
  // depends on the installed synthesis library (when present).
  server_.RegisterLink(LinkKind::kDerive, hdl, top);
  if (server_.database().FindLatest(block, views::kSynthLib).has_value()) {
    server_.RegisterLink(LinkKind::kDerive,
                         LatestOid(server_, block, views::kSynthLib), top);
  } else if (server_.database()
                 .FindLatest("project", views::kSynthLib)
                 .has_value()) {
    server_.RegisterLink(
        LinkKind::kDerive, LatestOid(server_, "project", views::kSynthLib),
        top);
  }
  return top;
}

// --- Netlister --------------------------------------------------------------------

std::optional<Oid> Netlister::Netlist(const std::string& block,
                                      const std::string& user) {
  if (!Gate(block, views::kSchematic, {})) return std::nullopt;
  const Oid schematic = LatestOid(server_, block, views::kSchematic);
  const std::string schematic_content =
      ReadLatestContent(server_, block, views::kSchematic);

  const Oid netlist = server_.CheckIn(
      block, views::kNetlist, "netlist of " + schematic_content, user);
  server_.RegisterLink(LinkKind::kDerive, schematic, netlist);
  return netlist;
}

int Netlister::RunFromScript(const engine::ExecRequest& request) {
  // `exec netlister "$oid"` passes the schematic OID in wire form.
  if (request.args.empty()) return 2;
  const Oid schematic = metadb::ParseOidWire(request.args[0]);
  const std::string user =
      request.user.empty() ? std::string("scheduler") : request.user;
  return Netlist(schematic.block, user).has_value() ? 0 : 1;
}

// --- NetlistSimulator -----------------------------------------------------------

std::string NetlistSimulator::Simulate(const std::string& block,
                                       const std::string& user) {
  // "prior to running a simulation, the wrapper makes sure that the
  // input netlist is up to date" (paper §3.3).
  if (!Gate(block, views::kNetlist, {InputRequirement{"uptodate", "true"}})) {
    return std::string();
  }
  const std::string content =
      ReadLatestContent(server_, block, views::kNetlist);
  const std::string verdict = model_.Judge(content, "nl sim failed");
  PostWire("nl_sim", events::Direction::kUp,
           LatestOid(server_, block, views::kNetlist), verdict, user);
  return verdict;
}

// --- LayoutEditor ----------------------------------------------------------------

std::optional<Oid> LayoutEditor::Draw(const std::string& block,
                                      const std::string& user) {
  if (!Gate(block, views::kSchematic, {InputRequirement{"uptodate", "true"}})) {
    return std::nullopt;
  }
  const Oid schematic = LatestOid(server_, block, views::kSchematic);
  const Oid layout = server_.CheckIn(block, views::kLayout,
                                     "layout of " + block, user);
  server_.RegisterLink(LinkKind::kDerive, schematic, layout);
  return layout;
}

// --- DrcTool ---------------------------------------------------------------------

std::string DrcTool::Check(const std::string& block, const std::string& user) {
  if (!Gate(block, views::kLayout, {})) return std::string();
  const std::string content = ReadLatestContent(server_, block, views::kLayout);
  const std::string verdict = model_.Judge(content, "drc violations");
  PostWire("drc", events::Direction::kUp,
           LatestOid(server_, block, views::kLayout), verdict, user);
  return verdict;
}

// --- LvsTool ---------------------------------------------------------------------

std::string LvsTool::Check(const std::string& block, const std::string& user) {
  if (!Gate(block, views::kLayout, {})) return std::string();
  const std::string content = ReadLatestContent(server_, block, views::kLayout);
  // LVS verdicts use the equivalence vocabulary of the EDTC blueprint.
  std::string verdict = model_.Judge(content, "mismatch");
  if (verdict == "good") verdict = "is_equiv";
  PostWire("lvs", events::Direction::kUp,
           LatestOid(server_, block, views::kLayout), verdict, user);
  return verdict;
}

// --- LibraryInstaller ------------------------------------------------------------

Oid LibraryInstaller::Install(const std::string& library_block,
                              const std::string& content,
                              const std::string& user) {
  return server_.CheckIn(library_block, views::kSynthLib, content, user);
}

}  // namespace damocles::tools
