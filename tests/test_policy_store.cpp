// Versioned policy lifecycle and shadow-wave impact analysis.
//
// Part one exercises the PolicyStore commit chain in isolation:
// propose/validate/promote/rollback transitions, every lifecycle
// violation, and the checkpoint serialization round trip.
//
// Part two is the shadow-wave differential suite the design demands:
// tracing a *proposed* (never promoted) version against a live server
// must leave the journal record multiset, the property state and the
// claim state byte-identical — and the impact report must match an
// oracle that actually promotes the version on an identically
// constructed server and posts the event for real. Both 1-shard and
// 4-shard servers run the differential (the threaded variant also runs
// under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "engine/project_server.hpp"
#include "events/event.hpp"
#include "events/journal.hpp"
#include "metadb/persistence.hpp"
#include "policy/policy_store.hpp"
#include "policy/shadow_wave.hpp"
#include "query/report.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"

namespace damocles {
namespace {

using engine::ProjectServer;
using engine::ServerOptions;
using metadb::Oid;
using policy::PolicyStore;
using policy::PolicyVersionStatus;

constexpr const char* kTinyA = R"(blueprint tiny
view default
  when ckin do checked = yes done
endview
endblueprint)";

constexpr const char* kTinyB = R"(blueprint tiny
view default
  when ckin do checked = yes done
  when edit do edited = yes done
endview
endblueprint)";

// Parses fine but fails static validation (self-link), so Validate
// deterministically records kRejected.
constexpr const char* kSelfLink = R"(blueprint bad
view default
endview
view a
  link_from a propagates ckin type derived
  when ckin do checked = yes done
endview
endblueprint)";

// ---------------------------------------------------------------------------
// PolicyStore lifecycle
// ---------------------------------------------------------------------------

TEST(PolicyStore, LifecycleHappyPath) {
  PolicyStore store;
  EXPECT_EQ(store.active_id(), 0u);
  EXPECT_EQ(store.ActiveBlueprintText(), "");

  const uint64_t a = store.Adopt(kTinyA, "admin", "install");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(store.active_id(), 1u);
  EXPECT_EQ(store.Get(a).status, PolicyVersionStatus::kPromoted);
  EXPECT_EQ(store.ActiveBlueprintText(), kTinyA);

  const uint64_t b = store.Propose(kTinyB, "alice", "add edit rule");
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(store.Get(b).status, PolicyVersionStatus::kProposed);
  EXPECT_EQ(store.Get(b).parent, a);
  EXPECT_EQ(store.Get(b).author, "alice");
  EXPECT_EQ(store.active_id(), a) << "a proposal must not change the binding";

  const blueprint::ValidationReport report = store.Validate(b);
  EXPECT_FALSE(report.HasErrors());
  EXPECT_EQ(store.Get(b).status, PolicyVersionStatus::kValidated);

  const policy::PolicyVersion active = store.Promote(b);
  EXPECT_EQ(active.id, b);
  EXPECT_EQ(store.active_id(), b);
  EXPECT_EQ(store.Get(a).status, PolicyVersionStatus::kSuperseded);
  EXPECT_EQ(store.PromotedChain(), (std::vector<uint64_t>{1, 2}));

  const policy::PolicyVersion back = store.Rollback();
  EXPECT_EQ(back.id, a);
  EXPECT_EQ(store.active_id(), a);
  EXPECT_EQ(store.Get(b).status, PolicyVersionStatus::kRolledBack);
  EXPECT_EQ(store.PromotedChain(), (std::vector<uint64_t>{1}));

  // Roll forward: a rolled-back version is eligible for re-promotion.
  store.Promote(b);
  EXPECT_EQ(store.active_id(), b);
  EXPECT_EQ(store.Get(a).status, PolicyVersionStatus::kSuperseded);
}

TEST(PolicyStore, LifecycleViolationsThrowAndLeaveStoreUnchanged) {
  PolicyStore store;
  store.Adopt(kTinyA, "admin", "install");
  const uint64_t b = store.Propose(kTinyB, "alice", "change");

  EXPECT_THROW(store.Promote(b), IntegrityError) << "promote before validate";
  EXPECT_THROW(store.Promote(999), NotFoundError);
  EXPECT_THROW(store.Validate(999), NotFoundError);
  EXPECT_THROW(store.Get(999), NotFoundError);
  EXPECT_THROW(store.Propose("blueprint broken\nview x", "x", "y"),
               ParseError);

  store.Validate(b);
  store.Promote(b);
  EXPECT_THROW(store.Promote(b), IntegrityError) << "already active";
  EXPECT_THROW(store.Validate(b), IntegrityError) << "moved past validation";

  store.Rollback();
  EXPECT_THROW(store.Rollback(), IntegrityError)
      << "the root install cannot be rolled back";

  // Validation records a rejection; a rejected version is terminal.
  const uint64_t bad = store.Propose(kSelfLink, "bob", "oops");
  EXPECT_TRUE(store.Validate(bad).HasErrors());
  EXPECT_EQ(store.Get(bad).status, PolicyVersionStatus::kRejected);
  EXPECT_THROW(store.Promote(bad), IntegrityError);

  // All of the throws above left the chain intact.
  EXPECT_EQ(store.active_id(), 1u);
  EXPECT_EQ(store.PromotedChain(), (std::vector<uint64_t>{1}));
  EXPECT_EQ(store.size(), 3u);
}

TEST(PolicyStore, SerializeRoundTrip) {
  PolicyStore store;
  store.Adopt(kTinyA, "admin", "install");
  // Quoting must survive embedded quotes and newlines.
  const uint64_t b =
      store.Propose(kTinyB, "alice smith", "line one\nline \"two\"");
  store.Validate(b);
  store.Promote(b);
  const uint64_t c = store.Propose(kTinyA, "carol", "pending");
  store.Validate(c);
  const uint64_t bad = store.Propose(kSelfLink, "bob", "rejected one");
  store.Validate(bad);
  store.Rollback();

  const std::string text = store.SerializeText();
  PolicyStore other;
  other.RestoreFromText(text);
  EXPECT_EQ(other.SerializeText(), text);
  EXPECT_EQ(other.active_id(), store.active_id());
  EXPECT_EQ(other.PromotedChain(), store.PromotedChain());
  EXPECT_EQ(other.size(), store.size());
  EXPECT_EQ(other.Get(b).message, "line one\nline \"two\"");
  EXPECT_EQ(other.Get(b).status, PolicyVersionStatus::kRolledBack);
  EXPECT_EQ(other.Get(bad).status, PolicyVersionStatus::kRejected);

  // next-id survives: a new proposal cannot reuse an id.
  EXPECT_EQ(other.Propose(kTinyB, "dave", "next"), store.size() + 1);
}

TEST(PolicyStore, RestoreRejectsMalformedInputAtomically) {
  PolicyStore store;
  store.Adopt(kTinyA, "admin", "install");
  const std::string good = store.SerializeText();

  PolicyStore target;
  target.RestoreFromText(good);
  for (const char* bad : {
           "",
           "nonsense v1\n",
           "policystore v2\nnext-id 1\nstack 0\nend\n",
           "policystore v1\nnext-id",
           "policystore v1\nnext-id 3\nstack 1 1\nversion 1 0 promoted",
       }) {
    EXPECT_THROW(target.RestoreFromText(bad), WireFormatError) << bad;
    EXPECT_EQ(target.SerializeText(), good)
        << "failed restore must leave the store untouched";
  }
}

// ---------------------------------------------------------------------------
// Shadow waves
// ---------------------------------------------------------------------------

/// CPU design hierarchy under whatever blueprint is installed:
/// HDL_model -> CPU.schematic -> {netlist, layout}, plus a use-link
/// from CPU.schematic to REG.schematic. One claim is held so the
/// differential also covers claim state.
void BuildHierarchy(ProjectServer& server) {
  const Oid hdl = server.CheckIn("CPU", "HDL_model", "entity cpu", "dana");
  const Oid cpu_sch = server.CheckIn("CPU", "schematic", "cpu sch", "dana");
  const Oid reg_sch = server.CheckIn("REG", "schematic", "reg sch", "dana");
  const Oid netlist = server.CheckIn("CPU", "netlist", "cpu nl", "dana");
  const Oid layout = server.CheckIn("CPU", "layout", "cpu gds", "dana");
  server.RegisterLink(metadb::LinkKind::kDerive, hdl, cpu_sch);
  server.RegisterLink(metadb::LinkKind::kDerive, cpu_sch, netlist);
  server.RegisterLink(metadb::LinkKind::kDerive, cpu_sch, layout);
  server.RegisterLink(metadb::LinkKind::kUse, cpu_sch, reg_sch);
  server.CheckOut("CPU", "layout", "dana");  // Live claim.
  server.Drain();
}

std::vector<std::string> CaptureJournal(ProjectServer& server) {
  std::vector<std::string> lines = server.sharded_engine()->JournalLines();
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::set<std::string> PathTargets(const policy::ShadowWaveReport& report) {
  std::set<std::string> out;
  for (const policy::ShadowWavePath& path : report.paths) {
    out.insert(metadb::FormatOid(path.target));
  }
  return out;
}

/// The differential: shadow-trace a proposed (never promoted) version
/// against a live server, prove zero side effects, then check the
/// impact set against an oracle that promotes for real.
void RunShadowWaveDifferential(uint32_t shards) {
  ServerOptions options;
  options.num_shards = shards;
  auto server = std::make_unique<ProjectServer>("edtc", options);
  server->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  BuildHierarchy(*server);

  const uint64_t proposed_id = server->PolicyPropose(
      workload::EdtcBlueprintText(), "admin", "tighten for tapeout");
  server->PolicyValidate(proposed_id);

  const std::vector<std::string> journal0 = CaptureJournal(*server);
  const std::string db0 = metadb::SaveDatabaseString(server->database());
  const std::string ws0 = metadb::SaveWorkspaceText(server->workspace());
  const std::string policy0 = server->policy_store().SerializeText();
  const uint64_t generation0 = server->engine().compiled_rules().generation();
  const uint64_t bound0 = server->engine().policy_version();

  const blueprint::Blueprint proposed = blueprint::ParseBlueprint(
      server->policy_store().Get(proposed_id).blueprint_text);
  const Oid start{"CPU", "HDL_model", 1};
  const policy::ShadowWaveReport report =
      policy::TraceShadowWave(server->database(), proposed, proposed_id,
                              "outofdate", events::Direction::kDown, start);
  const std::string formatted = query::FormatShadowWaveReport(report);
  EXPECT_NE(formatted.find("shadow-wave version"), std::string::npos);

  // Side-effect freedom: every observable byte-identical.
  EXPECT_EQ(CaptureJournal(*server), journal0) << shards << " shards";
  EXPECT_EQ(metadb::SaveDatabaseString(server->database()), db0)
      << shards << " shards";
  EXPECT_EQ(metadb::SaveWorkspaceText(server->workspace()), ws0)
      << shards << " shards";
  EXPECT_EQ(server->policy_store().SerializeText(), policy0)
      << shards << " shards";
  EXPECT_EQ(server->engine().compiled_rules().generation(), generation0);
  EXPECT_EQ(server->engine().policy_version(), bound0);

  // Shape: the strict templates reach the schematic directly, then
  // netlist + layout + the used REG schematic transitively — none of
  // which propagate under the installed loosened blueprint.
  EXPECT_EQ(report.version_id, proposed_id);
  EXPECT_EQ(report.direct_count, 1u);
  EXPECT_EQ(report.transitive_count, 3u);
  EXPECT_FALSE(report.truncated);
  const std::set<std::string> impacted = PathTargets(report);
  const std::set<std::string> expected = {
      "<CPU.schematic.1>", "<CPU.netlist.1>", "<CPU.layout.1>",
      "<REG.schematic.1>"};
  EXPECT_EQ(impacted, expected);
  for (const policy::ShadowWavePath& path : report.paths) {
    EXPECT_GE(path.matched_rules, 1u)
        << metadb::FormatOid(path.target)
        << " must at least match the default-view outofdate rule";
    EXPECT_EQ(path.chain.front(), start);
    EXPECT_EQ(path.chain.back(), path.target);
    EXPECT_EQ(path.chain.size(), path.depth + 1);
    EXPECT_EQ(path.direct, path.depth == 1);
  }

  // Oracle: identical construction, then promote for real and post the
  // event. The impacted set is exactly the objects whose uptodate flag
  // flipped (minus the start, which receives the event itself).
  auto oracle = std::make_unique<ProjectServer>("edtc", options);
  oracle->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  BuildHierarchy(*oracle);
  ASSERT_EQ(metadb::SaveDatabaseString(oracle->database()), db0)
      << "oracle construction must clone the live database";
  const uint64_t oracle_id = oracle->PolicyPropose(
      workload::EdtcBlueprintText(), "admin", "tighten for tapeout");
  oracle->PolicyValidate(oracle_id);
  oracle->PolicyPromote(oracle_id);

  events::EventMessage event;
  event.name = "outofdate";
  event.direction = events::Direction::kDown;
  event.target = start;
  event.user = "oracle";
  event.timestamp = oracle->clock().NowSeconds();
  oracle->Submit(std::move(event));
  oracle->Drain();

  std::set<std::string> oracle_impacted;
  for (const Oid& oid :
       {Oid{"CPU", "HDL_model", 1}, Oid{"CPU", "schematic", 1},
        Oid{"REG", "schematic", 1}, Oid{"CPU", "netlist", 1},
        Oid{"CPU", "layout", 1}}) {
    if (oid == start) continue;
    if (testutil::Prop(*oracle, oid, "uptodate") == "false") {
      oracle_impacted.insert(metadb::FormatOid(oid));
    }
  }
  EXPECT_EQ(impacted, oracle_impacted)
      << "shadow wave must predict exactly what promotion delivers ("
      << shards << " shards)";
}

TEST(ShadowWave, DifferentialSideEffectFree1Shard) {
  RunShadowWaveDifferential(1);
}

TEST(ShadowWave, DifferentialSideEffectFree4Shard) {
  RunShadowWaveDifferential(4);
}

TEST(ShadowWave, DepthCapTruncatesAndReportsIt) {
  auto server = std::make_unique<ProjectServer>("edtc");
  server->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  BuildHierarchy(*server);
  const uint64_t id = server->PolicyPropose(workload::EdtcBlueprintText(),
                                            "admin", "tighten");
  server->PolicyValidate(id);
  const blueprint::Blueprint proposed =
      blueprint::ParseBlueprint(server->policy_store().Get(id).blueprint_text);

  policy::ShadowWaveOptions capped;
  capped.depth_cap = 1;
  const policy::ShadowWaveReport report = policy::TraceShadowWave(
      server->database(), proposed, id, "outofdate",
      events::Direction::kDown, Oid{"CPU", "HDL_model", 1}, capped);
  EXPECT_EQ(report.direct_count, 1u);
  EXPECT_EQ(report.transitive_count, 0u);
  EXPECT_TRUE(report.truncated)
      << "the schematic frontier still had receivers past the cap";
  EXPECT_EQ(PathTargets(report),
            (std::set<std::string>{"<CPU.schematic.1>"}));
}

TEST(ShadowWave, UnknownStartThrows) {
  auto server = testutil::MakeEdtcServer();
  const blueprint::Blueprint proposed =
      blueprint::ParseBlueprint(workload::EdtcBlueprintText());
  EXPECT_THROW(
      policy::TraceShadowWave(server->database(), proposed, 1, "outofdate",
                              events::Direction::kDown,
                              Oid{"NOPE", "HDL_model", 7}),
      NotFoundError);
}

}  // namespace
}  // namespace damocles
