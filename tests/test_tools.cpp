#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "events/wal.hpp"
#include "test_util.hpp"
#include "tools/scheduler.hpp"
#include "tools/script_registry.hpp"
#include "tools/simulated_tools.hpp"
#include "workload/edtc.hpp"

namespace damocles::tools {
namespace {

using metadb::Oid;
using testutil::LatestProp;
using testutil::MakeEdtcServer;

engine::ExecRequest MakeRequest(const std::string& script) {
  engine::ExecRequest request;
  request.script = script;
  request.target = Oid{"CPU", "schematic", 1};
  request.event = "ckin";
  request.user = "alice";
  return request;
}

TEST(ScriptRegistry, ExecutesRegisteredScripts) {
  ScriptRegistry registry;
  int calls = 0;
  registry.Register("tool.sh", [&](const engine::ExecRequest&) {
    ++calls;
    return 0;
  });
  EXPECT_TRUE(registry.Has("tool.sh"));
  EXPECT_EQ(registry.Execute(MakeRequest("tool.sh")), 0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(registry.CallCount("tool.sh"), 1u);
}

TEST(ScriptRegistry, UnknownScriptReturns127OrThrows) {
  ScriptRegistry lenient(/*strict=*/false);
  EXPECT_EQ(lenient.Execute(MakeRequest("ghost")), 127);
  EXPECT_EQ(lenient.History().size(), 1u);

  ScriptRegistry strict(/*strict=*/true);
  EXPECT_THROW(strict.Execute(MakeRequest("ghost")), NotFoundError);
}

TEST(ScriptRegistry, HistoryRecordsEverything) {
  ScriptRegistry registry;
  registry.Register("a", [](const engine::ExecRequest&) { return 0; });
  registry.Execute(MakeRequest("a"));
  registry.Execute(MakeRequest("missing"));
  EXPECT_EQ(registry.History().size(), 2u);
  registry.ClearHistory();
  EXPECT_TRUE(registry.History().empty());
}

TEST(Permission, DeniedWhenNoVersionExists) {
  auto server = MakeEdtcServer();
  const PermissionDecision decision =
      RequestPermission(*server, "CPU", "netlist", {{"uptodate", "true"}});
  EXPECT_FALSE(decision.granted);
  EXPECT_NE(decision.reason.find("no version"), std::string::npos);
}

TEST(Permission, ChecksLatestVersionProperties) {
  auto server = MakeEdtcServer();
  server->CheckIn("CPU", "netlist", "n1", "bob");
  EXPECT_TRUE(RequestPermission(*server, "CPU", "netlist",
                                {{"uptodate", "true"}})
                  .granted);

  // Invalidate: permission must now be denied, with the reason naming
  // the property (paper §3.3's netlist-up-to-date gate).
  server->Submit([] {
    events::EventMessage event;
    event.name = "outofdate";
    event.direction = events::Direction::kDown;
    event.target = Oid{"CPU", "netlist", 1};
    return event;
  }());
  const PermissionDecision denied = RequestPermission(
      *server, "CPU", "netlist", {{"uptodate", "true"}});
  EXPECT_FALSE(denied.granted);
  EXPECT_NE(denied.reason.find("uptodate"), std::string::npos);
}

TEST(VerdictModel, ExtremesAndDeterminism) {
  const VerdictModel always_pass{0.0};
  EXPECT_EQ(always_pass.Judge("anything", "fail"), "good");
  const VerdictModel always_fail{1.0};
  const std::string verdict = always_fail.Judge("anything", "fail");
  EXPECT_NE(verdict.find("fail"), std::string::npos);
  EXPECT_NE(verdict.find("errors"), std::string::npos);
  // Same content, same verdict.
  const VerdictModel mixed{0.5};
  EXPECT_EQ(mixed.Judge("content-x", "f"), mixed.Judge("content-x", "f"));
}

TEST(SimulatedTools, HdlFlowEndToEnd) {
  auto server = MakeEdtcServer();
  HdlEditor editor(*server);
  HdlSimulator simulator(*server, VerdictModel{0.0});

  editor.Edit("CPU", "model", "alice");
  const std::string verdict = simulator.Simulate("CPU", "alice");
  EXPECT_EQ(verdict, "good");
  EXPECT_EQ(LatestProp(*server, "CPU", "HDL_model", "sim_result"), "good");
  EXPECT_EQ(simulator.runs(), 1u);
}

TEST(SimulatedTools, SimulatorDeniedWithoutModel) {
  auto server = MakeEdtcServer();
  HdlSimulator simulator(*server, VerdictModel{0.0});
  EXPECT_EQ(simulator.Simulate("CPU", "alice"), "");
  EXPECT_EQ(simulator.denials(), 1u);
}

TEST(SimulatedTools, SynthesisGateRequiresGoodSim) {
  auto server = MakeEdtcServer();
  HdlEditor editor(*server);
  SynthesisTool synthesis(*server);

  editor.Edit("CPU", "model", "alice");
  // sim_result defaults to 'bad': synthesis must refuse (paper §3.3).
  EXPECT_FALSE(synthesis.Synthesize("CPU", {"REG"}, "bob").has_value());
  EXPECT_EQ(synthesis.denials(), 1u);

  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  const auto top = synthesis.Synthesize("CPU", {"REG"}, "bob");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(*top, (Oid{"CPU", "schematic", 1}));
  // Hierarchy + derivation links registered.
  const auto& db = server->database();
  const auto top_id = db.FindObject(*top);
  EXPECT_EQ(db.OutLinks(*top_id).size(), 1u);  // use link to REG.
  EXPECT_EQ(db.InLinks(*top_id).size(), 1u);   // derive from HDL model.
}

TEST(SimulatedTools, NetlistSimulatorRequiresFreshNetlist) {
  auto server = MakeEdtcServer();
  HdlEditor editor(*server);
  SynthesisTool synthesis(*server);
  Netlister netlister(*server);
  NetlistSimulator nl_sim(*server, VerdictModel{0.0});

  editor.Edit("CPU", "model", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {}, "bob").has_value());
  ASSERT_TRUE(netlister.Netlist("CPU", "bob").has_value());

  EXPECT_EQ(nl_sim.Simulate("CPU", "bob"), "good");
  EXPECT_EQ(LatestProp(*server, "CPU", "netlist", "sim_result"), "good");
  // nl_sim propagated up the derive link to the schematic.
  EXPECT_EQ(LatestProp(*server, "CPU", "schematic", "nl_sim_res"), "good");

  // Invalidate the netlist via a new HDL version: gate closes.
  editor.Edit("CPU", "model rev2", "alice");
  EXPECT_EQ(nl_sim.Simulate("CPU", "bob"), "");
  EXPECT_EQ(nl_sim.denials(), 1u);
}

TEST(SimulatedTools, LayoutDrcLvsFlow) {
  auto server = MakeEdtcServer();
  HdlEditor editor(*server);
  SynthesisTool synthesis(*server);
  LayoutEditor layout(*server);
  DrcTool drc(*server, VerdictModel{0.0});
  LvsTool lvs(*server, VerdictModel{0.0});

  editor.Edit("CPU", "model", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {}, "bob").has_value());
  ASSERT_TRUE(layout.Draw("CPU", "carol").has_value());

  EXPECT_EQ(drc.Check("CPU", "carol"), "good");
  EXPECT_EQ(lvs.Check("CPU", "carol"), "is_equiv");
  EXPECT_EQ(LatestProp(*server, "CPU", "layout", "drc_result"), "good");
  EXPECT_EQ(LatestProp(*server, "CPU", "layout", "lvs_result"), "is_equiv");
  // layout state = drc good and lvs equiv and uptodate.
  EXPECT_EQ(LatestProp(*server, "CPU", "layout", "state"), "true");
}

TEST(Scheduler, ExecRuleDrivesAutomaticNetlisting) {
  auto server = MakeEdtcServer();
  ToolScheduler scheduler(*server);
  Netlister netlister(*server);
  scheduler.InstallStandardScripts(netlister);
  HdlEditor editor(*server);
  SynthesisTool synthesis(*server);

  editor.Edit("CPU", "model", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {}, "bob").has_value());

  // The schematic check-in fired `exec netlister "$oid"`.
  ASSERT_EQ(scheduler.automatic_runs(), 1u);
  EXPECT_EQ(scheduler.ledger()[0].script, "netlister");
  EXPECT_EQ(scheduler.ledger()[0].exit_status, 0);
  EXPECT_TRUE(
      server->database().FindObject(Oid{"CPU", "netlist", 1}).has_value());

  // Another schematic check-in triggers another netlist version.
  server->CheckIn("CPU", "schematic", "rev2", "bob");
  EXPECT_EQ(scheduler.automatic_runs(), 2u);
  EXPECT_TRUE(
      server->database().FindObject(Oid{"CPU", "netlist", 2}).has_value());
}

TEST(Scheduler, CustomScriptLedger) {
  auto server = MakeEdtcServer();
  ToolScheduler scheduler(*server);
  int calls = 0;
  scheduler.Register("lint", [&](const engine::ExecRequest&) {
    ++calls;
    return 3;
  });

  server->InitializeBlueprint(R"(
      blueprint lint_bp
      view HDL_model
        when ckin do exec lint "$oid" done
      endview
      endblueprint)");
  server->CheckIn("CPU", "HDL_model", "m", "alice");
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(scheduler.ledger().size(), 1u);
  EXPECT_EQ(scheduler.ledger()[0].exit_status, 3);
}

TEST(Scheduler, RefusesAMultiShardServer) {
  // Exec rules fire on whichever lane delivers them; only a one-shard
  // server runs every one of them through the installed executor.
  engine::ServerOptions options;
  options.num_shards = 4;
  auto server = MakeEdtcServer(options);
  EXPECT_THROW(ToolScheduler scheduler(*server), Error);

  options.deterministic_shards = true;
  auto deterministic = MakeEdtcServer(options);
  EXPECT_THROW(ToolScheduler scheduler(*deterministic), Error);
}

TEST(Wrapper, PostWireGoesThroughCodec) {
  auto server = MakeEdtcServer();
  server->CheckIn("CPU", "HDL_model", "m", "alice");

  class Probe : public WrapperProgram {
   public:
    explicit Probe(engine::ProjectServer& server)
        : WrapperProgram(server, "probe") {}
    void Fire() {
      PostWire("hdl_sim", events::Direction::kUp,
               Oid{"CPU", "HDL_model", 1}, "good", "alice");
    }
  };
  Probe probe(*server);
  probe.Fire();
  EXPECT_EQ(LatestProp(*server, "CPU", "HDL_model", "sim_result"), "good");
}

// --- wal_inspect --json ---------------------------------------------------

/// Scratch WAL directory, removed on destruction.
class ToolTempDir {
 public:
  explicit ToolTempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("damocles-tools-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ToolTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

void WriteSomeWal(const std::string& dir) {
  engine::ServerOptions options;
  options.wal_dir = dir;
  auto server = MakeEdtcServer(options);
  server->CheckIn("CPU", "HDL_model", "m1", "alice");
  server->CheckIn("CPU", "schematic", "s1", "alice");
  server->CheckIn("CPU", "HDL_model", "m2", "alice");
  server->Drain();
}

TEST(WalInspectJson, RoundTripsAgainstStreamData) {
  ToolTempDir dir("waljson");
  WriteSomeWal(dir.str());

  bool torn = true;
  const std::string json = events::FormatWalInspectionJson(dir.str(), &torn);
  EXPECT_FALSE(torn);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"torn\": false}"), std::string::npos);

  // Round trip: every stream, segment header and record count the scan
  // API reports appears verbatim in the JSON report.
  const std::vector<std::string> streams = events::ListWalStreams(dir.str());
  ASSERT_FALSE(streams.empty());
  for (const std::string& stream : streams) {
    const events::WalStreamData data = events::ReadWalStream(dir.str(), stream);
    EXPECT_NE(json.find("\"name\": \"" + stream + "\""), std::string::npos);
    EXPECT_NE(json.find("\"valid_end\": " + std::to_string(data.valid_end)),
              std::string::npos);
    EXPECT_NE(json.find("\"rows\": " + std::to_string(data.rows.size())),
              std::string::npos);
    for (const events::WalSegmentInfo& info : data.segments) {
      const std::string file =
          std::filesystem::path(info.path).filename().string();
      EXPECT_NE(json.find("\"file\": \"" + file + "\""), std::string::npos);
      EXPECT_NE(json.find("\"records\": " + std::to_string(info.records)),
                std::string::npos);
      EXPECT_NE(
          json.find("\"base_offset\": " + std::to_string(info.base_offset)),
          std::string::npos);
      EXPECT_FALSE(info.torn);
    }
  }
  EXPECT_EQ(json.find("\"torn_offset\""), std::string::npos)
      << "a clean directory must not report a torn tail";
}

TEST(WalInspectJson, TornTailOffsetMatchesTextReport) {
  ToolTempDir dir("waltorn");
  WriteSomeWal(dir.str());

  // Tear a segment mid-record: drop the last 3 bytes of one that holds
  // records (a record is always longer than 3 bytes, so the cut cannot
  // land on a boundary).
  std::string victim_stream;
  std::string victim_path;
  for (const std::string& stream : events::ListWalStreams(dir.str())) {
    const events::WalStreamData data = events::ReadWalStream(dir.str(), stream);
    for (const events::WalSegmentInfo& info : data.segments) {
      if (info.records > 0 && info.file_bytes > 3) {
        victim_stream = stream;
        victim_path = info.path;
      }
    }
  }
  ASSERT_FALSE(victim_path.empty());
  std::filesystem::resize_file(
      victim_path, std::filesystem::file_size(victim_path) - 3);

  bool torn_json = false;
  const std::string json =
      events::FormatWalInspectionJson(dir.str(), &torn_json);
  EXPECT_TRUE(torn_json);
  EXPECT_NE(json.find("\"torn\": true"), std::string::npos);

  // The scanner, the JSON report and the text report must agree on the
  // byte where the intact prefix ends.
  const events::WalStreamData data =
      events::ReadWalStream(dir.str(), victim_stream);
  uint64_t torn_offset = 0;
  bool found = false;
  for (const events::WalSegmentInfo& info : data.segments) {
    if (info.path == victim_path) {
      EXPECT_TRUE(info.torn);
      torn_offset = info.valid_bytes;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_NE(json.find("\"torn_offset\": " + std::to_string(torn_offset)),
            std::string::npos);

  bool torn_text = false;
  const std::string text = events::FormatWalInspection(dir.str(), &torn_text);
  EXPECT_TRUE(torn_text);
  EXPECT_NE(
      text.find("torn tail at byte " + std::to_string(torn_offset)),
      std::string::npos);
}

}  // namespace
}  // namespace damocles::tools
