// Integration: the paper's §3.4 EDTC scenario, end to end.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "query/query.hpp"
#include "query/report.hpp"
#include "test_util.hpp"
#include "tools/scheduler.hpp"
#include "workload/edtc.hpp"

namespace damocles {
namespace {

using metadb::Oid;
using testutil::LatestProp;
using testutil::MakeEdtcServer;
using testutil::Prop;

class EdtcScenarioTest : public ::testing::Test {
 protected:
  EdtcScenarioTest()
      : server_(MakeEdtcServer()),
        scheduler_(*server_),
        netlister_(*server_) {
    scheduler_.InstallStandardScripts(netlister_);
  }

  std::unique_ptr<engine::ProjectServer> server_;
  tools::ToolScheduler scheduler_;
  tools::Netlister netlister_;
};

TEST_F(EdtcScenarioTest, FullScenarioMatchesThePaperNarrative) {
  const auto steps = workload::RunEdtcScenario(*server_, scheduler_);
  ASSERT_EQ(steps.size(), 5u);

  const metadb::MetaDatabase& db = server_->database();

  // All the paper's OIDs exist.
  EXPECT_TRUE(db.FindObject(Oid{"CPU", "HDL_model", 1}).has_value());
  EXPECT_TRUE(db.FindObject(Oid{"CPU", "HDL_model", 2}).has_value());
  EXPECT_TRUE(db.FindObject(Oid{"CPU", "HDL_model", 3}).has_value());
  EXPECT_TRUE(db.FindObject(Oid{"CPU", "schematic", 1}).has_value());
  EXPECT_TRUE(db.FindObject(Oid{"REG", "schematic", 1}).has_value());
  EXPECT_TRUE(db.FindObject(Oid{"CPU", "netlist", 1}).has_value());

  // Step 2: v1 failed simulation.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "HDL_model", 1}, "sim_result"),
            "4 errors");
  // Step 3: v2 passed.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "HDL_model", 2}, "sim_result"), "good");
  // sim_result does not carry across versions (no copy/move in the
  // blueprint): v3 re-defaults to bad.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "HDL_model", 3}, "sim_result"), "bad");

  // Step 5: checking in HDL v3 posted outofdate down; the schematic, its
  // hierarchy component REG and the netlist are all out of date.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "schematic", 1}, "uptodate"), "false");
  EXPECT_EQ(Prop(*server_, Oid{"REG", "schematic", 1}, "uptodate"), "false");
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "netlist", 1}, "uptodate"), "false");
  // The HDL model itself is current.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "HDL_model", 3}, "uptodate"), "true");
}

TEST_F(EdtcScenarioTest, AutomaticallyNetlistedDataIsBornUpToDate) {
  // Regression: wrapper scripts launched by a ckin rule run only after
  // the ckin's outofdate wave has propagated. The netlist the netlister
  // produces derives from the *new* schematic version and must not be
  // invalidated by the very event that created it.
  tools::HdlEditor editor(*server_);
  tools::SynthesisTool synthesis(*server_);
  editor.Edit("CPU", "model", "alice");
  server_->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good",
                          "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {"REG"}, "bob").has_value());

  EXPECT_EQ(LatestProp(*server_, "CPU", "netlist", "uptodate"), "true");
  EXPECT_EQ(LatestProp(*server_, "REG", "netlist", "uptodate"), "true");
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "true");
}

TEST_F(EdtcScenarioTest, RetighteningRetemplatesExistingLinks) {
  // Build data under the loosened blueprint, then re-initialize with
  // the strict rules: the links created in the loose phase must start
  // propagating outofdate again (ServerOptions.retemplate_on_init).
  server_->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  tools::HdlEditor editor(*server_);
  tools::SynthesisTool synthesis(*server_);
  editor.Edit("CPU", "model", "alice");
  server_->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good",
                          "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {"REG"}, "bob").has_value());

  // Loose phase: an HDL edit does not invalidate the schematic.
  editor.Edit("CPU", "model rev2", "alice");
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "true");

  // Tighten. The same activity now fans out.
  server_->InitializeBlueprint(workload::EdtcBlueprintText());
  editor.Edit("CPU", "model rev3", "alice");
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "false");
  EXPECT_EQ(LatestProp(*server_, "REG", "schematic", "uptodate"), "false");
}

TEST_F(EdtcScenarioTest, NetlisterRanAutomaticallyOnSchematicCheckins) {
  workload::RunEdtcScenario(*server_, scheduler_);
  // Two schematic check-ins (CPU and REG) -> two automatic netlister
  // invocations via the exec rule.
  EXPECT_EQ(scheduler_.automatic_runs(), 2u);
  EXPECT_TRUE(server_->database()
                  .FindObject(Oid{"REG", "netlist", 1})
                  .has_value());
}

TEST_F(EdtcScenarioTest, SchematicStateAssignmentTracksResults) {
  workload::RunEdtcScenario(*server_, scheduler_);
  // state = (nl_sim_res == good) and (lvs_res == is_equiv) and uptodate.
  EXPECT_EQ(Prop(*server_, Oid{"CPU", "schematic", 1}, "state"), "false");

  // Re-check-in the schematic (validates it), post good results.
  server_->CheckIn("CPU", "schematic", "rev2", "bob");
  server_->SubmitWireLine("postEvent nl_sim up CPU,netlist,2 good", "bob");
  server_->Submit([&] {
    events::EventMessage event;
    event.name = "lvs";
    event.direction = events::Direction::kUp;
    event.target = Oid{"CPU", "schematic", 2};
    event.arg = "is_equiv";
    event.user = "bob";
    return event;
  }());
  // nl_sim on the new netlist propagates up to the schematic; lvs was
  // delivered directly... but the schematic has no 'when lvs' rule, so
  // only nl_sim_res and uptodate feed the state.
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "nl_sim_res"), "good");
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "true");
}

TEST_F(EdtcScenarioTest, LibraryInstallInvalidatesDependents) {
  // §3.4: "the installation of a new version of the library will
  // automatically invalidate data which depends on it".
  tools::LibraryInstaller installer(*server_);
  tools::HdlEditor editor(*server_);
  tools::SynthesisTool synthesis(*server_);

  installer.Install("CPU", "stdcell lib v1", "cad_admin");
  editor.Edit("CPU", "model", "alice");
  server_->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good",
                          "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {"REG"}, "bob").has_value());
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "true");

  // New library version: ckin posts outofdate down through the moved
  // depend_on link.
  installer.Install("CPU", "stdcell lib v2", "cad_admin");
  EXPECT_EQ(LatestProp(*server_, "CPU", "schematic", "uptodate"), "false");
  EXPECT_EQ(LatestProp(*server_, "REG", "schematic", "uptodate"), "false");
}

TEST_F(EdtcScenarioTest, QueriesAnswerWhatBlocksThePlannedState) {
  workload::RunEdtcScenario(*server_, scheduler_);
  query::ProjectQuery q(server_->database());

  const auto stale = q.OutOfDate();
  EXPECT_EQ(stale.size(), 4u);  // CPU+REG schematic, CPU+REG netlist.

  const auto blockers = q.DistanceToPlannedState(
      {{"uptodate", "true"}, {"sim_result", "good"}},
      {"schematic", "netlist", "HDL_model"});
  // Latest versions: HDL_model.3 (sim_result bad), schematics and
  // netlists (uptodate false, netlist sim_result bad).
  EXPECT_GE(blockers.size(), 5u);

  const auto report = query::BuildProjectReport(server_->database());
  EXPECT_EQ(report.out_of_date, 4u);
  EXPECT_GT(report.total, 4u);
}

TEST_F(EdtcScenarioTest, ScenarioIsDeterministic) {
  const auto steps1 = workload::RunEdtcScenario(*server_, scheduler_);

  auto server2 = MakeEdtcServer();
  tools::ToolScheduler scheduler2(*server2);
  tools::Netlister netlister2(*server2);
  scheduler2.InstallStandardScripts(netlister2);
  const auto steps2 = workload::RunEdtcScenario(*server2, scheduler2);

  ASSERT_EQ(steps1.size(), steps2.size());
  for (size_t i = 0; i < steps1.size(); ++i) {
    EXPECT_EQ(steps1[i].description, steps2[i].description);
    EXPECT_EQ(steps1[i].detail, steps2[i].detail);
  }
  EXPECT_EQ(server_->engine().journal().Dump(),
            server2->engine().journal().Dump());
}

TEST_F(EdtcScenarioTest, JournalMatchesGolden) {
  // The scenario's scripts check data in and drain from inside a wave,
  // so the nested drain's order is part of what this pins. The golden
  // dump is the journal of the plain single-queue engine.
  workload::RunEdtcScenario(*server_, scheduler_);
  const std::string path = std::string(DAMOCLES_SOURCE_DIR) +
                           "/tests/data/edtc_scenario_journal.txt";
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << path;
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(server_->engine().journal().Dump(), expected.str());
}

TEST(EdtcLoosened, LoosenedBlueprintLimitsPropagation) {
  auto server = std::make_unique<engine::ProjectServer>("loose");
  server->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  tools::HdlEditor editor(*server);
  tools::SynthesisTool synthesis(*server);

  editor.Edit("CPU", "model", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {"REG"}, "bob").has_value());

  // A new HDL version does NOT invalidate the schematic in the loose
  // phase: links propagate nothing.
  editor.Edit("CPU", "model rev2", "alice");
  EXPECT_EQ(LatestProp(*server, "CPU", "schematic", "uptodate"), "true");
  EXPECT_EQ(server->engine().stats().propagated_deliveries, 0u);
}

}  // namespace
}  // namespace damocles
