#include <gtest/gtest.h>

#include "common/error.hpp"

#include "baseline/activity_driven.hpp"
#include "baseline/full_recompute.hpp"
#include "baseline/polling.hpp"
#include "common/error.hpp"
#include "query/query.hpp"
#include "workload/generators.hpp"

namespace damocles::baseline {
namespace {

using metadb::Oid;

// --- Full recompute -----------------------------------------------------------

TEST(FullRecompute, MarksDownstreamOfNewerSources) {
  metadb::MetaDatabase db;
  const auto a = db.CreateNextVersion("x", "a", "u", 10);
  const auto b = db.CreateNextVersion("x", "b", "u", 20);
  const auto c = db.CreateNextVersion("x", "c", "u", 30);
  db.CreateLink(metadb::LinkKind::kDerive, a, b, {}, "", {});
  db.CreateLink(metadb::LinkKind::kDerive, b, c, {}, "", {});

  FullRecomputeTracker tracker(db);
  tracker.RecomputeAll();
  // Chain created in order: nothing stale.
  EXPECT_EQ(*db.GetProperty(a, "uptodate"), "true");
  EXPECT_EQ(*db.GetProperty(c, "uptodate"), "true");

  // A newer version of the source makes b and c stale once the link is
  // re-pointed at it (move semantics).
  const auto a2 = db.CreateNextVersion("x", "a", "u", 40);
  db.MoveLinkEndpoint(db.OutLinks(a)[0], /*endpoint_from=*/true, a2);
  tracker.RecomputeAll();
  EXPECT_EQ(*db.GetProperty(a2, "uptodate"), "true");
  EXPECT_EQ(*db.GetProperty(b, "uptodate"), "false");
  EXPECT_EQ(*db.GetProperty(c, "uptodate"), "false");
}

TEST(FullRecompute, HandlesCycles) {
  metadb::MetaDatabase db;
  const auto a = db.CreateNextVersion("x", "a", "u", 10);
  const auto b = db.CreateNextVersion("x", "b", "u", 20);
  db.CreateLink(metadb::LinkKind::kDerive, a, b, {}, "", {});
  db.CreateLink(metadb::LinkKind::kDerive, b, a, {}, "", {});
  FullRecomputeTracker tracker(db);
  EXPECT_NO_THROW(tracker.RecomputeAll());
  // b's upstream a (t=10) is older; a's upstream b (t=20) is newer.
  EXPECT_EQ(*db.GetProperty(a, "uptodate"), "false");
}

TEST(FullRecompute, StatsAccumulate) {
  metadb::MetaDatabase db;
  db.CreateNextVersion("x", "a", "u", 1);
  db.CreateNextVersion("x", "b", "u", 2);
  FullRecomputeTracker tracker(db);
  tracker.RecomputeAll();
  tracker.RecomputeAll();
  EXPECT_EQ(tracker.stats().sweeps, 2u);
  EXPECT_EQ(tracker.stats().objects_visited, 4u);
}

/// The headline equivalence property: on identical traces, the selective
/// event-driven engine and the full-recompute baseline agree on which
/// latest versions are out of date.
class SelectiveVsFullSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectiveVsFullSweep, AgreeOnLatestVersionStaleness) {
  workload::FlowSpec flow;
  flow.n_views = 4;
  workload::TraceSpec trace;
  trace.n_actions = 150;
  trace.seed = GetParam();

  // Run the trace through the BluePrint engine.
  engine::ProjectServer server("equiv");
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "equiv"));
  workload::InstantiateFlow(server, flow, "blk_a");
  workload::InstantiateFlow(server, flow, "blk_b");
  workload::RunDesignSession(server, flow, {"blk_a", "blk_b"}, trace);

  // Recompute from scratch on the same meta-database and compare.
  query::ProjectQuery q(server.database());
  const auto latest_before = q.LatestVersions(nullptr);
  std::map<std::string, std::string> engine_state;
  for (const auto& match : latest_before) {
    engine_state[FormatOid(match.oid)] = server.database().PropertyOr(
        server.database().GetObject(match.id), "uptodate", "?");
  }

  FullRecomputeTracker tracker(
      const_cast<metadb::MetaDatabase&>(server.database()));
  tracker.RecomputeAll();

  for (const auto& match : q.LatestVersions(nullptr)) {
    const std::string recomputed = server.database().PropertyOr(
        server.database().GetObject(match.id), "uptodate", "?");
    EXPECT_EQ(engine_state.at(FormatOid(match.oid)), recomputed)
        << "disagreement on " << FormatOid(match.oid) << " (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectiveVsFullSweep,
                         ::testing::Values(1ull, 7ull, 42ull, 1995ull,
                                           0xc0ffeeull));

// --- Activity-driven manager -------------------------------------------------

std::vector<ActivityDef> SampleFlow() {
  return {
      {"synthesis", {"HDL_model"}, {"schematic"}},
      {"netlister", {"schematic"}, {"netlist"}},
      {"nl_sim", {"netlist"}, {}},
  };
}

TEST(ActivityDriven, DeniesWhenInputsMissing) {
  ActivityDrivenManager manager(SampleFlow());
  EXPECT_FALSE(manager.BeginActivity("synthesis", "CPU").has_value());
  EXPECT_EQ(manager.stats().denials, 1u);
}

TEST(ActivityDriven, UnknownActivityThrows) {
  ActivityDrivenManager manager(SampleFlow());
  EXPECT_THROW(manager.BeginActivity("place_route", "CPU"), NotFoundError);
}

TEST(ActivityDriven, FullFlowRunsWhenSeeded) {
  ActivityDrivenManager manager(SampleFlow());
  manager.SeedData("CPU", "HDL_model");

  const auto synth = manager.BeginActivity("synthesis", "CPU");
  ASSERT_TRUE(synth.has_value());
  manager.EndActivity(*synth, /*success=*/true);
  EXPECT_EQ(manager.StateOf("CPU", "schematic"), DataState::kValid);

  const auto net = manager.BeginActivity("netlister", "CPU");
  ASSERT_TRUE(net.has_value());
  manager.EndActivity(*net, true);
  EXPECT_EQ(manager.StateOf("CPU", "netlist"), DataState::kValid);
}

TEST(ActivityDriven, LocksBlockConcurrentActivities) {
  ActivityDrivenManager manager(SampleFlow());
  manager.SeedData("CPU", "HDL_model");
  const auto first = manager.BeginActivity("synthesis", "CPU");
  ASSERT_TRUE(first.has_value());
  // Input HDL_model is locked: a second begin is denied.
  EXPECT_FALSE(manager.BeginActivity("synthesis", "CPU").has_value());
  manager.EndActivity(*first, true);
  EXPECT_TRUE(manager.BeginActivity("synthesis", "CPU").has_value());
}

TEST(ActivityDriven, SuccessInvalidatesDownstream) {
  ActivityDrivenManager manager(SampleFlow());
  manager.SeedData("CPU", "HDL_model");
  auto t = manager.BeginActivity("synthesis", "CPU");
  manager.EndActivity(*t, true);
  t = manager.BeginActivity("netlister", "CPU");
  manager.EndActivity(*t, true);

  // Re-running synthesis invalidates the netlist transitively.
  t = manager.BeginActivity("synthesis", "CPU");
  manager.EndActivity(*t, true);
  EXPECT_EQ(manager.StateOf("CPU", "netlist"), DataState::kStale);
  EXPECT_GE(manager.stats().invalidations, 1u);
}

TEST(ActivityDriven, FailureLeavesStatesUntouched) {
  ActivityDrivenManager manager(SampleFlow());
  manager.SeedData("CPU", "HDL_model");
  const auto t = manager.BeginActivity("synthesis", "CPU");
  manager.EndActivity(*t, /*success=*/false);
  EXPECT_EQ(manager.StateOf("CPU", "schematic"), DataState::kMissing);
}

TEST(ActivityDriven, EveryBeginCostsStateChecks) {
  ActivityDrivenManager manager(SampleFlow());
  manager.SeedData("CPU", "HDL_model");
  const auto t = manager.BeginActivity("synthesis", "CPU");
  manager.EndActivity(*t, true);
  // One check for the single input view.
  EXPECT_EQ(manager.stats().state_checks, 1u);
  EXPECT_EQ(manager.stats().locks_taken, 2u);  // Input + output.
}

// --- Polling tracker --------------------------------------------------------------

TEST(Polling, DetectsChangesWithLag) {
  metadb::Workspace workspace("w");
  PollingTracker tracker(workspace);

  workspace.CheckIn("cpu", "hdl", "v1", "alice", 100);
  const auto first = tracker.Poll(160);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].oid, (Oid{"cpu", "hdl", 1}));
  EXPECT_EQ(first[0].detected_at - first[0].modified_at, 60);

  // Nothing new: empty poll, but files were still scanned.
  EXPECT_TRUE(tracker.Poll(220).empty());
  EXPECT_EQ(tracker.stats().polls, 2u);
  EXPECT_GE(tracker.stats().files_scanned, 2u);

  workspace.CheckIn("cpu", "hdl", "v2", "alice", 230);
  const auto second = tracker.Poll(300);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].oid.version, 2);
  EXPECT_EQ(tracker.stats().AverageLagSeconds(), (60 + 70) / 2.0);
}

TEST(Polling, ScanCostGrowsWithRepository) {
  metadb::Workspace workspace("w");
  for (int i = 0; i < 50; ++i) {
    workspace.CheckIn("blk" + std::to_string(i), "hdl", "x", "u", i);
  }
  PollingTracker tracker(workspace);
  tracker.Poll(1000);
  EXPECT_EQ(tracker.stats().files_scanned, 50u);
  tracker.Poll(1001);  // Quiet poll still scans everything.
  EXPECT_EQ(tracker.stats().files_scanned, 100u);
}

}  // namespace
}  // namespace damocles::baseline
