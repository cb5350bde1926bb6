// Claim C1 — "light weight ... non obstructive" (paper §1, §4).
//
// Quantifies tracking overhead per design activity for three regimes:
//   observer   — the DAMOCLES/BluePrint engine (events after the fact),
//   activity   — NELSIS-style pre-approval of every action,
//   polling    — cron-style repository scans.
// Series: tracking operations and wall time per 1000 design actions,
// plus the polling tracker's detection lag (the observer's is zero).
#include "bench_util.hpp"

#include <chrono>

#include "baseline/activity_driven.hpp"
#include "baseline/polling.hpp"

namespace {

using namespace damocles;

constexpr int kViews = 5;

double SecondsSince(
    const std::chrono::high_resolution_clock::time_point& start) {
  return std::chrono::duration<double>(
             std::chrono::high_resolution_clock::now() - start)
      .count();
}

/// Observer regime: run a seeded design session through the engine.
void BM_ObserverPerAction(benchmark::State& state) {
  auto project = benchutil::MakeFlowProject(kViews, 4);
  workload::TraceSpec trace;
  trace.n_actions = 64;
  trace.seed = 11;
  for (auto _ : state) {
    workload::RunDesignSession(*project.server, project.flow, project.blocks,
                               trace);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.n_actions));
}
BENCHMARK(BM_ObserverPerAction);

/// Activity-driven regime: the same action count through Begin/End.
void BM_ActivityDrivenPerAction(benchmark::State& state) {
  std::vector<baseline::ActivityDef> flow;
  for (int i = 1; i < kViews; ++i) {
    flow.push_back({"gen" + std::to_string(i),
                    {"view_" + std::to_string(i - 1)},
                    {"view_" + std::to_string(i)}});
  }
  baseline::ActivityDrivenManager manager(flow);
  manager.SeedData("blk", "view_0");
  int cursor = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const std::string activity = "gen" + std::to_string(cursor);
      if (auto ticket = manager.BeginActivity(activity, "blk")) {
        manager.EndActivity(*ticket, true);
      }
      cursor = cursor % (kViews - 1) + 1;
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ActivityDrivenPerAction);

/// Polling regime: scans of a realistic repository.
void BM_PollingScan(benchmark::State& state) {
  auto project = benchutil::MakeFlowProject(kViews, 8);
  baseline::PollingTracker tracker(project.server->workspace());
  int64_t now = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Poll(now++));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["files"] =
      static_cast<double>(project.server->workspace().FileCount());
}
BENCHMARK(BM_PollingScan);

void PrintSeries() {
  benchutil::PrintHeader(
      "Claim C1: non-obstructive, light-weight tracking",
      "paper sections 1 and 4",
      "Tracking cost per design action: observer engine vs activity-driven "
      "manager vs polling.");

  constexpr size_t kActions = 1000;

  // Observer.
  auto project = benchutil::MakeFlowProject(kViews, 4);
  workload::TraceSpec trace;
  trace.n_actions = kActions;
  trace.seed = 11;
  auto start = std::chrono::high_resolution_clock::now();
  workload::RunDesignSession(*project.server, project.flow, project.blocks,
                             trace);
  const double observer_seconds = SecondsSince(start);
  const auto& es = project.server->engine().stats();
  // Tracking work actually done. reevaluations counts continuous
  // assignments evaluated, not deliveries times assignments: a delivery
  // to a settled OID skips its refresh (es.settled_refreshes) and a
  // refresh whose first pass writes nothing skips the second pass.
  const size_t observer_ops = es.assign_actions + es.reevaluations +
                              es.propagated_deliveries + es.post_actions;

  // Activity-driven: same number of designer actions.
  std::vector<baseline::ActivityDef> flow;
  for (int i = 1; i < kViews; ++i) {
    flow.push_back({"gen" + std::to_string(i),
                    {"view_" + std::to_string(i - 1)},
                    {"view_" + std::to_string(i)}});
  }
  baseline::ActivityDrivenManager manager(flow);
  for (const auto& block : project.blocks) manager.SeedData(block, "view_0");
  Rng rng(11);
  start = std::chrono::high_resolution_clock::now();
  size_t denials_retries = 0;
  for (size_t i = 0; i < kActions; ++i) {
    const std::string block = project.blocks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(project.blocks.size()) - 1))];
    const std::string activity =
        "gen" + std::to_string(rng.UniformInt(1, kViews - 1));
    if (auto ticket = manager.BeginActivity(activity, block)) {
      manager.EndActivity(*ticket, true);
    } else {
      ++denials_retries;
    }
  }
  const double activity_seconds = SecondsSince(start);
  const auto& as = manager.stats();
  const size_t activity_ops =
      as.state_checks + as.locks_taken + as.state_updates;

  // Polling: the same number of design actions interleaved with a poll
  // every 10 actions (design activity advances 600 simulated seconds per
  // action, so the poll interval is 6000s).
  metadb::Workspace polled_workspace("polled");
  baseline::PollingTracker tracker(polled_workspace);
  Rng polling_rng(11);
  start = std::chrono::high_resolution_clock::now();
  int64_t now = 0;
  for (size_t i = 0; i < kActions; ++i) {
    now += 600;
    const std::string block = project.blocks[static_cast<size_t>(
        polling_rng.UniformInt(
            0, static_cast<int64_t>(project.blocks.size()) - 1))];
    polled_workspace.CheckIn(block, "view_0", "edit", "bench", now);
    if ((i + 1) % 10 == 0) tracker.Poll(now);
  }
  const double polling_seconds = SecondsSince(start);

  std::printf("%-16s %-22s %-18s %-24s\n", "regime",
              "tracking ops/action", "us per action", "designer obstruction");
  std::printf("%-16s %-22.2f %-18.2f %-24s\n", "observer",
              static_cast<double>(observer_ops) / kActions,
              observer_seconds * 1e6 / kActions, "none (after the fact)");
  std::printf("%-16s %-22.2f %-18.2f %zu denials blocked work\n",
              "activity-driven",
              static_cast<double>(activity_ops) / kActions,
              activity_seconds * 1e6 / kActions, denials_retries);
  std::printf("%-16s %-22.2f %-18.2f avg detection lag %.0fs\n", "polling",
              static_cast<double>(tracker.stats().files_scanned) / kActions,
              polling_seconds * 1e6 / kActions,
              tracker.stats().AverageLagSeconds());
  std::printf(
      "\nExpected shape (paper): the observer tracks without pre-approving "
      "or blocking any\naction; the activity-driven manager obstructs and "
      "the polling tracker detects late.\n\n");

  // Machine-readable trajectory: ns per design action and actions/sec
  // per tracking regime (deliveries == designer actions tracked here).
  const auto add = [&](const char* name, double seconds) {
    benchutil::AddBenchJson(name, seconds * 1e9 / kActions,
                            seconds > 0.0 ? kActions / seconds : 0.0);
  };
  add("overhead_observer", observer_seconds);
  add("overhead_activity_driven", activity_seconds);
  add("overhead_polling", polling_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  damocles::benchutil::WriteBenchJson();
  return 0;
}
