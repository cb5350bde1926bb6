// Cost of one wave delivery: a delivery that writes vs one that does not.
//
// An `outofdate` wave marks everything downstream of a change (paper
// §3.2); most deliveries of later waves reach OIDs that are already out
// of date and change nothing. Such an OID is settled — its continuous
// assignments reached a fixed point and its properties did not change
// since — so the engine skips re-evaluating it, and the delivery costs
// the wave walk, the rule lookup and the journal row only:
//
//   delivery_cost_writing   ns per delivery of an `outofdate` wave over
//                           a 341-OID use tree (depth 4, fanout 4) whose
//                           OIDs are all up to date, as right after a
//                           check-in of each: every delivery writes
//                           uptodate = false and re-evaluates state.
//   delivery_cost_settled   ns per delivery of the same wave repeated
//                           right after: every delivery writes nothing
//                           and skips its refresh.
//
// One shard, one engine. Each repetition resets the tree (outside the
// timed region), then times the writing wave and its settled repeat
// back to back; each series is the median over the repetitions. CI's
// Release guard requires settled <= 0.5x writing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using damocles::engine::EngineStats;
using damocles::engine::ProjectServer;
using damocles::events::EventMessage;
using damocles::metadb::OidId;

struct Tree {
  std::unique_ptr<ProjectServer> server;
  damocles::metadb::Oid root;
  std::vector<OidId> oids;  ///< Every OID of the tree.
};

Tree MakeTree() {
  Tree tree;
  damocles::workload::FlowSpec flow;
  flow.n_views = 1;
  tree.server = std::make_unique<ProjectServer>("delivery");
  tree.server->InitializeBlueprint(
      damocles::workload::MakeFlowBlueprint(flow, "delivery"));
  damocles::workload::HierarchySpec spec;
  spec.depth = 4;
  spec.fanout = 4;
  spec.view = "view_0";
  spec.root_block = "top";
  tree.root = damocles::workload::BuildHierarchy(*tree.server, spec).root;
  damocles::metadb::MetaDatabase& db = tree.server->database();
  db.ForEachObject([&](OidId id, const damocles::metadb::MetaObject&) {
    tree.oids.push_back(id);
  });
  // Every result good, so `state` follows `uptodate`.
  for (const OidId id : tree.oids) {
    db.SetProperty(id, "result_0", "good");
    db.SetProperty(id, "result_1", "good");
  }
  return tree;
}

/// Puts every OID back to up to date with its state at the fixed point
/// (what a check-in of each would leave), so the next wave writes.
void Reset(Tree& tree) {
  damocles::metadb::MetaDatabase& db = tree.server->database();
  for (const OidId id : tree.oids) {
    db.SetProperty(id, "uptodate", "true");
    db.SetProperty(id, "state", "true");
  }
  tree.server->engine().ClearJournal();
}

/// Runs one `outofdate down` wave from the root; returns ns/delivery.
double TimeWave(Tree& tree) {
  EventMessage event;
  event.name = "outofdate";
  event.target = tree.root;
  event.user = "bench";
  event.origin = damocles::events::EventOrigin::kExternal;
  const size_t before = tree.server->engine().stats().wave_deliveries;
  const auto start = std::chrono::steady_clock::now();
  tree.server->Submit(std::move(event));
  tree.server->Drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const size_t deliveries =
      tree.server->engine().stats().wave_deliveries - before;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         static_cast<double>(std::max<size_t>(deliveries, 1));
}

double Median(std::vector<double> samples) {
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  return samples[mid];
}

void AddSeries(const char* name, double ns) {
  damocles::benchutil::AddBenchJson(name, ns, ns > 0.0 ? 1e9 / ns : 0.0);
  std::printf("%-24s %14.1f %18.0f\n", name, ns, ns > 0.0 ? 1e9 / ns : 0.0);
}

void BM_SettledWave(benchmark::State& state) {
  Tree tree = MakeTree();
  Reset(tree);
  TimeWave(tree);  // The writing wave; every later one is settled.
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeWave(tree));
    state.PauseTiming();
    tree.server->engine().ClearJournal();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tree.oids.size()));
}
BENCHMARK(BM_SettledWave);

}  // namespace

int main(int argc, char** argv) {
  damocles::benchutil::PrintHeader(
      "Delivery cost", "paper section 3.2",
      "ns per delivery of an outofdate wave that writes vs its settled "
      "repeat: settled OIDs skip re-evaluation");
  const int reps = damocles::benchutil::SeriesScale(200, 5);
  Tree tree = MakeTree();
  std::vector<double> writing;
  std::vector<double> settled;
  EngineStats writing_stats;
  EngineStats settled_stats;
  for (int r = 0; r < reps; ++r) {
    Reset(tree);
    const EngineStats start = tree.server->engine().stats();
    writing.push_back(TimeWave(tree));
    const EngineStats middle = tree.server->engine().stats();
    settled.push_back(TimeWave(tree));
    const EngineStats& end = tree.server->engine().stats();
    writing_stats.wave_deliveries += middle.wave_deliveries - start.wave_deliveries;
    writing_stats.reevaluations += middle.reevaluations - start.reevaluations;
    writing_stats.settled_refreshes +=
        middle.settled_refreshes - start.settled_refreshes;
    settled_stats.wave_deliveries += end.wave_deliveries - middle.wave_deliveries;
    settled_stats.reevaluations += end.reevaluations - middle.reevaluations;
    settled_stats.settled_refreshes +=
        end.settled_refreshes - middle.settled_refreshes;
  }
  std::printf("tree: %zu OIDs, %d repetitions\n", tree.oids.size(), reps);
  std::printf("%-24s %14s %18s\n", "series", "ns/delivery", "deliveries/sec");
  const double writing_ns = Median(writing);
  const double settled_ns = Median(settled);
  AddSeries("delivery_cost_writing", writing_ns);
  AddSeries("delivery_cost_settled", settled_ns);
  const auto per_delivery = [](size_t count, const EngineStats& stats) {
    return static_cast<double>(count) /
           static_cast<double>(std::max<size_t>(stats.wave_deliveries, 1));
  };
  std::printf(
      "writing: %.2f evaluations, %.2f settled refreshes per delivery\n",
      per_delivery(writing_stats.reevaluations, writing_stats),
      per_delivery(writing_stats.settled_refreshes, writing_stats));
  std::printf(
      "settled: %.2f evaluations, %.2f settled refreshes per delivery\n",
      per_delivery(settled_stats.reevaluations, settled_stats),
      per_delivery(settled_stats.settled_refreshes, settled_stats));
  std::printf("settled / writing = %.2f\n",
              writing_ns > 0.0 ? settled_ns / writing_ns : 0.0);
  damocles::benchutil::WriteBenchJson();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
