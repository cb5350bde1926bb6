// Ablations of the run-time engine's design choices.
//
// Three decisions the reproduction makes are measured by turning each
// off (or simulating its absence):
//   A1  journal of propagated deliveries — audit trail vs raw speed;
//   A2  idempotent link registration — what parallel duplicate links
//       would cost the propagation walker;
//   A3  interactive (auto-drain) vs batch event intake — queue latency
//       against throughput.
#include "bench_util.hpp"

namespace {

using namespace damocles;

// --- A1: journaling -----------------------------------------------------------

void BM_A1_PropagationJournalOn(benchmark::State& state) {
  engine::ServerOptions options;
  options.engine.journal_propagated = true;
  engine::ProjectServer server("a1", options);
  workload::FlowSpec flow;
  flow.n_views = 16;
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "a1"));
  workload::InstantiateFlow(server, flow, "blk");
  for (auto _ : state) {
    server.CheckIn("blk", "view_0", "edit", "bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_A1_PropagationJournalOn);

void BM_A1_PropagationJournalOff(benchmark::State& state) {
  engine::ServerOptions options;
  options.engine.journal_propagated = false;
  engine::ProjectServer server("a1", options);
  workload::FlowSpec flow;
  flow.n_views = 16;
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "a1"));
  workload::InstantiateFlow(server, flow, "blk");
  for (auto _ : state) {
    server.CheckIn("blk", "view_0", "edit", "bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_A1_PropagationJournalOff);

// --- A2: duplicate links ----------------------------------------------------

/// Builds a 2-node graph with N parallel duplicate links (bypassing the
/// engine's idempotence, the way repeated tool runs would have without
/// it) and measures one propagation wave.
void BM_A2_ParallelDuplicateLinks(benchmark::State& state) {
  const int duplicates = static_cast<int>(state.range(0));
  auto server = std::make_unique<engine::ProjectServer>("a2");
  workload::FlowSpec flow;
  flow.n_views = 2;
  server->InitializeBlueprint(workload::MakeFlowBlueprint(flow, "a2"));
  workload::InstantiateFlow(*server, flow, "blk");

  auto& db = server->database();
  const auto from = *db.FindLatest("blk", "view_0");
  const auto to = *db.FindLatest("blk", "view_1");
  for (int i = 1; i < duplicates; ++i) {
    db.CreateLink(metadb::LinkKind::kDerive, from, to, {"outofdate"},
                  "derive_from", metadb::CarryPolicy::kNone);
  }
  events::EventMessage event;
  event.name = "outofdate";
  event.direction = events::Direction::kDown;
  event.target = db.OidOf(from);
  for (auto _ : state) {
    server->Submit(event);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("parallel links=" + std::to_string(duplicates));
}
BENCHMARK(BM_A2_ParallelDuplicateLinks)->Arg(1)->Arg(16)->Arg(256);

// --- A3: intake mode ----------------------------------------------------------

void BM_A3_InteractiveIntake(benchmark::State& state) {
  auto project = benchutil::MakeFlowProject(5, 2);
  events::EventMessage event;
  event.name = "res0";
  event.direction = events::Direction::kUp;
  event.target = metadb::Oid{"blk0", "view_1", 1};
  for (auto _ : state) {
    project.server->Submit(event);  // Drains after every event.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_A3_InteractiveIntake);

void BM_A3_BatchIntake(benchmark::State& state) {
  engine::ServerOptions options;
  options.auto_drain = false;
  engine::ProjectServer server("a3", options);
  workload::FlowSpec flow;
  flow.n_views = 5;
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "a3"));
  workload::InstantiateFlow(server, flow, "blk0");
  server.Drain();
  events::EventMessage event;
  event.name = "res0";
  event.direction = events::Direction::kUp;
  event.target = metadb::Oid{"blk0", "view_1", 1};
  constexpr int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) server.Submit(event);
    server.Drain();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_A3_BatchIntake);

void PrintSeries() {
  benchutil::PrintHeader(
      "Ablations: engine design choices", "run-time engine",
      "A1 journal of propagated deliveries, A2 idempotent link "
      "registration, A3 intake mode.");

  // A2's series: wave work with duplicate parallel links.
  std::printf("A2: one outofdate wave across N parallel duplicate links\n");
  std::printf("%-18s %-22s\n", "parallel links", "deliveries per wave");
  for (const int duplicates : {1, 16, 256}) {
    auto server = std::make_unique<engine::ProjectServer>("a2");
    workload::FlowSpec flow;
    flow.n_views = 2;
    server->InitializeBlueprint(workload::MakeFlowBlueprint(flow, "a2"));
    workload::InstantiateFlow(*server, flow, "blk");
    auto& db = server->database();
    const auto from = *db.FindLatest("blk", "view_0");
    const auto to = *db.FindLatest("blk", "view_1");
    for (int i = 1; i < duplicates; ++i) {
      db.CreateLink(metadb::LinkKind::kDerive, from, to, {"outofdate"},
                    "derive_from", metadb::CarryPolicy::kNone);
    }
    server->engine().ResetStats();
    events::EventMessage event;
    event.name = "outofdate";
    event.direction = events::Direction::kDown;
    event.target = db.OidOf(from);
    server->Submit(event);
    std::printf("%-18d %-22zu\n", duplicates,
                server->engine().stats().propagated_deliveries);
  }
  std::printf(
      "\nThe shared visited set keeps deliveries flat even under duplicate "
      "links; the timed\nsection shows the residual per-link scan cost the "
      "idempotent registration avoids.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
