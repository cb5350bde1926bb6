// Incremental + background checkpoint cost.
//
// Two claims the checkpoint subsystem makes, measured directly:
//
//  1. A delta checkpoint's write cost scales with the dirty set, not
//     the database. Against a database of several thousand objects with
//     a handful of dirty slots, the delta should be a small fraction of
//     the full dump:
//
//       checkpoint_full_s1 / s4          full dump, 16 dirty of ~3000
//       checkpoint_delta_s1 / s4         delta,     16 dirty of ~3000
//       checkpoint_delta_wide_s1         delta,    256 dirty of ~3000
//
//  2. Background checkpointing keeps the mutation path live: the op
//     that trips an auto-checkpoint pays only the cut (pinned snapshot
//     + dirty delta), not serialization + file writes. The series
//     report the WORST single-op latency over a run that crosses
//     several auto-checkpoint thresholds:
//
//       checkpoint_stall_inline          worst op ns, the op waits
//       checkpoint_stall_background      worst op ns, the op does not
//
//     The checkpoint thread writes every checkpoint either way;
//     "inline" names the default mode, where the triggering op waits
//     for the worker's write and commit. Both modes pay the cut on the
//     triggering op, and the cut also appends and syncs the journal
//     rows added since the previous checkpoint (the only place rows
//     reach the WAL), so the series include that row write.
//
// CI's Release guard gates delta-vs-full and background-vs-inline
// ratios on these series.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.hpp"

namespace {

using damocles::engine::CheckpointMode;
using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;

std::filesystem::path ScratchDir(const std::string& tag) {
  return std::filesystem::temp_directory_path() / ("damocles-bench-" + tag);
}

/// A durable server with `objects` registered design objects (each a
/// checked-in version), so full dumps have real weight.
std::unique_ptr<ProjectServer> MakePopulatedServer(const std::string& dir,
                                                   uint32_t shards,
                                                   int objects) {
  ServerOptions options;
  options.wal_dir = dir;
  options.num_shards = shards;
  if (shards > 1) options.deterministic_shards = true;
  // Timing series issue hundreds of delta checkpoints; an unbounded
  // chain keeps every measured call a genuine delta (recovery cost is
  // not what this bench measures).
  options.checkpoint_chain_limit = 1u << 20;
  auto server = std::make_unique<ProjectServer>("bench", options);
  server->InitializeBlueprint(damocles::workload::EdtcBlueprintText());
  for (int i = 0; i < objects; ++i) {
    server->CheckIn("blk" + std::to_string(i), "HDL_model",
                    "content v1 of object " + std::to_string(i), "bench");
  }
  server->Drain();
  return server;
}

/// Dirties `count` distinct objects (new checked-in versions).
void DirtySome(ProjectServer& server, int count, int* cursor, int objects) {
  for (int i = 0; i < count; ++i) {
    const std::string block = "blk" + std::to_string(*cursor % objects);
    server.CheckIn(block, "HDL_model",
                   "rev " + std::to_string(*cursor), "bench");
    ++*cursor;
  }
  server.Drain();
}

void RunWriteCostSeries(uint32_t shards) {
  const int objects = damocles::benchutil::SeriesScale(3000, 200);
  const int reps = damocles::benchutil::SeriesScale(30, 3);
  const std::string suffix = "_s" + std::to_string(shards);

  struct Variant {
    std::string name;
    CheckpointMode mode;
    int dirty;
  };
  std::vector<Variant> variants = {
      {"checkpoint_full" + suffix, CheckpointMode::kFull, 16},
      {"checkpoint_delta" + suffix, CheckpointMode::kDelta, 16},
  };
  if (shards == 1) {
    variants.push_back(
        {"checkpoint_delta_wide" + suffix, CheckpointMode::kDelta, 256});
  }

  std::printf("%-28s %14s %16s\n", "series", "ns/op", "ops/sec");
  for (const Variant& variant : variants) {
    const std::filesystem::path dir = ScratchDir(variant.name);
    std::filesystem::remove_all(dir);
    auto server = MakePopulatedServer(dir.string(), shards, objects);
    int cursor = 0;
    server->WalCheckpoint(CheckpointMode::kFull);  // The chain base.
    DirtySome(*server, variant.dirty, &cursor, objects);
    server->WalCheckpoint(variant.mode);  // Warm-up.

    double total_ns = 0.0;
    for (int r = 0; r < reps; ++r) {
      DirtySome(*server, variant.dirty, &cursor, objects);
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(server->WalCheckpoint(variant.mode));
      total_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    }
    const double ns = total_ns / reps;
    damocles::benchutil::AddBenchJson(variant.name, ns,
                                      ns > 0.0 ? 1e9 / ns : 0.0);
    std::printf("%-28s %14.1f %16.1f\n", variant.name.c_str(), ns,
                ns > 0.0 ? 1e9 / ns : 0.0);
    server.reset();
    std::filesystem::remove_all(dir);
  }
}

/// Worst single-op latency across a run whose op count crosses several
/// auto-checkpoint thresholds. In the default (inline) mode the
/// triggering op waits for the worker's whole dump + write; background
/// checkpoints charge it only the cut. Reports the best-of-passes maximum so one
/// noisy CI tick cannot fake a stall.
void RunStallSeries(bool background) {
  const int objects = damocles::benchutil::SeriesScale(3000, 200);
  const int ops = damocles::benchutil::SeriesScale(256, 24);
  const int passes = damocles::benchutil::SeriesScale(5, 2);
  const std::string name = std::string("checkpoint_stall_") +
                           (background ? "background" : "inline");

  const std::filesystem::path dir = ScratchDir(name);
  std::filesystem::remove_all(dir);
  ServerOptions options;
  options.wal_dir = dir.string();
  options.checkpoint_every_ops = static_cast<size_t>(
      damocles::benchutil::SeriesScale(64, 8));
  options.auto_checkpoint_mode = CheckpointMode::kFull;  // Maximum stall.
  options.background_checkpoints = background;
  auto server = std::make_unique<ProjectServer>("bench", options);
  server->InitializeBlueprint(damocles::workload::EdtcBlueprintText());
  for (int i = 0; i < objects; ++i) {
    server->CheckIn("blk" + std::to_string(i), "HDL_model",
                    "content v1 of object " + std::to_string(i), "bench");
  }
  server->Drain();

  int cursor = 0;
  double best_max_ns = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    double max_ns = 0.0;
    for (int i = 0; i < ops; ++i) {
      const std::string block = "blk" + std::to_string(cursor % objects);
      const auto start = std::chrono::steady_clock::now();
      server->CheckIn(block, "HDL_model", "rev " + std::to_string(cursor),
                      "bench");
      benchmark::DoNotOptimize(server->Drain());
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (ns > max_ns) max_ns = ns;
      ++cursor;
    }
    if (pass == 0 || max_ns < best_max_ns) best_max_ns = max_ns;
  }
  damocles::benchutil::AddBenchJson(name, best_max_ns,
                                    best_max_ns > 0.0 ? 1e9 / best_max_ns
                                                      : 0.0);
  std::printf("%-28s %14.1f %16.1f\n", name.c_str(), best_max_ns,
              best_max_ns > 0.0 ? 1e9 / best_max_ns : 0.0);
  server.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  damocles::benchutil::PrintHeader(
      "Checkpoint cost", "durability layer",
      "full vs delta checkpoint write cost (dirty-set scaling) and the "
      "mutation-path stall inline vs background");
  RunWriteCostSeries(1);
  std::printf("\n");
  RunWriteCostSeries(4);
  std::printf("\n%-28s %14s %16s\n", "series", "max op ns", "1/max");
  RunStallSeries(/*background=*/false);
  RunStallSeries(/*background=*/true);
  damocles::benchutil::WriteBenchJson();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
