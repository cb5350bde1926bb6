// WAL append overhead: what durability costs on the mutation path.
//
// The write-ahead log logs every structural operation to "ops";
// journal rows reach their "shard<K>" streams only at checkpoint cuts,
// which this bench does not take, so it prices the op log alone. It
// sweeps the fsync policies against a no-WAL baseline on the same
// check-in + event workload, for 1-shard and 4-shard servers:
//
//   wal_append_off_s1 / s4            no WAL (the baseline)
//   wal_append_none_s1 / s4           WAL, flush at drain
//   wal_append_batch_s1 / s4          WAL, flush + fsync at drain
//   wal_append_every_record_s1 / s4   WAL, fsync per op record
//
// CI's Release guard asserts fsync=none stays within 15% of the
// baseline: logging must be a memcpy-and-buffer tax, not a second
// engine.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "events/wal.hpp"

namespace {

using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;
using damocles::events::FsyncPolicy;

struct Variant {
  const char* tag;
  bool wal = false;
  FsyncPolicy fsync = FsyncPolicy::kNone;
};

constexpr Variant kVariants[] = {
    {"off", false, FsyncPolicy::kNone},
    {"none", true, FsyncPolicy::kNone},
    {"batch", true, FsyncPolicy::kBatch},
    {"every_record", true, FsyncPolicy::kEveryRecord},
};

std::filesystem::path ScratchDir(const std::string& tag) {
  return std::filesystem::temp_directory_path() / ("damocles-bench-" + tag);
}

/// One bench fixture: a (possibly durable) server plus its workload
/// cursor.
struct Fixture {
  std::string name;
  std::filesystem::path dir;
  std::unique_ptr<ProjectServer> server;
  int cursor = 0;
  double best_ns = 0.0;

  /// One measured op: a check-in (meta-data registration + ckin wave)
  /// followed by a posted event, then a drain — the durable mutation
  /// path end to end.
  void Step() {
    const std::string block = "blk" + std::to_string(cursor++ % 16);
    server->CheckIn(block, "HDL_model", "content", "bench");
    server->SubmitWireLine(
        "postEvent hdl_sim up " + block + ",HDL_model,1 \"good\"", "bench");
    benchmark::DoNotOptimize(server->Drain());
  }
};

/// The guard compares ratios of these series, so the measurement has to
/// survive a noisy CI box: every variant is timed once per pass, passes
/// interleave the variants, and each series reports its best pass.
/// Slow ticks (frequency drift, a neighbor stealing the core) then hit
/// some pass of every variant rather than one variant wholesale.
void RunSeries(uint32_t shards) {
  const int reps = damocles::benchutil::SeriesScale(300, 20);
  const int passes = damocles::benchutil::SeriesScale(16, 2);
  const std::string suffix = "_s" + std::to_string(shards);

  std::vector<Fixture> fixtures;
  for (const Variant& variant : kVariants) {
    Fixture fixture;
    fixture.name = std::string("wal_append_") + variant.tag + suffix;
    fixture.dir = ScratchDir(fixture.name);
    std::filesystem::remove_all(fixture.dir);

    ServerOptions options;
    options.num_shards = shards;
    if (shards > 1) options.deterministic_shards = true;
    if (variant.wal) {
      options.wal_dir = fixture.dir.string();
      options.wal_fsync = variant.fsync;
    }
    fixture.server = std::make_unique<ProjectServer>("bench", options);
    fixture.server->InitializeBlueprint(
        damocles::workload::EdtcBlueprintText());
    fixtures.push_back(std::move(fixture));
  }

  for (Fixture& fixture : fixtures) {
    for (int warm = 0; warm < reps / 4; ++warm) fixture.Step();
  }
  for (int pass = 0; pass < passes; ++pass) {
    for (Fixture& fixture : fixtures) {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) fixture.Step();
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count() /
                        reps;
      if (pass == 0 || ns < fixture.best_ns) fixture.best_ns = ns;
    }
  }

  std::printf("%-28s %14s %16s\n", "series", "ns/op", "ops/sec");
  for (Fixture& fixture : fixtures) {
    damocles::benchutil::AddBenchJson(
        fixture.name, fixture.best_ns,
        fixture.best_ns > 0.0 ? 1e9 / fixture.best_ns : 0.0);
    std::printf("%-28s %14.1f %16.1f\n", fixture.name.c_str(),
                fixture.best_ns, 1e9 / fixture.best_ns);
    fixture.server.reset();
    std::filesystem::remove_all(fixture.dir);
  }
}

}  // namespace

int main(int argc, char** argv) {
  damocles::benchutil::PrintHeader(
      "WAL append overhead", "durability layer",
      "check-in + event mutation cost: no WAL vs fsync=none/batch/"
      "every_record, 1 and 4 shards");
  RunSeries(1);
  std::printf("\n");
  RunSeries(4);
  damocles::benchutil::WriteBenchJson();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
