// Snapshot publish cost against database size.
//
// MetaDatabase::PublishSnapshot freezes the live database for readers.
// The frozen version shares every storage chunk the dirty tracker did
// not mark since the previous publish and copies only the marked ones,
// so with a fixed number of dirty objects the cost should stay nearly
// flat while the database grows (a full clone grows with it, ~256x from
// 1k to 256k objects):
//
//   snapshot_publish_1k      publish after 16 dirty objects, 1k objects
//   snapshot_publish_16k     same, 16k objects
//   snapshot_publish_256k    same, 256k objects
//   snapshot_publish_1m      same, 1M objects (printed, not gated)
//   snapshot_publish_all_dirty_4k
//                            4k objects carrying 4 properties each,
//                            every chunk dirty: the publish shape of a
//                            wave batch that touches most objects
//                            (information, not gated)
//   snapshot_publish_props1_4k
//                            publish after one SetProperty, 4k objects
//                            carrying 1 property each
//   snapshot_publish_props16_4k
//                            same, 16 properties each
//
// The dirty objects are spread over the database, so each publish copies
// about 16 object chunks; what still grows with the size is the chunk
// table copy (pointer copies) and the dirty-stamp scan. Each series
// reports the median publish time over its repetitions. CI's Release
// guard gates snapshot_publish_256k / snapshot_publish_1k at 10x.
//
// The props series price the objects' width. A dirty chunk's untouched
// objects share their property blocks with the previous version, so
// one write copies one block whatever the other 63 objects carry: CI's
// Release guard gates snapshot_publish_props16_4k /
// snapshot_publish_props1_4k at 1.5x (a chunk that deep-copied all 64
// objects' properties measured 2.35x).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "metadb/meta_database.hpp"

namespace {

using damocles::metadb::MetaDatabase;
using damocles::metadb::Oid;
using damocles::metadb::OidId;

constexpr int kDirtyPerPublish = 16;

/// A database of `objects` objects, one property each, published once
/// so the measured publishes start from a frozen previous version.
void Populate(MetaDatabase& db, int objects) {
  for (int i = 0; i < objects; ++i) {
    const Oid oid{"blk" + std::to_string(i), "view_0", 1};
    const OidId id = db.CreateObject(oid, "bench", 0);
    db.SetProperty(id, "uptodate", "true");
  }
  db.PublishSnapshot();
}

/// Median ns of `reps` publishes, each after dirtying kDirtyPerPublish
/// random objects.
double MedianPublishNs(MetaDatabase& db, int objects, int reps) {
  damocles::Rng rng(static_cast<uint64_t>(objects));
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < kDirtyPerPublish; ++i) {
      const OidId id(static_cast<uint32_t>(rng.UniformInt(0, objects - 1)));
      // A value no earlier write used: a write of the value already
      // there marks nothing.
      db.SetProperty(id, "uptodate", std::to_string(r * kDirtyPerPublish + i));
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(db.PublishSnapshot());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(
        std::chrono::duration<double, std::nano>(elapsed).count());
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
  return samples[static_cast<size_t>(reps / 2)];
}

void RunSeries(const char* name, int objects, int reps, bool gated) {
  double ns = 0.0;
  {
    MetaDatabase db;
    Populate(db, objects);
    ns = MedianPublishNs(db, objects, reps);
  }
  if (gated) {
    damocles::benchutil::AddBenchJson(name, ns, ns > 0.0 ? 1e9 / ns : 0.0);
  }
  std::printf("%-24s %10d %14.1f %16.1f%s\n", name, objects, ns,
              ns > 0.0 ? 1e9 / ns : 0.0, gated ? "" : "  (information)");
}

/// Median ns of `reps` publishes of `objects` objects with four short
/// properties each, every chunk dirtied before each publish (the write
/// is outside the timed region; the free of the version leaving the
/// retention window is inside it, as in a server).
void RunAllDirtySeries(const char* name, int objects, int reps) {
  MetaDatabase db;
  for (int i = 0; i < objects; ++i) {
    const OidId id =
        db.CreateObject(Oid{"blk" + std::to_string(i), "view_0", 1}, "bench", 0);
    db.SetProperty(id, "result_0", "good");
    db.SetProperty(id, "result_1", "good");
    db.SetProperty(id, "state", "true");
    db.SetProperty(id, "uptodate", "true");
  }
  db.PublishSnapshot();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < objects; ++i) {
      db.SetProperty(OidId(static_cast<uint32_t>(i)), "uptodate",
                     r % 2 == 0 ? "stale" : "fresh");
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(db.PublishSnapshot());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(
        std::chrono::duration<double, std::nano>(elapsed).count());
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
  const double ns = samples[static_cast<size_t>(reps / 2)];
  damocles::benchutil::AddBenchJson(name, ns, ns > 0.0 ? 1e9 / ns : 0.0);
  std::printf("%-24s %10d %14.1f %16.1f  (information)\n", name, objects, ns,
              ns > 0.0 ? 1e9 / ns : 0.0);
}

/// Median ns of `reps` publishes of `objects` objects with `properties`
/// properties each, every publish after one SetProperty on a rotating
/// object.
void RunPropsSeries(const char* name, int objects, int properties, int reps) {
  MetaDatabase db;
  for (int i = 0; i < objects; ++i) {
    const OidId id =
        db.CreateObject(Oid{"blk" + std::to_string(i), "view_0", 1}, "bench", 0);
    for (int p = 0; p < properties; ++p) {
      db.SetProperty(id, "result_" + std::to_string(p), "not yet run");
    }
  }
  db.PublishSnapshot();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    db.SetProperty(OidId(static_cast<uint32_t>((r * 7919) % objects)),
                   "result_0", std::to_string(r));
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(db.PublishSnapshot());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(
        std::chrono::duration<double, std::nano>(elapsed).count());
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
  const double ns = samples[static_cast<size_t>(reps / 2)];
  damocles::benchutil::AddBenchJson(name, ns, ns > 0.0 ? 1e9 / ns : 0.0);
  std::printf("%-24s %10d %14.1f %16.1f\n", name, objects, ns,
              ns > 0.0 ? 1e9 / ns : 0.0);
}

void BM_PublishAfterOneWrite(benchmark::State& state) {
  const int objects = static_cast<int>(state.range(0));
  MetaDatabase db;
  Populate(db, objects);
  int i = 0;
  for (auto _ : state) {
    db.SetProperty(OidId(static_cast<uint32_t>((i * 7919) % objects)),
                   "uptodate", std::to_string(i));
    ++i;
    benchmark::DoNotOptimize(db.PublishSnapshot());
  }
}
BENCHMARK(BM_PublishAfterOneWrite)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

int main(int argc, char** argv) {
  damocles::benchutil::PrintHeader(
      "Snapshot publish cost", "metadb/snapshot",
      "publish time after 16 dirty objects as the database grows: shared "
      "chunks keep it nearly flat");
  const bool smoke = damocles::benchutil::SmokeMode();
  const int reps = damocles::benchutil::SeriesScale(200, 5);
  std::printf("%-24s %10s %14s %16s\n", "series", "objects", "ns/publish",
              "publishes/sec");
  RunSeries("snapshot_publish_1k", 1 << 10, reps, true);
  RunSeries("snapshot_publish_16k", 1 << 14, reps, true);
  RunSeries("snapshot_publish_256k", 1 << 18, smoke ? reps : reps / 4, true);
  // About 1 GB at peak (live database plus the first full frozen copy):
  // full runs only.
  if (!smoke) RunSeries("snapshot_publish_1m", 1 << 20, reps / 4, false);
  RunAllDirtySeries("snapshot_publish_all_dirty_4k", 1 << 12, reps);
  RunPropsSeries("snapshot_publish_props1_4k", 1 << 12, 1, reps * 5);
  RunPropsSeries("snapshot_publish_props16_4k", 1 << 12, 16, reps * 5);
  damocles::benchutil::WriteBenchJson();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
