// Claim C4 — "light weight configuration objects" (paper §2).
//
// A Configuration is a set of database addresses (handles), not a copy
// of the data. We compare snapshotting a project as a configuration vs
// deep-copying the referenced meta-data (what a tracking system without
// address-based configurations would store), in both time and bytes.
// Snapshot latency at 64 blocks feeds the DAMOCLES_BENCH_JSON
// trajectory (config_snapshot_b64 / config_deepcopy_b64).
#include "bench_util.hpp"

#include "metadb/config_builder.hpp"

namespace {

using namespace damocles;

/// What a deep-copy snapshot would have to materialize.
struct DeepCopySnapshot {
  std::vector<metadb::MetaObject> objects;
  std::vector<metadb::Link> links;
};

DeepCopySnapshot DeepCopy(const metadb::MetaDatabase& db) {
  DeepCopySnapshot snapshot;
  db.ForEachObject([&](metadb::OidId, const metadb::MetaObject& object) {
    snapshot.objects.push_back(object);
  });
  db.ForEachLink([&](metadb::LinkId, const metadb::Link& link) {
    snapshot.links.push_back(link);
  });
  return snapshot;
}

size_t ApproxBytes(const DeepCopySnapshot& snapshot) {
  size_t bytes = 0;
  for (const auto& object : snapshot.objects) {
    bytes += sizeof(object);
    for (const auto& property : object.properties) {
      bytes += sizeof(property) + property.value.size();
    }
  }
  for (const auto& link : snapshot.links) {
    bytes += sizeof(link) + link.type.size();
    for (const auto& event : link.propagates) bytes += event.size();
  }
  return bytes;
}

size_t ApproxBytes(const metadb::Configuration& config) {
  return sizeof(config) + config.name.size() + config.built_from.size() +
         config.oids.size() * sizeof(metadb::OidId) +
         config.links.size() * sizeof(metadb::LinkId);
}

void BM_ConfigurationSnapshot(benchmark::State& state) {
  auto project = benchutil::MakeFlowProject(5, static_cast<int>(state.range(0)),
                                            2, 3);
  const auto& db = project.server->database();
  for (auto _ : state) {
    benchmark::DoNotOptimize(metadb::BuildFullCheckpoint(db, "snap", 0));
  }
  state.counters["objects"] = static_cast<double>(db.Stats().live_objects);
}
BENCHMARK(BM_ConfigurationSnapshot)->Arg(4)->Arg(16)->Arg(64);

void BM_DeepCopySnapshot(benchmark::State& state) {
  auto project = benchutil::MakeFlowProject(5, static_cast<int>(state.range(0)),
                                            2, 3);
  const auto& db = project.server->database();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeepCopy(db));
  }
  state.counters["objects"] = static_cast<double>(db.Stats().live_objects);
}
BENCHMARK(BM_DeepCopySnapshot)->Arg(4)->Arg(16)->Arg(64);

void PrintSeries() {
  benchutil::PrintHeader(
      "Claim C4: light-weight configuration objects", "paper section 2",
      "Snapshot of the whole design state: configuration (set of database "
      "addresses) vs deep copy.");

  std::printf("%-10s %-10s %-20s %-20s %-10s\n", "blocks", "objects",
              "config bytes", "deep-copy bytes", "ratio");
  for (const int blocks : {4, 16, 64, 256}) {
    auto project = benchutil::MakeFlowProject(5, blocks, 2, 3);
    const auto& db = project.server->database();
    const auto config = metadb::BuildFullCheckpoint(db, "snap", 0);
    const auto deep = DeepCopy(db);
    const size_t config_bytes = ApproxBytes(config);
    const size_t deep_bytes = ApproxBytes(deep);
    std::printf("%-10d %-10zu %-20zu %-20zu %-10.1f\n", blocks,
                db.Stats().live_objects, config_bytes, deep_bytes,
                static_cast<double>(deep_bytes) /
                    static_cast<double>(config_bytes ? config_bytes : 1));
  }
  std::printf(
      "\nExpected shape (paper): configurations stay a constant factor of "
      "8-16 bytes per address;\nthe deep copy scales with property payload "
      "and is an order of magnitude heavier.\n\n");

  // Trajectory series: snapshot latency on the largest printed project.
  const int blocks = benchutil::SeriesScale(64, 4);
  const int reps = benchutil::SeriesScale(20, 2);
  auto project = benchutil::MakeFlowProject(5, blocks, 2, 3);
  const auto& db = project.server->database();
  benchutil::TimedSeries("config_snapshot_b64", reps, [&] {
    return metadb::BuildFullCheckpoint(db, "snap", 0);
  });
  benchutil::TimedSeries("config_deepcopy_b64", reps,
                         [&] { return DeepCopy(db); });
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  damocles::benchutil::WriteBenchJson();
  return 0;
}
