// Shared helpers for the benchmark harness.
//
// Every bench regenerates one figure or quantified claim of the paper
// (the Benchmarks section of README.md lists them). Benches print
// their series as aligned text tables — the "rows the paper reports" —
// and then run google-benchmark timings where wall-clock numbers
// matter.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/project_server.hpp"
#include "workload/edtc.hpp"
#include "workload/generators.hpp"

namespace damocles::benchutil {

/// True when the DAMOCLES_BENCH_SMOKE environment variable is set (and
/// not "0"). CI uses this to exercise every bench binary with tiny
/// iteration counts so benchmarks cannot silently rot; PrintSeries
/// functions shrink their sweeps accordingly.
inline bool SmokeMode() {
  const char* env = std::getenv("DAMOCLES_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Smoke-aware series scaling: `full` normally, `smoke` under
/// DAMOCLES_BENCH_SMOKE.
inline int SeriesScale(int full, int smoke) {
  return SmokeMode() ? smoke : full;
}

// --- Machine-readable results (DAMOCLES_BENCH_JSON) -----------------------
//
// Benches that track a perf trajectory register their series here and
// call WriteBenchJson() at the end of main. When the DAMOCLES_BENCH_JSON
// environment variable names a path, the collected series are written
// there as JSON: {"series": [{"name": ..., "ns_per_op": ...,
// "deliveries_per_sec": ...}, ...]}. CI uploads the files as artifacts
// so the speedups are comparable across commits.

struct BenchJsonSeries {
  std::string name;
  double ns_per_op = 0.0;
  double deliveries_per_sec = 0.0;
};

inline std::vector<BenchJsonSeries>& BenchJsonData() {
  static std::vector<BenchJsonSeries> data;
  return data;
}

/// Registers one series result (no-op cost when the emitter is unused).
inline void AddBenchJson(std::string name, double ns_per_op,
                         double deliveries_per_sec) {
  BenchJsonData().push_back(
      BenchJsonSeries{std::move(name), ns_per_op, deliveries_per_sec});
}

/// Times `reps` calls of `fn` and registers the mean as a JSON series
/// (ns/op plus the ops/sec view). The shared helper keeps every bench's
/// trajectory methodology identical.
template <typename Fn>
inline void TimedSeries(const char* series, int reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(fn());
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    (reps > 0 ? reps : 1);
  AddBenchJson(series, ns, ns > 0.0 ? 1e9 / ns : 0.0);
}

/// Writes the registered series to $DAMOCLES_BENCH_JSON; no-op when the
/// variable is unset or empty. Call once, at the end of the bench main.
inline void WriteBenchJson() {
  const char* path = std::getenv("DAMOCLES_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write DAMOCLES_BENCH_JSON=%s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"series\": [\n");
  const std::vector<BenchJsonSeries>& data = BenchJsonData();
  for (size_t i = 0; i < data.size(); ++i) {
    // Series names are internal identifiers (no quotes/backslashes to
    // escape).
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"deliveries_per_sec\": %.1f}%s\n",
                 data[i].name.c_str(), data[i].ns_per_op,
                 data[i].deliveries_per_sec, i + 1 < data.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

/// Shared bench main body: forwards argv to google-benchmark, injecting
/// a minimal --benchmark_min_time in smoke mode (explicit flags win —
/// the injected flag comes first, later flags override it).
inline void RunBenchmarks(int argc, char** argv) {
  static char min_time[] = "--benchmark_min_time=0.001";
  std::vector<char*> args;
  args.push_back(argc > 0 ? argv[0] : min_time);
  if (SmokeMode()) args.push_back(min_time);
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int count = static_cast<int>(args.size());
  ::benchmark::Initialize(&count, args.data());
  ::benchmark::RunSpecifiedBenchmarks();
}

/// A server with the EDTC blueprint loaded.
inline std::unique_ptr<engine::ProjectServer> MakeEdtcServer() {
  auto server = std::make_unique<engine::ProjectServer>("bench");
  server->InitializeBlueprint(workload::EdtcBlueprintText());
  return server;
}

/// A server with an n-view flow blueprint and one instantiated block
/// hierarchy: `blocks` roots, each with the full view chain, plus a
/// use-link tree of the given depth/fanout under each root's view_0.
struct FlowProject {
  std::unique_ptr<engine::ProjectServer> server;
  workload::FlowSpec flow;
  std::vector<std::string> blocks;
};

inline FlowProject MakeFlowProject(int n_views, int n_blocks,
                                   int hierarchy_depth = 0,
                                   int hierarchy_fanout = 2) {
  FlowProject project;
  project.flow.n_views = n_views;
  project.server = std::make_unique<engine::ProjectServer>("bench");
  project.server->InitializeBlueprint(
      workload::MakeFlowBlueprint(project.flow, "bench"));
  for (int i = 0; i < n_blocks; ++i) {
    const std::string block = "blk" + std::to_string(i);
    workload::InstantiateFlow(*project.server, project.flow, block);
    if (hierarchy_depth > 0) {
      workload::HierarchySpec spec;
      spec.depth = hierarchy_depth;
      spec.fanout = hierarchy_fanout;
      spec.view = "view_0";
      spec.root_block = block + "_sub";
      workload::BuildHierarchy(*project.server, spec);
    }
    project.blocks.push_back(block);
  }
  return project;
}

/// Prints the standard bench header naming the experiment.
inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* what) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s  (%s)\n%s\n", experiment, paper_ref, what);
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace damocles::benchutil
