// perfbench: end-to-end and per-layer benchmark of the tracking server.
//
//   perfbench --workload <wave_ingest|durable_edit> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the environment, a human-readable report, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// See README.md next to this file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "measure.hpp"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload <wave_ingest|durable_edit> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n";
  return 2;
}

void PrintEnvironment(const perfbench::RunConfig& config) {
  std::printf("perfbench %s seed %llu seconds %d trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("  nproc %u, compiler %s, build %s, failpoints %s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE,
#ifdef DAMOCLES_FAILPOINTS_ENABLED
              "on"
#else
              "off"
#endif
  );
  std::printf("  wal dir filesystem %s, fsync none (durable_edit)\n",
              perfbench::FilesystemType(config.work_dir).c_str());
}

void PrintJson(const perfbench::RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& metric : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                metric.name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || config.seconds > 3600) return Usage();
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.work_dir.empty() || config.seconds < 1) {
    return Usage();
  }
  std::filesystem::create_directories(config.work_dir);
  PrintEnvironment(config);
  perfbench::Note("host_probe_start_ms", perfbench::HostProbeMs(), "ms");

  perfbench::RunResult result;
  try {
    if (config.workload == "wave_ingest") {
      result = perfbench::RunWaveIngest(config);
    } else if (config.workload == "durable_edit") {
      result = perfbench::RunDurableEdit(config);
    } else {
      return Usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  perfbench::Note("host_probe_end_ms", perfbench::HostProbeMs(), "ms");
  std::fflush(stdout);
  PrintJson(result);
  return 0;
}
