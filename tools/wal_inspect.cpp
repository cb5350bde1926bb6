// wal-inspect: dump a WAL directory's segment headers, record counts,
// CRC verification results and truncation points.
//
//   wal_inspect [--json] <wal-dir>
//
// Prints the same report FormatWalInspection produces for the unit
// tests, followed by the checkpoint-manifest report (one line per
// manifest — kind, delta base, op-seq, db payload size — plus the
// base→tip chain recovery would load); --json switches to the
// machine-readable single-object form (FormatWalInspectionJson:
// segment headers, record counts and the torn-tail offset per stream).
// Exits 0 when every stream scans clean, 1 when any stream is torn
// (its report line shows where the intact prefix ends), 2 on usage
// errors.
//
// Row streams ("shard<K>") end at the newest checkpoint's offsets: the
// server writes journal rows only when it takes a checkpoint, so rows
// recorded after it are not on disk yet (recovery re-derives them from
// "ops"). A WAL from an older build may carry rows past those offsets;
// recovery ignores them.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "events/wal.hpp"
#include "metadb/recovery.hpp"

int main(int argc, char** argv) {
  bool json = false;
  const char* dir_arg = nullptr;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (dir_arg == nullptr) {
      dir_arg = argv[i];
    } else {
      usage_error = true;  // Too many positionals.
    }
  }
  if (dir_arg == nullptr || usage_error) {
    std::fprintf(stderr, "usage: wal_inspect [--json] <wal-dir>\n");
    return 2;
  }
  const std::string dir = dir_arg;
  try {
    bool any_torn = false;
    std::string report =
        json ? damocles::events::FormatWalInspectionJson(dir, &any_torn)
             : damocles::events::FormatWalInspection(dir, &any_torn);
    if (!json) {
      report += damocles::metadb::FormatWalCheckpointChains(dir);
    }
    std::fputs(report.c_str(), stdout);
    if (any_torn) return 1;  // CRC failure: report shows the torn offset.
  } catch (const damocles::Error& error) {
    std::fprintf(stderr, "wal_inspect: %s\n", error.what());
    return 2;
  }
  return 0;
}
