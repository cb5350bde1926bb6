// Measurement helpers shared by the perfbench workloads: latency
// samples, in-memory trace spans, reply checks, state fingerprints and
// the metric table the driver prints as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/project_server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Latency samples of one kind; quantiles interpolate linearly between
/// the closest ranks (as numpy's default does).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const noexcept { return values_.size(); }
  const std::vector<double>& values() const noexcept { return values_; }
  /// q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One traced layer call: name, start, end and the op that caused it.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t op = 0;
};

/// Spans of one traced run, kept in memory and written out at the end.
class SpanRecorder {
 public:
  /// Runs `fn` inside a span named `name` (a string literal) for `op`.
  template <typename Fn>
  decltype(auto) Time(const char* name, uint64_t op, Fn&& fn) {
    struct Closer {
      SpanRecorder& recorder;
      const char* name;
      uint64_t op;
      Clock::time_point start = Clock::now();
      ~Closer() { recorder.Record(name, op, start, Clock::now()); }
    } closer{*this, name, op};
    return fn();
  }

  /// Records a span timed by the caller.
  void Record(const char* name, uint64_t op, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back({name, start, end, op});
  }

  /// Durations (us) of every span called `name`.
  Samples Durations(std::string_view name) const;

  /// Writes "op name start_us end_us" rows, times relative to the first
  /// span. Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// True for the in-band failure classes every workload counts as
/// failed ops: error:, busy:, timeout:, degraded:.
bool IsFailedReply(std::string_view reply);

/// Project state a run ends in: object count, report text hash and
/// out-of-date count, read through the wire surface.
struct Fingerprint {
  size_t objects = 0;
  uint64_t report_hash = 0;
  size_t outofdate = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};
Fingerprint TakeFingerprint(damocles::engine::ProjectServer& server);

/// Milliseconds a fixed single-thread integer loop takes: printed at the
/// start and end of a run so a slow host phase shows in the report.
double HostProbeMs();

/// Process counters from getrusage.
double PeakRssMb();
uint64_t MinorFaults();

/// Filesystem type of `path` ("tmpfs", "ext4", ...).
std::string FilesystemType(const std::string& path);

/// Command-line parameters of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL dirs, trace files).
  std::string work_dir;
};

/// What a workload run hands back to main().
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check and says why on stderr.
  void Fail(const std::string& why);
};

/// Project builds per run; setup_s is their median.
constexpr int kSetupBuilds = 9;

/// Prints one "name value unit" report line to stdout.
void Note(const std::string& name, double value, const std::string& unit);

/// Prints the individual project build times of a run.
void NoteSetup(const Samples& seconds);

// Workload entry points (mux_workloads.cpp, wave_ingest.cpp).
RunResult RunDurableEdit(const RunConfig& config);
RunResult RunWaveIngest(const RunConfig& config);

}  // namespace perfbench
