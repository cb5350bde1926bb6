#include "measure.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "engine/wire_session.hpp"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Samples SpanRecorder::Durations(std::string_view name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (name == span.name) out.Add(UsBetween(span.start, span.end));
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "op\tname\tstart_us\tend_us\n";
  if (spans_.empty()) return static_cast<bool>(out);
  Clock::time_point origin = spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  char row[160];
  for (const Span& span : spans_) {
    std::snprintf(row, sizeof(row), "%llu\t%s\t%.3f\t%.3f\n",
                  static_cast<unsigned long long>(span.op), span.name,
                  UsBetween(origin, span.start), UsBetween(origin, span.end));
    out << row;
  }
  return static_cast<bool>(out);
}

bool IsFailedReply(std::string_view reply) {
  for (std::string_view prefix : {"error:", "busy:", "timeout:", "degraded:"}) {
    if (reply.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

std::string Fingerprint::ToString() const {
  char text[96];
  std::snprintf(text, sizeof(text), "objects=%zu report=%016llx outofdate=%zu",
                objects, static_cast<unsigned long long>(report_hash),
                outofdate);
  return text;
}

Fingerprint TakeFingerprint(damocles::engine::ProjectServer& server) {
  // Live reads: the fingerprint is taken at a quiescent point.
  damocles::engine::WireSession session(server, "fingerprint");
  Fingerprint fp;
  fp.objects = server.database().Stats().live_objects;
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : session.HandleLine("report")) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  fp.report_hash = hash;
  fp.outofdate = std::stoul(session.HandleLine("query outofdate"));
  return fp;
}

double HostProbeMs() {
  const Clock::time_point start = Clock::now();
  volatile uint64_t sink = 0;  // keeps the loop from being folded away
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  static_cast<void>(sink);
  return UsBetween(start, Clock::now()) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Note(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-32s %14.3f %s\n", name.c_str(), value, unit.c_str());
}

void NoteSetup(const Samples& seconds) {
  std::printf("  setup builds (s):");
  for (const double s : seconds.values()) std::printf(" %.4f", s);
  std::printf("\n");
}

}  // namespace perfbench
