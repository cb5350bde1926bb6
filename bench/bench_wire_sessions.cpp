// Multi-session wire throughput over the session mux.
//
// The paper's tracking system serves a whole design team concurrently;
// this bench quantifies what the epoch-versioned snapshot read path
// buys: N threaded WireSessions issue a mixed 90/10 read/write stream
// through a SessionMux — reads run lock-free on pinned published
// snapshots, writes are serialized through the bounded mutation queue
// (and, in the sharded configurations, the sharded intake rings).
// Multi-session read throughput exceeding the single-session baseline
// is the claim CI's Release guard checks. A last series prices one
// designer's write ack: a single session issuing 9 reads then 1 write.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/session_mux.hpp"

namespace {

using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;
using damocles::engine::SessionMux;

struct MuxRunResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t busy = 0;
  double seconds = 0.0;
};

/// Runs `sessions` threads of 90% reads / 10% writes against one mux.
MuxRunResult RunMixedSessions(ProjectServer& server, int sessions,
                              int ops_per_session, int n_blocks) {
  SessionMux mux(server);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> busy{0};
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = mux.Connect("designer" + std::to_string(s));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t my_reads = 0;
      uint64_t my_writes = 0;
      uint64_t my_busy = 0;
      for (int i = 0; i < ops_per_session; ++i) {
        const int block = (s * 7919 + i) % n_blocks;
        if (i % 10 == 9) {
          const std::string line = "postEvent ckin up blk" +
                                   std::to_string(block) + ",view_0,1";
          std::string response = session->Execute(line);
          while (response.rfind("busy:", 0) == 0) {
            ++my_busy;
            std::this_thread::yield();
            response = session->Execute(line);
          }
          ++my_writes;
        } else if (i % 10 == 4) {
          benchmark::DoNotOptimize(session->Execute("query outofdate"));
          ++my_reads;
        } else {
          benchmark::DoNotOptimize(session->Execute(
              "query block blk" + std::to_string(block)));
          ++my_reads;
        }
      }
      reads.fetch_add(my_reads);
      writes.fetch_add(my_writes);
      busy.fetch_add(my_busy);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  MuxRunResult result;
  result.reads = reads.load();
  result.writes = writes.load();
  result.busy = busy.load();
  result.seconds = std::chrono::duration<double>(elapsed).count();
  return result;
}

/// A server with `n_blocks` four-view flows instantiated.
std::unique_ptr<ProjectServer> MakeFlowServer(uint32_t shards, int n_blocks) {
  ServerOptions options;
  options.num_shards = shards;
  auto server = std::make_unique<ProjectServer>("bench", options);
  damocles::workload::FlowSpec flow;
  flow.n_views = 4;
  server->InitializeBlueprint(
      damocles::workload::MakeFlowBlueprint(flow, "bench"));
  for (int i = 0; i < n_blocks; ++i) {
    damocles::workload::InstantiateFlow(*server, flow,
                                        "blk" + std::to_string(i));
  }
  return server;
}

void PrintSessionSeries() {
  damocles::benchutil::PrintHeader(
      "Multiplexed wire sessions", "paper §1: designers query while waves run",
      "sessions x shards, mixed 90/10 read/write; reads pin published "
      "snapshots");

  const int n_blocks = damocles::benchutil::SeriesScale(16, 4);
  const int ops = damocles::benchutil::SeriesScale(4000, 120);
  const struct {
    int sessions;
    uint32_t shards;
  } combos[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1}, {4, 4}, {8, 4}};

  std::printf("%-10s %-8s %-12s %-16s %-14s %-8s\n", "sessions", "shards",
              "reads", "reads/sec", "ns/read", "busy");

  for (const auto& combo : combos) {
    const auto server = MakeFlowServer(combo.shards, n_blocks);
    const MuxRunResult run =
        RunMixedSessions(*server, combo.sessions, ops, n_blocks);
    const double reads_per_sec =
        run.seconds > 0.0 ? static_cast<double>(run.reads) / run.seconds : 0.0;
    const double ns_per_read =
        run.reads > 0 ? run.seconds * 1e9 / static_cast<double>(run.reads)
                      : 0.0;
    damocles::benchutil::AddBenchJson(
        "wire_sessions_s" + std::to_string(combo.sessions) + "_sh" +
            std::to_string(combo.shards),
        ns_per_read, reads_per_sec);
    std::printf("%-10d %-8u %-12llu %-16.0f %-14.0f %-8llu\n", combo.sessions,
                combo.shards, static_cast<unsigned long long>(run.reads),
                reads_per_sec, ns_per_read,
                static_cast<unsigned long long>(run.busy));
  }
  std::printf(
      "\nExpected shape: snapshot reads are lock-free, so aggregate "
      "reads/sec should scale\npast the single-session baseline instead of "
      "serializing behind the writer.\n\n");
}

/// One session on one shard, 9 reads then 1 write per round: the write's
/// ack latency is the mux handoff plus the apply path. ns_per_op is the
/// ack p50; the p99 is printed.
void PrintAckSeries() {
  const int n_blocks = damocles::benchutil::SeriesScale(16, 4);
  const int rounds = damocles::benchutil::SeriesScale(4000, 100);
  const auto server = MakeFlowServer(1, n_blocks);
  SessionMux mux(*server);
  auto session = mux.Connect("designer0");
  std::vector<double> acks_ns;
  acks_ns.reserve(rounds);
  for (int r = 0; r < rounds; ++r) {
    const std::string block = "blk" + std::to_string(r % n_blocks);
    for (int i = 0; i < 9; ++i) {
      benchmark::DoNotOptimize(session->Execute("query block " + block));
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        session->Execute("postEvent ckin up " + block + ",view_0,1"));
    acks_ns.push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(acks_ns.begin(), acks_ns.end());
  const double p50 = acks_ns[acks_ns.size() / 2];
  const double p99 = acks_ns[acks_ns.size() * 99 / 100];
  damocles::benchutil::AddBenchJson("wire_sessions_ack_s1_sh1", p50,
                                    p50 > 0.0 ? 1e9 / p50 : 0.0);
  std::printf("%-26s %-12s %-12s %-12s %-12s\n", "series", "writes",
              "ack p50 ns", "ack p99 ns", "apply parks");
  std::printf("%-26s %-12d %-12.0f %-12.0f %-12llu\n\n",
              "wire_sessions_ack_s1_sh1", rounds, p50, p99,
              static_cast<unsigned long long>(mux.apply_parks()));
}

/// google-benchmark view of the single-session read dispatch cost.
void BM_SnapshotReadDispatch(benchmark::State& state) {
  ProjectServer server("bench");
  damocles::workload::FlowSpec flow;
  flow.n_views = 4;
  server.InitializeBlueprint(
      damocles::workload::MakeFlowBlueprint(flow, "bench"));
  damocles::workload::InstantiateFlow(server, flow, "blk0");
  server.database().PublishSnapshot();
  damocles::engine::WireSession session(server, "bench");
  session.set_snapshot_reads(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.HandleLine("query block blk0"));
  }
}
BENCHMARK(BM_SnapshotReadDispatch);

}  // namespace

int main(int argc, char** argv) {
  PrintSessionSeries();
  PrintAckSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  damocles::benchutil::WriteBenchJson();
  return 0;
}
