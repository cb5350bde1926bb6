// durable_edit: a design team on SessionMux sessions over a durable
// server.
//
// Each designer owns a disjoint set of flow blocks and runs a seeded
// closed-loop script of point reads, block scans, golden-view
// check-ins and result events (every event flips the result it
// targets, so every write mutates and publishes). A watcher session
// polls the snapshot epoch to time commit-to-visible. Because the
// block sets are disjoint, the final state does not depend on how the
// sessions interleave, so the replay (the same scripts applied without
// the mux, layer by layer) must end in the same fingerprint.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "engine/session_mux.hpp"
#include "measure.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;
using damocles::engine::SessionMux;
using damocles::engine::WireSession;

constexpr const char* kName = "durable_edit";
constexpr int kViews = 5;
constexpr int kBlocks = 800;     ///< Flow instances of kViews objects each.
constexpr int kDesigners = 2;    ///< Sessions issuing the scripted ops.
constexpr double kWriteShare = 0.10;  ///< Of a designer's ops.
/// Of writes (the rest are result events). Keeps a 20-second run's
/// check-ins near a seventh of the project: each adds a version.
constexpr double kCheckinShare = 0.15;
constexpr double kScanShare = 0.05;  ///< Of reads (the rest are point reads).
constexpr int kWarmupOps = 1500;     ///< Per designer, excluded from metrics.
constexpr int kOpsPerSecond = 900;   ///< Per designer; --seconds to op count.

// End phase: writes between the explicit full and delta
// checkpoints, then the fixed tail that recovery replays.
constexpr int kDeltaWrites = 100;
constexpr int kTailWrites = 200;
constexpr const char* kDeltaCheckpoint = "wal-checkpoint delta";

/// How often the watcher session polls the epoch.
constexpr std::chrono::microseconds kWatchInterval{200};

enum class OpKind { kCheckin, kEvent, kPoint, kScan, kCheckpoint };

bool IsWrite(OpKind kind) {
  return kind != OpKind::kPoint && kind != OpKind::kScan;
}

struct Op {
  OpKind kind;
  std::string line;
  /// Writes: the exact reply (checkpoints: its prefix). Reads: text the
  /// reply must contain.
  std::string expect;
};

std::string BlockName(int block) { return "blk" + std::to_string(block); }

/// Seeded op script of one designer. Tracks the versions and result
/// values its own writes produce, so every reply has a known answer.
class ScriptWriter {
 public:
  ScriptWriter(uint64_t seed, int designer)
      : rng_(seed * 1000003ULL + static_cast<uint64_t>(designer)) {
    for (int b = designer; b < kBlocks; b += kDesigners) {
      owned_.push_back(b);
    }
    version_.assign(static_cast<size_t>(kBlocks), 1);
    good_.assign(static_cast<size_t>(kBlocks * kViews), false);
  }

  Op Next(bool write_only = false) {
    const int block = owned_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(owned_.size()) - 1))];
    const std::string name = BlockName(block);
    int& version = version_[static_cast<size_t>(block)];
    if (write_only || rng_.Chance(kWriteShare)) {
      if (rng_.Chance(kCheckinShare)) {
        ++version;
        ++checkins_;
        return {OpKind::kCheckin,
                "checkin " + name + " view_0 \"edit " +
                    std::to_string(checkins_) + "\"",
                "ok " + name + ",view_0," + std::to_string(version) + "\n"};
      }
      const int view = static_cast<int>(rng_.UniformInt(1, kViews - 1));
      const size_t slot = static_cast<size_t>(block * kViews + view);
      good_[slot] = !good_[slot];
      return {OpKind::kEvent,
              "postEvent res0 up " + name + ",view_" + std::to_string(view) +
                  ",1 " + (good_[slot] ? "good" : "bad"),
              "ok\n"};
    }
    if (rng_.Chance(kScanShare)) {
      return {OpKind::kScan, "query block " + name,
              std::to_string(kViews - 1 + version) + " object(s)\n"};
    }
    const int view = static_cast<int>(rng_.UniformInt(0, kViews - 1));
    if (view == 0) {
      return {OpKind::kPoint,
              "query state " + name + ",view_0," + std::to_string(version),
              "  uptodate = 'true'\n"};
    }
    const bool good = good_[static_cast<size_t>(block * kViews + view)];
    return {OpKind::kPoint,
            "query state " + name + ",view_" + std::to_string(view) + ",1",
            std::string("  result_0 = '") + (good ? "good" : "bad") + "'\n"};
  }

  int checkins() const { return checkins_; }

 private:
  damocles::Rng rng_;
  std::vector<int> owned_;
  std::vector<int> version_;
  std::vector<bool> good_;
  int checkins_ = 0;
};

struct Script {
  std::string user;
  std::vector<Op> warmup;
  std::vector<Op> measured;
};

/// Every designer's script plus the end phase.
struct Plan {
  std::vector<Script> scripts;
  /// Designer 0's full checkpoint, writes, delta checkpoint and tail
  /// writes.
  std::vector<Op> end_phase;
  size_t expected_objects = 0;
};

Plan MakePlan(const RunConfig& config) {
  Plan plan;
  const int measured = kOpsPerSecond * config.seconds;
  int checkins = 0;
  for (int d = 0; d < kDesigners; ++d) {
    ScriptWriter writer(config.seed, d);
    Script script;
    script.user = "designer" + std::to_string(d);
    for (int i = 0; i < kWarmupOps; ++i) {
      script.warmup.push_back(writer.Next());
    }
    for (int i = 0; i < measured; ++i) script.measured.push_back(writer.Next());
    if (d == 0) {
      plan.end_phase.push_back(
          {OpKind::kCheckpoint, "wal-checkpoint full", "ok checkpoint "});
      for (int i = 0; i < kDeltaWrites; ++i) {
        plan.end_phase.push_back(writer.Next(/*write_only=*/true));
      }
      plan.end_phase.push_back(
          {OpKind::kCheckpoint, kDeltaCheckpoint, "ok checkpoint "});
      for (int i = 0; i < kTailWrites; ++i) {
        plan.end_phase.push_back(writer.Next(/*write_only=*/true));
      }
    }
    checkins += writer.checkins();
    plan.scripts.push_back(std::move(script));
  }
  plan.expected_objects = static_cast<size_t>(kBlocks * kViews + checkins);
  return plan;
}

ServerOptions MakeOptions(const RunConfig& config, const std::string& tag,
                          bool auto_drain) {
  ServerOptions options;
  options.auto_drain = auto_drain;
  options.wal_dir = config.work_dir + "/wal-" + kName + "-" + tag;
  // Buffered appends: the benchmark may write only inside its checkout,
  // which is on a disk, and per-drain fsyncs there would measure the
  // host's disk rather than the server.
  options.wal_fsync = damocles::events::FsyncPolicy::kNone;
  options.wal_segment_bytes = 64u << 10;
  // A checkpoint cut fsyncs every stream on the applying thread; at one
  // per 400 ops, setup_s measured the shared disk more than the server.
  options.checkpoint_every_ops = 2000;
  options.background_checkpoints = true;
  options.wal_retain_segments = 1;
  return options;
}

/// Builds the flow project with a Drain after every check-in and link,
/// so batch-mode (auto_drain=false) and interactive servers end in the
/// same state.
std::unique_ptr<ProjectServer> BuildProject(const ServerOptions& options) {
  auto server = std::make_unique<ProjectServer>(kName, options);
  damocles::workload::FlowSpec flow;
  flow.n_views = kViews;
  server->InitializeBlueprint(
      damocles::workload::MakeFlowBlueprint(flow, "perfbench"));
  const std::vector<std::string> views =
      damocles::workload::FlowViewNames(flow);
  for (int b = 0; b < kBlocks; ++b) {
    const std::string block = BlockName(b);
    damocles::metadb::Oid previous;
    for (int v = 0; v < kViews; ++v) {
      const damocles::metadb::Oid oid = server->CheckIn(
          block, views[static_cast<size_t>(v)], "seed data", "builder");
      server->Drain();
      if (v > 0) {
        server->RegisterLink(damocles::metadb::LinkKind::kDerive, previous,
                             oid);
        server->Drain();
      }
      previous = oid;
    }
  }
  return server;
}

/// Destroys `server` (and its WAL directory) and builds a fresh one.
void Rebuild(const ServerOptions& options,
             std::unique_ptr<ProjectServer>& server, Samples* seconds) {
  server.reset();
  std::filesystem::remove_all(options.wal_dir);
  const Clock::time_point start = Clock::now();
  server = BuildProject(options);
  if (seconds != nullptr) seconds->Add(UsBetween(start, Clock::now()) / 1e6);
}

/// Per-kind latencies (us).
struct Latencies {
  Samples write, checkin, event, point, scan;

  void Add(OpKind kind, double us) {
    switch (kind) {
      case OpKind::kCheckin: checkin.Add(us); write.Add(us); break;
      case OpKind::kEvent: event.Add(us); write.Add(us); break;
      case OpKind::kPoint: point.Add(us); break;
      case OpKind::kScan: scan.Add(us); break;
      case OpKind::kCheckpoint: break;
    }
  }
  void Merge(const Latencies& other) {
    write.Merge(other.write);
    checkin.Merge(other.checkin);
    event.Merge(other.event);
    point.Merge(other.point);
    scan.Merge(other.scan);
  }
};

/// Counts ops, failed replies and wrong answers.
struct ReplyTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_wrong;

  void Check(const Op& op, const std::string& reply) {
    ++attempted;
    if (IsFailedReply(reply)) ++failed;
    const bool ok = op.kind == OpKind::kCheckpoint ? reply.rfind(op.expect, 0) == 0
                    : IsWrite(op.kind)            ? reply == op.expect
                    : reply.find(op.expect) != std::string::npos;
    if (!ok && wrong++ == 0) {
      first_wrong = "'" + op.line + "' answered '" + reply.substr(0, 160) +
                    "', expected '" + op.expect + "'";
    }
  }
  void Merge(const ReplyTally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (wrong == 0) first_wrong = other.first_wrong;
    wrong += other.wrong;
  }
  void Report(const char* run, RunResult& result) const {
    result.attempted += attempted;
    result.failed += failed;
    if (wrong > 0) {
      result.Fail(std::string(run) + ": " + std::to_string(wrong) +
                  " wrong replies, first " + first_wrong);
    }
  }
};

/// The restart: destroys the server, times its recovery from
/// the WAL directory and checks the recovered state.
double RestartAndCheck(const ServerOptions& options,
                       std::unique_ptr<ProjectServer>& server,
                       const Fingerprint& before, size_t* replayed_ops,
                       RunResult& result) {
  server.reset();
  const Clock::time_point start = Clock::now();
  server = std::make_unique<ProjectServer>(kName, options);
  const double seconds = UsBetween(start, Clock::now()) / 1e6;
  *replayed_ops = server->GetWalStatus().replayed_ops;
  const Fingerprint after = TakeFingerprint(*server);
  if (!(after == before)) {
    result.Fail("recovered state " + after.ToString() +
                " differs from the state before restart " + before.ToString());
  }
  return seconds;
}

// --- The mux run ------------------------------------------------------------

struct MuxRun {
  Latencies latency;
  Samples visible;
  ReplyTally tally;
  uint64_t busy_rejections = 0;
  double checkpoint_delta_us = 0.0;
  double recovery_s = 0.0;
  size_t replayed_ops = 0;
  Fingerprint fingerprint;  ///< Before any restart.
};

struct EpochSeen {
  uint64_t epoch;
  Clock::time_point at;
};

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Thread ids of this process.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    ids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Moves thread `tid` onto `cpu` alone.
void PinThread(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof(one), &one);
}

/// Ops [begin, end) of each designer's script `phase`.
struct Segment {
  std::vector<Op> Script::*phase;
  size_t begin;
  size_t end;
};

/// What the segments of one mux run collect.
struct SegmentLog {
  std::vector<Latencies> latency;
  std::vector<std::vector<Clock::time_point>> submits;  ///< Measured writes.
  std::vector<EpochSeen> seen;  ///< Epochs in the order the watcher saw them.
};

/// Runs one segment of every designer's script, plus a watcher session.
/// With `measure`, latencies and write submit times go into `log`;
/// replies are always checked.
void RunSegment(SessionMux& mux, const Plan& plan, const Segment& segment,
                bool measure, SegmentLog& log, MuxRun& run, RunResult& result) {
  const size_t designers = plan.scripts.size();
  std::vector<ReplyTally> tallies(designers);
  std::atomic<bool> stop{false};
  std::atomic<bool> watcher_failed{false};

  // The watcher polls every kWatchInterval rather than spinning, so it
  // does not take a core from the apply thread. Its first read after
  // `stop` sees the final epoch: every write was acked, hence
  // published, before `stop` was set.
  std::thread watcher([&] {
    auto session = mux.Connect("watcher");
    bool final_read = false;
    while (!final_read) {
      std::this_thread::sleep_for(kWatchInterval);
      final_read = stop.load(std::memory_order_acquire);
      const std::string reply = session->Execute("epoch");
      const Clock::time_point now = Clock::now();
      if (reply.rfind("epoch ", 0) != 0) {
        watcher_failed.store(true);
        continue;
      }
      const uint64_t epoch = std::strtoull(reply.c_str() + 6, nullptr, 10);
      if (log.seen.empty() || epoch > log.seen.back().epoch) {
        log.seen.push_back({epoch, now});
      }
    }
  });

  std::vector<std::thread> threads;
  for (size_t d = 0; d < designers; ++d) {
    threads.emplace_back([&, d] {
      const std::vector<Op>& ops = plan.scripts[d].*segment.phase;
      auto session = mux.Connect(plan.scripts[d].user);
      for (size_t i = segment.begin; i < std::min(segment.end, ops.size()); ++i) {
        const Clock::time_point start = Clock::now();
        const std::string reply = session->Execute(ops[i].line);
        if (measure) {
          log.latency[d].Add(ops[i].kind, UsBetween(start, Clock::now()));
          if (IsWrite(ops[i].kind)) log.submits[d].push_back(start);
        }
        tallies[d].Check(ops[i], reply);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  watcher.join();
  if (watcher_failed.load()) result.Fail("watcher got a malformed epoch reply");
  for (const ReplyTally& tally : tallies) run.tally.Merge(tally);
}

/// The interactive run: warm-up, the measured phase in segments, then
/// the end phase and a restart. Between measured segments the mux's
/// apply thread is pinned to the next CPU in turn, so every run samples
/// every CPU equally: left to the scheduler, the one apply thread stayed
/// on whichever vCPU it started on, and a noisy neighbour on that vCPU
/// moved a whole run's write latency by 40-70%.
MuxRun RunMux(const Plan& plan, const ServerOptions& options,
              std::unique_ptr<ProjectServer>& server, RunResult& result) {
  MuxRun run;
  const size_t designers = plan.scripts.size();
  SegmentLog log;
  log.latency.resize(designers);
  log.submits.resize(designers);

  // The apply thread is the one thread the mux constructor starts.
  const std::vector<pid_t> before = ThreadIds();
  auto mux = std::make_unique<SessionMux>(*server);
  std::vector<pid_t> started;
  const std::vector<pid_t> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(started));
  const pid_t apply_tid = started.size() == 1 ? started[0] : 0;

  RunSegment(*mux, plan, {&Script::warmup, 0, plan.scripts[0].warmup.size()},
             false, log, run, result);
  const std::vector<int> cpus = AllowedCpus();
  const size_t segments = std::max<size_t>(1, 2 * cpus.size());
  const size_t measured = plan.scripts[0].measured.size();
  std::printf("  apply thread %s over %zu segments on %zu CPUs\n",
              apply_tid != 0 ? "rotated" : "NOT pinned", segments, cpus.size());
  for (size_t k = 0; k < segments; ++k) {
    if (apply_tid != 0 && !cpus.empty()) {
      PinThread(apply_tid, cpus[k % cpus.size()]);
    }
    RunSegment(*mux, plan,
               {&Script::measured, k * measured / segments,
                (k + 1) * measured / segments},
               true, log, run, result);
  }

  // Commit-to-visible: a designer's k-th log entry is its k-th write,
  // and its epoch_after is the first epoch that includes it.
  const std::vector<damocles::engine::MuxLogEntry> entries = mux->MutationLog();
  for (size_t d = 0; d < designers; ++d) {
    const Script& script = plan.scripts[d];
    const size_t warm_writes = static_cast<size_t>(
        std::count_if(script.warmup.begin(), script.warmup.end(),
                      [](const Op& op) { return IsWrite(op.kind); }));
    size_t k = 0;
    for (const auto& entry : entries) {
      if (entry.user != script.user) continue;
      if (k >= warm_writes && k - warm_writes < log.submits[d].size()) {
        const auto it = std::lower_bound(
            log.seen.begin(), log.seen.end(), entry.epoch_after,
            [](const EpochSeen& s, uint64_t e) { return s.epoch < e; });
        if (it == log.seen.end()) {
          result.Fail("watcher never saw epoch " +
                      std::to_string(entry.epoch_after));
          break;
        }
        run.visible.Add(UsBetween(log.submits[d][k - warm_writes], it->at));
      }
      ++k;
    }
    run.latency.Merge(log.latency[d]);
  }
  run.busy_rejections = mux->busy_rejections();

  auto session = mux->Connect(plan.scripts[0].user);
  for (const Op& op : plan.end_phase) {
    const Clock::time_point start = Clock::now();
    run.tally.Check(op, session->Execute(op.line));
    if (op.line == kDeltaCheckpoint) {
      run.checkpoint_delta_us = UsBetween(start, Clock::now());
    }
  }
  session.reset();
  mux.reset();
  run.fingerprint = TakeFingerprint(*server);
  run.recovery_s = RestartAndCheck(options, server, run.fingerprint,
                                   &run.replayed_ops, result);
  return run;
}

// --- The traced replay ----------------------------------------------------------

struct Replay {
  SpanRecorder spans;
  ReplyTally tally;
  Fingerprint fingerprint;
  damocles::engine::EngineStats engine;  ///< Measured-phase delta.
  uint64_t writes = 0;  ///< Measured phase.
  uint64_t epochs = 0;
  uint64_t minor_faults = 0;
  uint64_t wal_op_bytes = 0;
  size_t objects_end = 0;
  uint64_t segments_pruned = 0;
  uint64_t checkpoints = 0;
  size_t replayed_ops = 0;
};

damocles::engine::EngineStats Delta(damocles::engine::EngineStats after,
                                    const damocles::engine::EngineStats& before) {
  after.external_events -= before.external_events;
  after.wave_deliveries -= before.wave_deliveries;
  after.waves_started -= before.waves_started;
  after.rule_table_hits -= before.rule_table_hits;
  return after;
}

/// Applies every script without the mux, in SessionMux::ApplyLoop's
/// order per write (wire handler, Drain, PublishSnapshot) on a server
/// with auto_drain=false. Designers take turns op by op; their block
/// sets are disjoint, so the order does not change the final state.
/// In the measured phase every read is a span; writes alternate between
/// traced ("apply" with a span per layer call) and untraced
/// ("apply.plain", the outer span only), so the two halves give the
/// tracing overhead without a run-order bias.
Replay RunReplay(const Plan& plan, const RunConfig& config,
                 RunResult& result) {
  Replay replay;
  const ServerOptions options = MakeOptions(config, "traced", false);
  std::unique_ptr<ProjectServer> server;
  Rebuild(options, server, nullptr);
  server->database().PublishSnapshot();

  std::vector<std::unique_ptr<WireSession>> writers;
  std::vector<std::unique_ptr<WireSession>> readers;
  for (const Script& script : plan.scripts) {
    writers.push_back(std::make_unique<WireSession>(*server, script.user));
    readers.push_back(std::make_unique<WireSession>(*server, script.user));
    readers.back()->set_snapshot_reads(true);
  }

  uint64_t op_id = 0;
  SpanRecorder* spans = nullptr;
  const auto apply = [&](size_t d, const Op& op) {
    ++op_id;
    if (!IsWrite(op.kind)) {
      const char* name = op.kind == OpKind::kScan ? "query.scan" : "query.point";
      return spans != nullptr ? spans->Time(name, op_id,
                                            [&] { return readers[d]->HandleLine(op.line); })
                              : readers[d]->HandleLine(op.line);
    }
    const auto untraced = [&] {
      std::string reply = writers[d]->HandleLine(op.line);
      server->Drain();
      server->database().PublishSnapshot();
      return reply;
    };
    if (spans == nullptr) return untraced();
    if (replay.writes++ % 2 == 1) {
      return spans->Time("apply.plain", op_id, untraced);
    }
    return spans->Time("apply", op_id, [&] {
      std::string reply = spans->Time(
          op.kind == OpKind::kCheckin ? "server.checkin" : "server.event",
          op_id, [&] { return writers[d]->HandleLine(op.line); });
      spans->Time("engine.drain", op_id, [&] { return server->Drain(); });
      spans->Time("snapshot.publish", op_id,
                  [&] { return server->database().PublishSnapshot(); });
      return reply;
    });
  };
  const auto run_phase = [&](std::vector<Op> Script::*phase) {
    size_t longest = 0;
    for (const Script& s : plan.scripts) longest = std::max(longest, (s.*phase).size());
    for (size_t i = 0; i < longest; ++i) {
      for (size_t d = 0; d < plan.scripts.size(); ++d) {
        const std::vector<Op>& ops = plan.scripts[d].*phase;
        if (i < ops.size()) replay.tally.Check(ops[i], apply(d, ops[i]));
      }
    }
  };

  run_phase(&Script::warmup);

  const damocles::engine::EngineStats engine_before = server->engine().stats();
  const uint64_t epoch_before = server->database().snapshot_epoch();
  const uint64_t faults_before = MinorFaults();
  const uint64_t wal_before = server->GetWalStatus().ops_end_offset;
  replay.spans.Reserve(plan.scripts.size() * plan.scripts[0].measured.size() * 2);
  spans = &replay.spans;
  run_phase(&Script::measured);
  spans = nullptr;
  replay.minor_faults = MinorFaults() - faults_before;
  replay.epochs = server->database().snapshot_epoch() - epoch_before;
  replay.engine = Delta(server->engine().stats(), engine_before);
  replay.wal_op_bytes = server->GetWalStatus().ops_end_offset - wal_before;
  replay.objects_end = server->database().Stats().live_objects;

  for (const Op& op : plan.end_phase) {
    if (op.line == kDeltaCheckpoint) {
      replay.tally.Check(op, replay.spans.Time("checkpoint.delta", op_id + 1,
                                               [&] { return apply(0, op); }));
    } else {
      replay.tally.Check(op, apply(0, op));
    }
  }
  replay.fingerprint = TakeFingerprint(*server);
  const damocles::engine::WalStatus status = server->GetWalStatus();
  replay.segments_pruned = status.segments_pruned;
  replay.checkpoints = status.checkpoints_taken;
  writers.clear();
  readers.clear();
  RestartAndCheck(options, server, replay.fingerprint, &replay.replayed_ops,
                  result);
  return replay;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunResult RunDurableEdit(const RunConfig& config) {
  RunResult result;
  const Plan plan = MakePlan(config);
  const ServerOptions options = MakeOptions(config, "mux", true);

  std::unique_ptr<ProjectServer> server;
  Samples setup;
  for (int i = 0; i < kSetupBuilds; ++i) Rebuild(options, server, &setup);
  NoteSetup(setup);

  const MuxRun mux = RunMux(plan, options, server, result);
  mux.tally.Report("mux run", result);
  if (mux.fingerprint.objects != plan.expected_objects) {
    result.Fail("mux run ended with " + std::to_string(mux.fingerprint.objects) +
                " objects, expected " + std::to_string(plan.expected_objects));
  }
  if (mux.busy_rejections != 0) {
    result.Fail(std::to_string(mux.busy_rejections) + " busy rejections");
  }
  const Latencies& l = mux.latency;
  std::printf("%s mux run (%zu designers, %zu writes, %zu point reads, %zu "
              "scans; fingerprint %s)\n",
              kName, plan.scripts.size(), l.write.size(), l.point.size(),
              l.scan.size(), mux.fingerprint.ToString().c_str());
  Note("write_p99_us", l.write.Quantile(0.99), "us");
  Note("checkin_p50_us", l.checkin.Median(), "us");
  Note("event_p50_us", l.event.Median(), "us");
  Note("event_p99_us", l.event.Quantile(0.99), "us");
  Note("read_p99_us", l.point.Quantile(0.99), "us");
  Note("checkpoint.delta_us", mux.checkpoint_delta_us, "us");
  Note("recovery_s", mux.recovery_s, "s");
  Note("recovery.replayed_ops", static_cast<double>(mux.replayed_ops), "count");

  if (!config.trace) {
    result.Add("setup_s", setup.Median(), "s");
    result.Add("write_p50_us", l.write.Median(), "us");
    result.Add("read_p50_us", l.point.Median(), "us");
    result.Add("scan_p50_us", l.scan.Median(), "us");
    result.Add("visible_p50_us", mux.visible.Median(), "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  server.reset();
  const Replay traced = RunReplay(plan, config, result);
  traced.tally.Report("traced replay", result);
  if (!(traced.fingerprint == mux.fingerprint)) {
    result.Fail("traced replay ended in " + traced.fingerprint.ToString() +
                ", mux run in " + mux.fingerprint.ToString());
  }
  const std::string trace_path = config.work_dir + "/trace-" + kName +
                                 "-" + std::to_string(config.seed) + ".tsv";
  if (!traced.spans.WriteTsv(trace_path)) result.Fail("cannot write " + trace_path);
  std::printf("spans written to %s\n", trace_path.c_str());

  const Samples apply = traced.spans.Durations("apply");
  const Samples publish = traced.spans.Durations("snapshot.publish");
  const Samples drain = traced.spans.Durations("engine.drain");
  const double writes = static_cast<double>(traced.writes);
  const auto& engine = traced.engine;
  Note("publish_share_of_apply_pct",
       100.0 * Ratio(publish.Median(), apply.Median()), "%");
  result.Add("snapshot.publish_p50_us", publish.Median(), "us");
  result.Add("snapshot.publish_p99_us", publish.Quantile(0.99), "us");
  result.Add("snapshot.epochs_per_publish",
             Ratio(static_cast<double>(traced.epochs), writes), "ratio");
  result.Add("snapshot.objects_end", static_cast<double>(traced.objects_end), "count");
  result.Add("process.minor_faults_per_write",
             Ratio(static_cast<double>(traced.minor_faults), writes), "count");
  result.Add("engine.drain_p50_us", drain.Median(), "us");
  result.Add("engine.drain_p99_us", drain.Quantile(0.99), "us");
  result.Add("engine.deliveries_per_event",
             Ratio(static_cast<double>(engine.wave_deliveries),
                   static_cast<double>(engine.external_events)), "ratio");
  result.Add("engine.waves_per_event",
             Ratio(static_cast<double>(engine.waves_started),
                   static_cast<double>(engine.external_events)), "ratio");
  result.Add("engine.rule_hits_per_delivery",
             Ratio(static_cast<double>(engine.rule_table_hits),
                   static_cast<double>(engine.wave_deliveries)), "ratio");
  // One shard: the sharded layer is not on this path.
  result.Add("sharded.handoff_seeds_per_wave", 0.0, "ratio");
  result.Add("sharded.stolen_subwaves", 0.0, "count");
  result.Add("sharded.dedup_suppressed_ratio", 0.0, "ratio");
  result.Add("sharded.claim_batches", 0.0, "count");
  result.Add("server.checkin_p50_us",
             traced.spans.Durations("server.checkin").Median(), "us");
  result.Add("server.event_p50_us",
             traced.spans.Durations("server.event").Median(), "us");
  result.Add("mux.handoff_us", l.write.Median() - apply.Median(), "us");
  result.Add("mux.busy_rejections", static_cast<double>(mux.busy_rejections),
             "count");
  result.Add("query.point_p50_us",
             traced.spans.Durations("query.point").Median(), "us");
  result.Add("query.scan_p50_us", traced.spans.Durations("query.scan").Median(),
             "us");
  result.Add("wal.bytes_per_write",
             Ratio(static_cast<double>(traced.wal_op_bytes), writes), "B");
  result.Add("wal.segments_pruned", static_cast<double>(traced.segments_pruned),
             "count");
  result.Add("checkpoint.count", static_cast<double>(traced.checkpoints), "count");
  result.Add("recovery.replayed_ops", static_cast<double>(traced.replayed_ops),
             "count");
  const double plain = traced.spans.Durations("apply.plain").Median();
  result.Add("trace.overhead_pct", 100.0 * Ratio(apply.Median() - plain, plain),
             "%");
  return result;
}

}  // namespace perfbench
