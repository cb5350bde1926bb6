// wave_ingest: tool wrappers posting results in the paper's batch mode.
//
// A 4-shard ProjectServer with auto_drain=false holds deep use-link
// trees. Batches of wire lines (mostly result events that flip a
// result, some `outofdate down` at tree roots) go in through
// SubmitWireLine; each batch ends with one Drain and one
// PublishSnapshot, after which a designer reads project state from the
// published snapshot. Derive links from each tree into the next one
// make every root wave hand work across shards.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "engine/wire_session.hpp"
#include "measure.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;
using damocles::engine::WireSession;
using damocles::metadb::LinkKind;
using damocles::metadb::Oid;

constexpr int kTrees = 8;
constexpr int kDepth = 4;
constexpr int kFanout = 4;
constexpr int kCrossLevel = 2;  ///< Level whose blocks link to the next tree.
constexpr int kShards = 4;
constexpr int kBatchLines = 500;
constexpr double kRootShare = 0.10;
constexpr int kReadsPerBatch = 20;
constexpr double kScanShare = 0.05;
constexpr int kWarmupBatches = 150;
constexpr int kBatchesPerSecond = 60;  ///< Scales --seconds to a batch count.

struct Node {
  std::string block;
  int level = 0;
};

/// Nodes of every tree, roots first within each tree (breadth first).
std::vector<Node> TreeNodes() {
  std::vector<Node> nodes;
  for (int t = 0; t < kTrees; ++t) {
    const size_t first = nodes.size();
    nodes.push_back({"t" + std::to_string(t), 0});
    for (size_t i = first; i < nodes.size(); ++i) {
      if (nodes[i].level == kDepth) continue;
      for (int c = 0; c < kFanout; ++c) {
        nodes.push_back({nodes[i].block + "_" + std::to_string(c),
                         nodes[i].level + 1});
      }
    }
  }
  return nodes;
}

/// Block in the next tree that `block` (of tree t) links into.
std::string CrossTarget(const std::string& block) {
  const size_t underscore = block.find('_');
  const int tree = std::stoi(block.substr(1, underscore - 1));
  return "t" + std::to_string((tree + 1) % kTrees) + block.substr(underscore);
}

struct Read {
  std::string line;
  std::string expect;  ///< Text the reply must contain.
  bool scan = false;
};

struct Batch {
  std::vector<std::string> lines;
  std::vector<Read> reads;  ///< Issued after the batch commits.
};

struct Plan {
  std::vector<Batch> warmup;
  std::vector<Batch> measured;
  size_t events = 0;  ///< Lines in the measured batches.
};

Plan MakePlan(const std::vector<Node>& nodes, const RunConfig& config) {
  Plan plan;
  damocles::Rng rng(config.seed * 7919ULL + 17);
  std::vector<bool> good(nodes.size(), false);
  const auto pick = [&] {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(nodes.size()) - 1));
  };
  const auto make_batch = [&] {
    Batch batch;
    for (int i = 0; i < kBatchLines; ++i) {
      if (rng.Chance(kRootShare)) {
        batch.lines.push_back("postEvent outofdate down t" +
                              std::to_string(rng.UniformInt(0, kTrees - 1)) +
                              ",view_0,1");
        continue;
      }
      const size_t n = pick();
      good[n] = !good[n];
      batch.lines.push_back("postEvent res0 up " + nodes[n].block +
                            ",view_0,1 " + (good[n] ? "good" : "bad"));
    }
    for (int i = 0; i < kReadsPerBatch; ++i) {
      const size_t n = pick();
      if (rng.Chance(kScanShare)) {
        const int objects = nodes[n].level == kCrossLevel ? 2 : 1;
        batch.reads.push_back({"query block " + nodes[n].block,
                               std::to_string(objects) + " object(s)\n", true});
      } else {
        batch.reads.push_back(
            {"query state " + nodes[n].block + ",view_0,1",
             std::string("  result_0 = '") + (good[n] ? "good" : "bad") + "'\n",
             false});
      }
    }
    return batch;
  };
  for (int i = 0; i < kWarmupBatches; ++i) plan.warmup.push_back(make_batch());
  const int batches = kBatchesPerSecond * config.seconds;
  for (int i = 0; i < batches; ++i) plan.measured.push_back(make_batch());
  plan.events = static_cast<size_t>(batches) * kBatchLines;
  return plan;
}

/// Builds the trees with a Drain after every check-in and link: on a
/// sharded auto_drain=false server, back-to-back check-ins without a
/// drain hit a known use-after-free in MetaDatabase::FindObject.
std::unique_ptr<ProjectServer> BuildProject(const std::vector<Node>& nodes,
                                            SpanRecorder* spans) {
  ServerOptions options;
  options.num_shards = kShards;
  options.auto_drain = false;
  auto server = std::make_unique<ProjectServer>("wave_ingest", options);
  damocles::workload::FlowSpec flow;
  flow.n_views = 2;
  server->InitializeBlueprint(
      damocles::workload::MakeFlowBlueprint(flow, "perfbench"));
  uint64_t op = 0;
  const auto check_in = [&](const std::string& block, const char* view) {
    const auto call = [&] {
      return server->CheckIn(block, view, "generated", "builder");
    };
    const Oid oid =
        spans != nullptr ? spans->Time("server.checkin", ++op, call) : call();
    server->Drain();
    return oid;
  };
  const auto link = [&](LinkKind kind, const Oid& from, const Oid& to) {
    server->RegisterLink(kind, from, to);
    server->Drain();
  };
  for (const Node& node : nodes) {
    const Oid oid = check_in(node.block, "view_0");
    if (node.level > 0) {
      const std::string parent = node.block.substr(0, node.block.rfind('_'));
      link(LinkKind::kUse, Oid{parent, "view_0", 1}, oid);
    }
  }
  for (const Node& node : nodes) {
    if (node.level != kCrossLevel) continue;
    const std::string target = CrossTarget(node.block);
    link(LinkKind::kDerive, Oid{node.block, "view_0", 1},
         check_in(target, "view_1"));
  }
  return server;
}

struct Counters {
  damocles::engine::EngineStats engine;
  damocles::engine::ShardedStats sharded;
  uint64_t epoch = 0;
  uint64_t minor_faults = 0;
};

Counters ReadCounters(ProjectServer& server) {
  return {server.sharded_engine()->AggregateEngineStats(),
          server.sharded_engine()->stats(), server.database().snapshot_epoch(),
          MinorFaults()};
}

struct BatchRun {
  Samples write;    ///< Per event: submit until its batch committed.
  Samples visible;  ///< Per event: submit until a read answered from it.
  Samples batch;    ///< Per batch: first submit until commit.
  Samples wait;     ///< Per event: submit returned until the drain began.
  Samples point, scan;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  Counters before, after;
  size_t objects_end = 0;
};

/// Drives the batches. With `spans`, measured batches alternate between
/// traced ("batch" with a span per layer call; the op id is the batch
/// number) and untraced ("batch.plain", the outer span only), so the
/// two halves give the tracing overhead without a run-order bias.
BatchRun RunBatches(ProjectServer& server, const Plan& plan,
                    SpanRecorder* spans) {
  BatchRun run;
  WireSession reader(server, "designer");
  reader.set_snapshot_reads(true);
  std::vector<Clock::time_point> submitted(kBatchLines);
  std::vector<Clock::time_point> accepted(kBatchLines);
  uint64_t op = 0;

  const auto run_batch = [&](const Batch& batch, bool measure) {
    ++op;
    SpanRecorder* s = measure && op % 2 == 0 ? spans : nullptr;
    const auto timed = [&](const char* name, auto&& fn) {
      return s != nullptr ? s->Time(name, op, fn) : fn();
    };
    for (size_t i = 0; i < batch.lines.size(); ++i) {
      ++run.attempted;
      submitted[i] = Clock::now();
      try {
        timed("server.event", [&] {
          server.SubmitWireLine(batch.lines[i], "wrapper");
          return 0;
        });
      } catch (const std::exception& error) {
        ++run.failed;
        if (run.wrong++ == 0) run.first_wrong = batch.lines[i] + ": " + error.what();
      }
      accepted[i] = Clock::now();
    }
    const Clock::time_point drain_start = Clock::now();
    timed("engine.drain", [&] { return server.Drain(); });
    const uint64_t epoch =
        timed("snapshot.publish",
              [&] { return server.database().PublishSnapshot(); })
            .epoch();
    const Clock::time_point committed = Clock::now();
    if (measure && spans != nullptr) {
      spans->Record(s != nullptr ? "batch" : "batch.plain", op, submitted[0],
                    committed);
    }

    Clock::time_point first_read{};
    for (const Read& read : batch.reads) {
      ++run.attempted;
      const Clock::time_point start = Clock::now();
      const std::string reply = timed(read.scan ? "query.scan" : "query.point",
                                      [&] { return reader.HandleLine(read.line); });
      const Clock::time_point end = Clock::now();
      if (first_read == Clock::time_point{}) first_read = end;
      if (IsFailedReply(reply)) ++run.failed;
      if (reply.find(read.expect) == std::string::npos ||
          reader.last_read_epoch() < epoch) {
        if (run.wrong++ == 0) {
          run.first_wrong = "'" + read.line + "' answered '" +
                            reply.substr(0, 160) + "', expected '" +
                            read.expect + "'";
        }
      }
      if (measure) (read.scan ? run.scan : run.point).Add(UsBetween(start, end));
    }
    // The in-memory journal has no bound yet and gains a record per
    // delivery (~17k per batch); trim it outside the timed region so a
    // run's memory stays flat.
    server.sharded_engine()->ClearJournals();
    if (!measure) return;
    run.batch.Add(UsBetween(submitted[0], committed));
    for (size_t i = 0; i < batch.lines.size(); ++i) {
      run.write.Add(UsBetween(submitted[i], committed));
      run.visible.Add(UsBetween(submitted[i], first_read));
      run.wait.Add(UsBetween(accepted[i], drain_start));
    }
  };

  for (const Batch& batch : plan.warmup) run_batch(batch, false);
  run.before = ReadCounters(server);
  for (const Batch& batch : plan.measured) run_batch(batch, true);
  run.after = ReadCounters(server);
  run.objects_end = server.database().Stats().live_objects;
  return run;
}

void CheckRun(const char* name, const BatchRun& run, const Plan& plan,
              RunResult& result) {
  result.attempted += run.attempted;
  result.failed += run.failed;
  if (run.wrong > 0) {
    result.Fail(std::string(name) + ": " + std::to_string(run.wrong) +
                " wrong replies, first " + run.first_wrong);
  }
  const size_t posted =
      run.after.sharded.events_posted - run.before.sharded.events_posted;
  if (posted != plan.events) {
    result.Fail(std::string(name) + ": " + std::to_string(posted) +
                " events reached the shards, expected " +
                std::to_string(plan.events));
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunResult RunWaveIngest(const RunConfig& config) {
  RunResult result;
  const std::vector<Node> nodes = TreeNodes();
  const Plan plan = MakePlan(nodes, config);

  std::unique_ptr<ProjectServer> server;
  Samples setup;
  for (int i = 0; i < kSetupBuilds; ++i) {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = BuildProject(nodes, nullptr);
    setup.Add(UsBetween(start, Clock::now()) / 1e6);
  }
  NoteSetup(setup);
  const BatchRun run = RunBatches(*server, plan, nullptr);
  CheckRun("batch run", run, plan, result);
  const Fingerprint fingerprint = TakeFingerprint(*server);
  std::printf("wave_ingest batch run (%zu objects, %zu batches of %d lines, "
              "%d shards; fingerprint %s)\n",
              run.objects_end, plan.measured.size(), kBatchLines, kShards,
              fingerprint.ToString().c_str());
  Note("batch_p50_us", run.batch.Median(), "us");
  Note("write_p99_us", run.write.Quantile(0.99), "us");
  Note("read_p99_us", run.point.Quantile(0.99), "us");
  Note("events_per_s",
       Ratio(static_cast<double>(kBatchLines), run.batch.Median() / 1e6), "1/s");

  if (!config.trace) {
    result.Add("setup_s", setup.Median(), "s");
    result.Add("write_p50_us", run.write.Median(), "us");
    result.Add("read_p50_us", run.point.Median(), "us");
    result.Add("scan_p50_us", run.scan.Median(), "us");
    result.Add("visible_p50_us", run.visible.Median(), "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  server.reset();
  SpanRecorder spans;
  spans.Reserve(plan.events + plan.measured.size() * (kReadsPerBatch + 2) +
                nodes.size() * 2);
  server = BuildProject(nodes, &spans);
  const BatchRun traced = RunBatches(*server, plan, &spans);
  CheckRun("traced run", traced, plan, result);
  const Fingerprint traced_fingerprint = TakeFingerprint(*server);
  if (!(traced_fingerprint == fingerprint)) {
    result.Fail("traced run ended in " + traced_fingerprint.ToString() +
                ", batch run in " + fingerprint.ToString());
  }
  const std::string trace_path = config.work_dir + "/trace-wave_ingest-" +
                                 std::to_string(config.seed) + ".tsv";
  if (!spans.WriteTsv(trace_path)) result.Fail("cannot write " + trace_path);
  std::printf("spans written to %s\n", trace_path.c_str());

  const Samples publish = spans.Durations("snapshot.publish");
  const Samples drain = spans.Durations("engine.drain");
  const auto& e0 = traced.before.engine;
  const auto& e1 = traced.after.engine;
  const auto& s0 = traced.before.sharded;
  const auto& s1 = traced.after.sharded;
  const double events = static_cast<double>(plan.events);
  const double external = static_cast<double>(e1.external_events - e0.external_events);
  const double deliveries = static_cast<double>(e1.wave_deliveries - e0.wave_deliveries);
  const double batch = spans.Durations("batch").Median();
  const double plain = spans.Durations("batch.plain").Median();
  Note("engine_share_of_batch_pct", 100.0 * Ratio(drain.Median(), batch), "%");
  Note("publish_share_of_batch_pct", 100.0 * Ratio(publish.Median(), batch), "%");
  result.Add("snapshot.publish_p50_us", publish.Median(), "us");
  result.Add("snapshot.publish_p99_us", publish.Quantile(0.99), "us");
  result.Add("snapshot.epochs_per_publish",
             Ratio(static_cast<double>(traced.after.epoch - traced.before.epoch),
                   static_cast<double>(plan.measured.size())), "ratio");
  result.Add("snapshot.objects_end", static_cast<double>(traced.objects_end), "count");
  result.Add("process.minor_faults_per_write",
             Ratio(static_cast<double>(traced.after.minor_faults -
                                       traced.before.minor_faults), events),
             "count");
  result.Add("engine.drain_p50_us", drain.Median(), "us");
  result.Add("engine.drain_p99_us", drain.Quantile(0.99), "us");
  result.Add("engine.deliveries_per_event", Ratio(deliveries, external), "ratio");
  result.Add("engine.waves_per_event",
             Ratio(static_cast<double>(e1.waves_started - e0.waves_started), external),
             "ratio");
  result.Add("engine.rule_hits_per_delivery",
             Ratio(static_cast<double>(e1.rule_table_hits - e0.rule_table_hits),
                   deliveries), "ratio");
  result.Add("sharded.handoff_seeds_per_wave",
             Ratio(static_cast<double>(s1.handoff_seeds - s0.handoff_seeds),
                   static_cast<double>(s1.handoff_waves - s0.handoff_waves)),
             "ratio");
  result.Add("sharded.stolen_subwaves",
             static_cast<double>(s1.stolen_subwaves - s0.stolen_subwaves), "count");
  result.Add("sharded.dedup_suppressed_ratio",
             Ratio(static_cast<double>(e1.dedup_suppressed - e0.dedup_suppressed),
                   deliveries), "ratio");
  result.Add("sharded.claim_batches",
             static_cast<double>(e1.claim_batches - e0.claim_batches), "count");
  result.Add("server.checkin_p50_us", spans.Durations("server.checkin").Median(), "us");
  result.Add("server.event_p50_us", spans.Durations("server.event").Median(), "us");
  // No mux: the batch-mode counterpart is the wait between an event's
  // intake and the start of the drain that applies it.
  result.Add("mux.handoff_us", traced.wait.Median(), "us");
  result.Add("mux.busy_rejections", 0.0, "count");
  result.Add("query.point_p50_us", spans.Durations("query.point").Median(), "us");
  result.Add("query.scan_p50_us", spans.Durations("query.scan").Median(), "us");
  result.Add("wal.bytes_per_write", 0.0, "B");
  result.Add("wal.segments_pruned", 0.0, "count");
  result.Add("checkpoint.count", 0.0, "count");
  result.Add("recovery.replayed_ops", 0.0, "count");
  result.Add("trace.overhead_pct", 100.0 * Ratio(batch - plain, plain), "%");
  return result;
}

}  // namespace perfbench
