// Tests for the sharded wave engine and the block-subtree shard map.
//
// The load-bearing guarantees, pinned differentially:
//  * num_shards = 1 is journal-byte-identical to the plain PR-2 engine;
//  * for N shards the multiset of journal records matches the 1-shard
//    run exactly — including reconvergent topologies (one wave reaching
//    an OID through two shards) where the per-wave (epoch, OID) claims
//    deliver exactly once; only the interleaving across shards differs;
//  * threaded and deterministic execution produce the same multiset;
//  * cross-shard waves (a derive link between blocks of different
//    subtrees) are handed off and delivered on the foreign shard;
//    cross-shard cycles terminate through the claims, the hop cap only
//    backstops chains of distinct OIDs;
//  * every lane engine expands through one shared
//    PropagationIndex (1× the link graph), which stays consistent with a
//    rescan through link edits, use-link unions and rebalances;
//  * the ShardMap tracks subtree roots incrementally through link adds
//    and, after random endpoint moves / deletions plus a rebalance,
//    agrees with an oracle that recomputes the components from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blueprint/parser.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "engine/project_server.hpp"
#include "engine/run_time_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/persistence.hpp"
#include "metadb/shard_map.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using engine::EngineStats;
using engine::RunTimeEngine;
using engine::ShardedEngine;
using engine::ShardedEngineOptions;
using engine::ShardedStats;
using events::Direction;
using events::EventMessage;
using metadb::CarryPolicy;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::Oid;
using metadb::OidId;
using metadb::ShardMap;

EventMessage Event(std::string name, const Oid& target, Direction direction,
                   std::string arg = "") {
  EventMessage event;
  event.name = std::move(name);
  event.direction = direction;
  event.target = target;
  event.arg = std::move(arg);
  event.user = "test";
  event.timestamp = 1;  // Fixed stamp: runs compare byte-for-byte.
  return event;
}

// --- A workload both engine flavours can replay identically ----------------
//
// `blocks` independent flow instances (view_0 -> ... -> view_{n-1}
// derive chains, per workload::MakeFlowBlueprint) plus a small use-link
// hierarchy under each block, then a seeded random event trace with
// periodic drains. The adapter hides plain-vs-sharded.

struct PlainAdapter {
  RunTimeEngine& engine;
  void LoadBlueprintText(const std::string& text) {
    engine.LoadBlueprint(blueprint::ParseBlueprint(text));
  }
  OidId CreateObject(const std::string& block, const std::string& view) {
    return engine.OnCreateObject(block, view, "test");
  }
  void CreateLink(LinkKind kind, OidId from, OidId to) {
    engine.OnCreateLink(kind, from, to);
  }
  void Post(EventMessage event) { engine.PostEvent(std::move(event)); }
  void Drain() { engine.ProcessAll(); }
  void Settle() {}
};

struct ShardedAdapter {
  ShardedEngine& engine;
  void LoadBlueprintText(const std::string& text) {
    engine.LoadBlueprintText(text);
  }
  OidId CreateObject(const std::string& block, const std::string& view) {
    return engine.OnCreateObject(block, view, "test");
  }
  void CreateLink(LinkKind kind, OidId from, OidId to) {
    engine.OnCreateLink(kind, from, to);
  }
  void Post(EventMessage event) { engine.PostEvent(std::move(event)); }
  void Drain() { engine.Drain(); }
  /// Bulk construction done: deal subtree roots round-robin.
  void Settle() { engine.shard_map().Rebalance(); }
};

struct WorkloadSpec {
  int blocks = 6;
  int views = 3;
  int hierarchy_children = 2;  ///< Use-linked sub-blocks per flow block.
  int events = 80;
  uint64_t seed = 42;
};

template <typename Adapter>
void RunWorkload(Adapter api, MetaDatabase& db, const WorkloadSpec& spec) {
  workload::FlowSpec flow;
  flow.n_views = spec.views;
  api.LoadBlueprintText(workload::MakeFlowBlueprint(flow, "sharded"));

  const std::vector<std::string> views = workload::FlowViewNames(flow);
  std::vector<std::string> blocks;
  for (int b = 0; b < spec.blocks; ++b) {
    const std::string block = "blk" + std::to_string(b);
    blocks.push_back(block);
    OidId previous;
    for (int v = 0; v < spec.views; ++v) {
      const OidId id = api.CreateObject(block, views[static_cast<size_t>(v)]);
      if (v > 0) api.CreateLink(LinkKind::kDerive, previous, id);
      previous = id;
    }
    // A small use-link hierarchy under view_0 keeps the subtree grouping
    // honest (children are distinct blocks merged by use links).
    const OidId root = *db.FindObject(Oid{block, views[0], 1});
    for (int c = 0; c < spec.hierarchy_children; ++c) {
      const OidId child =
          api.CreateObject(block + "_sub" + std::to_string(c), views[0]);
      api.CreateLink(LinkKind::kUse, root, child);
    }
  }

  api.Settle();

  Rng rng(spec.seed);
  for (int i = 0; i < spec.events; ++i) {
    const std::string& block =
        blocks[static_cast<size_t>(rng.UniformInt(0, spec.blocks - 1))];
    const int view = static_cast<int>(rng.UniformInt(0, spec.views - 1));
    const Oid target{block, views[static_cast<size_t>(view)], 1};
    const double draw = rng.UniformDouble();
    if (draw < 0.5) {
      api.Post(Event("ckin", target, Direction::kUp, "rev"));
    } else if (draw < 0.8) {
      api.Post(Event("outofdate", target, Direction::kDown));
    } else {
      api.Post(Event("res0", target, Direction::kDown,
                     rng.Chance(0.5) ? "good" : "bad"));
    }
    if (rng.Chance(0.2)) api.Drain();
  }
  api.Drain();
}

std::vector<std::string> SortedLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::map<std::string, std::string> PropertySnapshot(const MetaDatabase& db) {
  std::map<std::string, std::string> snapshot;
  db.ForEachObject([&](OidId, const metadb::MetaObject& object) {
    for (const metadb::Property& property : object.properties) {
      snapshot[metadb::FormatOid(db.OidOf(object)) + "/" +
               db.SymbolText(property.name)] = property.value;
    }
  });
  return snapshot;
}

// --- Differential: 1 shard == plain engine, byte for byte -------------------

TEST(ShardedEngine, OneShardIsByteIdenticalToPlainEngine) {
  for (const uint64_t seed : {7u, 99u}) {
    WorkloadSpec spec;
    spec.seed = seed;

    MetaDatabase plain_db;
    SimClock plain_clock;
    RunTimeEngine plain(plain_db, plain_clock);
    RunWorkload(PlainAdapter{plain}, plain_db, spec);

    MetaDatabase sharded_db;
    SimClock sharded_clock;
    ShardedEngineOptions options;
    options.num_shards = 1;
    options.deterministic = true;
    ShardedEngine sharded(sharded_db, sharded_clock, options);
    RunWorkload(ShardedAdapter{sharded}, sharded_db, spec);

    EXPECT_EQ(plain.journal().Dump(), sharded.shard(0).journal().Dump())
        << "seed " << seed;
    EXPECT_EQ(PropertySnapshot(plain_db), PropertySnapshot(sharded_db))
        << "seed " << seed;

    const EngineStats& a = plain.stats();
    const EngineStats b = sharded.AggregateEngineStats();
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.wave_deliveries, b.wave_deliveries);
    EXPECT_EQ(a.propagated_deliveries, b.propagated_deliveries);
    EXPECT_EQ(a.assign_actions, b.assign_actions);
    EXPECT_EQ(a.property_writes, b.property_writes);
    EXPECT_EQ(b.handoff_receivers, 0u);
    EXPECT_EQ(b.seeded_handoff_waves, 0u);
  }
}

// A threaded single worker must match too (same lane FIFO, real thread).
TEST(ShardedEngine, OneShardThreadedMatchesPlainEngine) {
  WorkloadSpec spec;
  spec.events = 40;

  MetaDatabase plain_db;
  SimClock plain_clock;
  RunTimeEngine plain(plain_db, plain_clock);
  RunWorkload(PlainAdapter{plain}, plain_db, spec);

  MetaDatabase sharded_db;
  SimClock sharded_clock;
  ShardedEngineOptions options;
  options.num_shards = 1;
  ShardedEngine sharded(sharded_db, sharded_clock, options);
  RunWorkload(ShardedAdapter{sharded}, sharded_db, spec);

  EXPECT_EQ(plain.journal().Dump(), sharded.shard(0).journal().Dump());
  EXPECT_EQ(PropertySnapshot(plain_db), PropertySnapshot(sharded_db));
}

// --- Differential: N shards == 1 shard, as a record multiset ---------------

TEST(ShardedEngine, MultiShardJournalMatchesOneShardAsMultiset) {
  for (const uint32_t shards : {2u, 4u}) {
    WorkloadSpec spec;
    spec.blocks = 8;
    spec.events = 120;

    MetaDatabase one_db;
    SimClock one_clock;
    ShardedEngineOptions one_options;
    one_options.num_shards = 1;
    one_options.deterministic = true;
    ShardedEngine one(one_db, one_clock, one_options);
    RunWorkload(ShardedAdapter{one}, one_db, spec);

    MetaDatabase many_db;
    SimClock many_clock;
    ShardedEngineOptions many_options;
    many_options.num_shards = shards;
    many_options.deterministic = true;
    ShardedEngine many(many_db, many_clock, many_options);
    RunWorkload(ShardedAdapter{many}, many_db, spec);

    EXPECT_EQ(SortedLines(one.JournalLines()),
              SortedLines(many.JournalLines()))
        << shards << " shards";
    EXPECT_EQ(PropertySnapshot(one_db), PropertySnapshot(many_db))
        << shards << " shards";

    const EngineStats a = one.AggregateEngineStats();
    const EngineStats b = many.AggregateEngineStats();
    EXPECT_EQ(a.wave_deliveries, b.wave_deliveries) << shards << " shards";
    EXPECT_EQ(a.propagated_deliveries, b.propagated_deliveries);
    EXPECT_EQ(a.assign_actions, b.assign_actions);
    EXPECT_EQ(a.property_writes, b.property_writes);

    // The partitioned workload never crosses subtrees, so every event
    // stayed on its own shard.
    EXPECT_EQ(b.handoff_receivers, 0u) << shards << " shards";

    // Work actually spread: with 8 independent subtrees and round-robin
    // root assignment every shard processed something.
    size_t active_shards = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      if (many.shard(s).stats().events_processed > 0) ++active_shards;
    }
    EXPECT_EQ(active_shards, shards);
  }
}

TEST(ShardedEngine, ThreadedExecutionMatchesDeterministicMultiset) {
  WorkloadSpec spec;
  spec.blocks = 8;
  spec.events = 120;

  MetaDatabase det_db;
  SimClock det_clock;
  ShardedEngineOptions det_options;
  det_options.num_shards = 4;
  det_options.deterministic = true;
  ShardedEngine det(det_db, det_clock, det_options);
  RunWorkload(ShardedAdapter{det}, det_db, spec);

  MetaDatabase thr_db;
  SimClock thr_clock;
  ShardedEngineOptions thr_options;
  thr_options.num_shards = 4;
  thr_options.queue_capacity = 8;  // Tiny ring: exercise the spill path.
  ShardedEngine thr(thr_db, thr_clock, thr_options);
  RunWorkload(ShardedAdapter{thr}, thr_db, spec);

  EXPECT_EQ(SortedLines(det.JournalLines()), SortedLines(thr.JournalLines()));
  EXPECT_EQ(PropertySnapshot(det_db), PropertySnapshot(thr_db));
  EXPECT_EQ(det.AggregateEngineStats().wave_deliveries,
            thr.AggregateEngineStats().wave_deliveries);
}

// --- Cross-shard handoff -----------------------------------------------------

/// Two flow subtrees in different shards, bridged by one derive link
/// whose PROPAGATE carries the event: the wave must cross the shard
/// boundary as a seeded sub-wave and keep expanding on the far side.
TEST(ShardedEngine, CrossShardWaveIsHandedOffAndKeepsExpanding) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  ShardedEngine sharded(db, clock, options);

  const OidId a0 = sharded.OnCreateObject("blk_a", "sch", "test");
  const OidId b0 = sharded.OnCreateObject("blk_b", "sch", "test");
  const OidId b1 = sharded.OnCreateObject("blk_b", "net", "test");
  // Deal roots round-robin: blk_a -> shard 0, blk_b -> shard 1.
  sharded.shard_map().Rebalance();
  ASSERT_NE(sharded.shard_map().ShardOf(a0), sharded.shard_map().ShardOf(b0));

  // Bridge and continuation, both propagating "edit".
  db.CreateLink(LinkKind::kDerive, a0, b0, {"edit"}, "depend_on",
                CarryPolicy::kNone);
  db.CreateLink(LinkKind::kDerive, b0, b1, {"edit"}, "derive_from",
                CarryPolicy::kNone);

  sharded.PostEvent(Event("edit", Oid{"blk_a", "sch", 1}, Direction::kDown));
  sharded.Drain();

  // Shard 0 processed the queue event and handed one receiver off.
  EXPECT_EQ(sharded.shard(0).stats().events_processed, 1u);
  EXPECT_EQ(sharded.shard(0).stats().handoff_receivers, 1u);
  // Shard 1 delivered the seeded sub-wave to b0, then expanded to b1.
  EXPECT_EQ(sharded.shard(1).stats().seeded_handoff_waves, 1u);
  EXPECT_EQ(sharded.shard(1).stats().propagated_deliveries, 2u);
  EXPECT_EQ(sharded.stats().handoff_waves, 1u);

  // Same wave through one shard: the record multiset must match.
  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.num_shards = 1;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  const OidId one_a0 = one.OnCreateObject("blk_a", "sch", "test");
  const OidId one_b0 = one.OnCreateObject("blk_b", "sch", "test");
  const OidId one_b1 = one.OnCreateObject("blk_b", "net", "test");
  one_db.CreateLink(LinkKind::kDerive, one_a0, one_b0, {"edit"}, "depend_on",
                    CarryPolicy::kNone);
  one_db.CreateLink(LinkKind::kDerive, one_b0, one_b1, {"edit"},
                    "derive_from", CarryPolicy::kNone);
  one.PostEvent(Event("edit", Oid{"blk_a", "sch", 1}, Direction::kDown));
  one.Drain();

  EXPECT_EQ(SortedLines(one.JournalLines()),
            SortedLines(sharded.JournalLines()));
}

/// A propagation cycle whose links cross shards (A -> B and B -> A
/// both propagate the event) terminates through the per-wave
/// (epoch, OID) claims — the returning sub-wave's seed was already
/// delivered, so it dies without the hop cap ever firing — and the
/// record multiset equals the single visited set of a 1-shard wave.
TEST(ShardedEngine, CrossShardPropagationCycleTerminatesExactlyOnce) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  options.max_handoff_hops = 8;
  ShardedEngine sharded(db, clock, options);

  const OidId a = sharded.OnCreateObject("blk_a", "sch", "test");
  const OidId b = sharded.OnCreateObject("blk_b", "sch", "test");
  sharded.shard_map().Rebalance();
  ASSERT_NE(sharded.shard_map().ShardOf(a), sharded.shard_map().ShardOf(b));
  db.CreateLink(LinkKind::kDerive, a, b, {"edit"}, "", CarryPolicy::kNone);
  db.CreateLink(LinkKind::kDerive, b, a, {"edit"}, "", CarryPolicy::kNone);

  sharded.PostEvent(Event("edit", Oid{"blk_a", "sch", 1}, Direction::kDown));
  sharded.Drain();  // Must return.

  // A -> B crossed, B -> A crossed back and was suppressed at the seed.
  EXPECT_EQ(sharded.stats().handoff_waves_truncated, 0u);
  EXPECT_EQ(sharded.stats().handoff_waves, 2u);
  const EngineStats total = sharded.AggregateEngineStats();
  EXPECT_EQ(total.propagated_deliveries, 1u);  // B, exactly once.
  EXPECT_EQ(total.dedup_suppressed, 1u);       // The returning A seed.

  // The 1-shard engine's single visited set is the reference.
  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.num_shards = 1;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  const OidId one_a = one.OnCreateObject("blk_a", "sch", "test");
  const OidId one_b = one.OnCreateObject("blk_b", "sch", "test");
  one_db.CreateLink(LinkKind::kDerive, one_a, one_b, {"edit"}, "",
                    CarryPolicy::kNone);
  one_db.CreateLink(LinkKind::kDerive, one_b, one_a, {"edit"}, "",
                    CarryPolicy::kNone);
  one.PostEvent(Event("edit", Oid{"blk_a", "sch", 1}, Direction::kDown));
  one.Drain();

  EXPECT_EQ(SortedLines(one.JournalLines()),
            SortedLines(sharded.JournalLines()));
}

/// 'post <event> down to <view>' across a shard boundary: the posted
/// event re-enters sharded intake and is processed on the target's
/// shard, exactly like an external event.
TEST(ShardedEngine, RulePostedEventsRerouteToTargetShard) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  ShardedEngine sharded(db, clock, options);

  sharded.LoadBlueprintText(R"(blueprint relay
view default
endview
view src
  when ping do post pong down to sink done
endview
view sink
  when pong do hit = yes done
endview
endblueprint)");

  const OidId src = sharded.OnCreateObject("blk_a", "src", "test");
  const OidId sink = sharded.OnCreateObject("blk_b", "sink", "test");
  sharded.shard_map().Rebalance();
  ASSERT_NE(sharded.shard_map().ShardOf(src),
            sharded.shard_map().ShardOf(sink));
  // The BFS behind 'post ... to' walks links regardless of PROPAGATE.
  db.CreateLink(LinkKind::kDerive, src, sink, {}, "depend_on",
                CarryPolicy::kNone);

  sharded.PostEvent(Event("ping", Oid{"blk_a", "src", 1}, Direction::kDown));
  sharded.Drain();

  EXPECT_EQ(*db.GetProperty(sink, "hit"), "yes");
  EXPECT_EQ(sharded.stats().reposted_events, 1u);
  const uint32_t sink_shard = sharded.shard_map().ShardOf(sink);
  EXPECT_EQ(sharded.shard(sink_shard).stats().events_processed, 1u);
}

// --- Cross-shard reconvergence: exactly-once waves ---------------------------

/// Builds the diamond A -> {B, C} -> D over four single-view blocks
/// (each its own subtree, so 3+ shards split it), every link
/// propagating "edit". Returns the created OIDs in {a, b, c, d} order.
std::vector<OidId> BuildDiamond(ShardedEngine& engine,
                                MetaDatabase& db) {
  std::vector<OidId> oids;
  for (const char* block : {"dia_a", "dia_b", "dia_c", "dia_d"}) {
    oids.push_back(engine.OnCreateObject(block, "sch", "test"));
  }
  engine.shard_map().Rebalance();
  db.CreateLink(LinkKind::kDerive, oids[0], oids[1], {"edit"}, "",
                CarryPolicy::kNone);
  db.CreateLink(LinkKind::kDerive, oids[0], oids[2], {"edit"}, "",
                CarryPolicy::kNone);
  db.CreateLink(LinkKind::kDerive, oids[1], oids[3], {"edit"}, "",
                CarryPolicy::kNone);
  db.CreateLink(LinkKind::kDerive, oids[2], oids[3], {"edit"}, "",
                CarryPolicy::kNone);
  return oids;
}

/// One wave reaching D through two shards (via B and via C) must
/// deliver D once — record-multiset-equal to the 1-shard run, not
/// "equal modulo duplicates".
TEST(ShardedReconvergence, DiamondAcrossThreeShardsDeliversOnce) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.deterministic = true;
  ShardedEngine sharded(db, clock, options);
  const std::vector<OidId> oids = BuildDiamond(sharded, db);

  // The diamond spans three shards (round-robin deal: D shares A's).
  const ShardMap& map = sharded.shard_map();
  ASSERT_NE(map.ShardOf(oids[0]), map.ShardOf(oids[1]));
  ASSERT_NE(map.ShardOf(oids[0]), map.ShardOf(oids[2]));
  ASSERT_NE(map.ShardOf(oids[1]), map.ShardOf(oids[2]));

  sharded.PostEvent(Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown));
  sharded.Drain();

  const EngineStats total = sharded.AggregateEngineStats();
  EXPECT_EQ(total.propagated_deliveries, 3u);  // B, C, D — D once.
  EXPECT_EQ(total.dedup_suppressed, 1u);       // The second D sub-wave.
  EXPECT_EQ(sharded.stats().handoff_waves, 4u);
  EXPECT_EQ(sharded.stats().handoff_waves_truncated, 0u);
  // Every diamond link crosses a shard boundary here.
  size_t crossing_links = 0;
  db.ForEachLink([&](metadb::LinkId, const metadb::Link& link) {
    if (map.ShardOf(link.from) != map.ShardOf(link.to)) ++crossing_links;
  });
  EXPECT_EQ(crossing_links, 4u);

  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.num_shards = 1;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  BuildDiamond(one, one_db);
  one.PostEvent(Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown));
  one.Drain();

  EXPECT_EQ(SortedLines(one.JournalLines()),
            SortedLines(sharded.JournalLines()));
  EXPECT_EQ(one.AggregateEngineStats().propagated_deliveries,
            total.propagated_deliveries);
}

/// The same diamond under the worker pool: claims are arbitrated by
/// whichever sub-wave reaches D's lane first, but the delivered
/// multiset is schedule-invariant (also the TSan target for the claim
/// handshake).
TEST(ShardedReconvergence, ThreadedDiamondMatchesDeterministic) {
  constexpr int kWaves = 32;

  const auto run = [](bool deterministic) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 3;
    options.deterministic = deterministic;
    options.queue_capacity = 8;  // Tiny ring: exercise the spill path.
    ShardedEngine engine(db, clock, options);
    BuildDiamond(engine, db);
    for (int i = 0; i < kWaves; ++i) {
      engine.PostEvent(
          Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown,
                "wave" + std::to_string(i)));
    }
    engine.Drain();
    EXPECT_EQ(engine.AggregateEngineStats().propagated_deliveries,
              static_cast<size_t>(3 * kWaves));
    return SortedLines(engine.JournalLines());
  };

  EXPECT_EQ(run(/*deterministic=*/true), run(/*deterministic=*/false));
}

/// A direction post ('post note down', no 'to' clause) opens its own
/// wave scope — its own epoch for claims, visible in the journal rows —
/// but schedules inside the wave that spawned it: in deterministic mode
/// its cross-shard deliveries land before any later wave's work, like
/// the inline sub-wave of the single FIFO queue.
TEST(ShardedReconvergence, DirectionPostSchedulesInsideItsSpawningWave) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  ShardedEngine sharded(db, clock, options);

  sharded.LoadBlueprintText(R"(blueprint dp
view default
endview
view src
  when ping do post note down done
endview
view sink
  when note do noted = yes done
  when touch do touched = yes done
endview
endblueprint)");

  const OidId src = sharded.OnCreateObject("blk_a", "src", "test");
  const OidId sink = sharded.OnCreateObject("blk_b", "sink", "test");
  sharded.shard_map().Rebalance();
  ASSERT_NE(sharded.shard_map().ShardOf(src),
            sharded.shard_map().ShardOf(sink));
  db.CreateLink(LinkKind::kDerive, src, sink, {"note"}, "",
                CarryPolicy::kNone);

  sharded.PostEvent(Event("ping", Oid{"blk_a", "src", 1}, Direction::kDown));
  sharded.PostEvent(Event("touch", Oid{"blk_b", "sink", 1}, Direction::kDown));
  sharded.Drain();

  EXPECT_EQ(*db.GetProperty(sink, "noted"), "yes");
  EXPECT_EQ(*db.GetProperty(sink, "touched"), "yes");

  // The sink shard processed the direction-posted note (spawned by the
  // first wave) before the second wave's touch, and the journal rows
  // carry the epochs: ping = 1, touch = 2, note minted third mid-wave.
  const events::EventJournal& journal =
      sharded.shard(sharded.shard_map().ShardOf(sink)).journal();
  ASSERT_EQ(journal.Size(), 2u);
  EXPECT_EQ(journal.At(0).event.name, "note");
  EXPECT_EQ(journal.At(0).event.wave_epoch, 3u);
  EXPECT_EQ(journal.At(1).event.name, "touch");
  EXPECT_EQ(journal.At(1).event.wave_epoch, 2u);
  EXPECT_EQ(sharded.stats().wave_epochs, 3u);
}

/// The hop cap is a backstop, not the termination mechanism: a chain of
/// *distinct* OIDs snaking across shards longer than the cap is still
/// truncated (and counted), while everything below the cap delivers.
TEST(ShardedReconvergence, HopCapBackstopStillGuardsDistinctChains) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  options.max_handoff_hops = 4;
  ShardedEngine sharded(db, clock, options);

  constexpr int kChain = 10;
  std::vector<OidId> oids;
  for (int i = 0; i < kChain; ++i) {
    oids.push_back(
        sharded.OnCreateObject("chain" + std::to_string(i), "sch", "test"));
  }
  sharded.shard_map().Rebalance();  // Round-robin: neighbours alternate.
  for (int i = 0; i + 1 < kChain; ++i) {
    ASSERT_NE(sharded.shard_map().ShardOf(oids[static_cast<size_t>(i)]),
              sharded.shard_map().ShardOf(oids[static_cast<size_t>(i + 1)]));
    db.CreateLink(LinkKind::kDerive, oids[static_cast<size_t>(i)],
                  oids[static_cast<size_t>(i + 1)], {"edit"}, "",
                  CarryPolicy::kNone);
  }

  sharded.PostEvent(Event("edit", Oid{"chain0", "sch", 1}, Direction::kDown));
  sharded.Drain();

  EXPECT_EQ(sharded.stats().handoff_waves_truncated, 1u);
  EXPECT_EQ(sharded.stats().handoff_waves, 4u);
  // chain1..chain4 delivered before the cap; nothing was duplicated.
  const EngineStats total = sharded.AggregateEngineStats();
  EXPECT_EQ(total.propagated_deliveries, 4u);
  EXPECT_EQ(total.dedup_suppressed, 0u);
}

// --- Pooled claim sets ---------------------------------------------------------

/// A diamond (A -> {B, C} -> D), a two-block cycle (X <-> Y) and a hub
/// with `spokes` derive links to single-block spokes that also form a
/// ring, every block its own subtree dealt round-robin, every link
/// propagating "edit". The diamond and cycle claim the same OIDs in
/// every wave, so a recycled claim set that kept an old epoch's OIDs
/// would suppress a delivery. The hub's foreign receivers overflow a
/// set's first capacity, and the ring then re-claims every spoke in its
/// grown set, so a growth that lost an OID would deliver it twice.
void BuildClaimMix(ShardedEngine& engine, MetaDatabase& db, int spokes) {
  std::vector<OidId> oids;
  for (const char* block : {"dia_a", "dia_b", "dia_c", "dia_d", "cyc_x",
                            "cyc_y", "hub"}) {
    oids.push_back(engine.OnCreateObject(block, "sch", "test"));
  }
  std::vector<OidId> spoke_oids;
  for (int i = 0; i < spokes; ++i) {
    spoke_oids.push_back(
        engine.OnCreateObject("spoke" + std::to_string(i), "sch", "test"));
  }
  engine.shard_map().Rebalance();
  const auto link = [&db](OidId from, OidId to) {
    db.CreateLink(LinkKind::kDerive, from, to, {"edit"}, "",
                  CarryPolicy::kNone);
  };
  link(oids[0], oids[1]);
  link(oids[0], oids[2]);
  link(oids[1], oids[3]);
  link(oids[2], oids[3]);
  link(oids[4], oids[5]);
  link(oids[5], oids[4]);
  for (size_t i = 0; i < spoke_oids.size(); ++i) {
    link(oids[6], spoke_oids[i]);
    link(spoke_oids[i], spoke_oids[(i + 1) % spoke_oids.size()]);
  }
}

/// Thousands of waves over the diamond, the cycle and a 96-spoke hub:
/// every store purges and reuses its pooled claim sets many times, and
/// the hub's sets grow past their first capacity. A reused set that
/// still held an earlier epoch's OIDs would suppress deliveries, and a
/// set that lost OIDs while growing would duplicate them; either breaks
/// the record multiset against the 1-shard run.
TEST(ShardedReconvergence, RecycledClaimSetsStartEmptyAndGrow) {
  constexpr int kSpokes = 96;
  constexpr int kRounds = 2000;
  const auto run = [&](uint32_t shards, bool deterministic) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.deterministic = deterministic;
    ShardedEngine engine(db, clock, options);
    BuildClaimMix(engine, db, kSpokes);
    for (int round = 0; round < kRounds; ++round) {
      const std::string arg = "w" + std::to_string(round);
      engine.PostEvent(
          Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown, arg));
      engine.PostEvent(
          Event("edit", Oid{"cyc_x", "sch", 1}, Direction::kDown, arg));
      if (round % 8 == 0) {
        engine.PostEvent(
            Event("edit", Oid{"hub", "sch", 1}, Direction::kDown, arg));
      }
      if (round % 50 == 49) engine.Drain();
    }
    engine.Drain();
    if (shards > 1) {
      const ShardedStats stats = engine.stats();
      EXPECT_GT(stats.claim_purge_floor, 0u);
      EXPECT_GT(stats.claim_sets_live, 0u);
      EXPECT_EQ(stats.handoff_waves_truncated, 0u);
    }
    const EngineStats total = engine.AggregateEngineStats();
    EXPECT_EQ(total.propagated_deliveries,
              static_cast<size_t>(kRounds * 4 + (kRounds / 8) * kSpokes));
    return SortedLines(engine.JournalLines());
  };

  const std::vector<std::string> expected = run(1, true);
  EXPECT_EQ(run(4, /*deterministic=*/true), expected);
  EXPECT_EQ(run(4, /*deterministic=*/false), expected);
}

/// Two threads post concurrently into reconvergent fans — a source
/// handing off to six mids across the shards, every mid reaching the
/// same four sinks — with two seeds per handoff task, so each wave's
/// sinks are claimed by several sub-waves while other waves' epochs are
/// minted on the posting threads. An epoch minted but not yet pinned
/// could once fall below a claim round's purge horizon and lose its
/// claims, delivering a sink twice; minting now pins in the same
/// critical section. The window is narrow: this stress is not known to
/// fail on the code before that change.
TEST(ShardedClaims, ConcurrentPostersOnReconvergentFansMatchOneShard) {
  constexpr int kFans = 8;
  constexpr int kMids = 6;
  constexpr int kSinks = 4;
  constexpr int kWavesPerPoster = 1500;
  const auto build = [&](ShardedEngine& engine, MetaDatabase& db) {
    std::vector<std::vector<OidId>> fans(kFans);
    for (int f = 0; f < kFans; ++f) {
      const std::string fan = "fan" + std::to_string(f);
      fans[f].push_back(engine.OnCreateObject(fan, "sch", "test"));
      for (int i = 0; i < kMids + kSinks; ++i) {
        fans[f].push_back(engine.OnCreateObject(
            fan + (i < kMids ? "_m" : "_t") + std::to_string(i), "sch",
            "test"));
      }
    }
    engine.shard_map().Rebalance();
    for (const std::vector<OidId>& fan : fans) {
      for (int m = 1; m <= kMids; ++m) {
        db.CreateLink(LinkKind::kDerive, fan[0], fan[m], {"edit"}, "",
                      CarryPolicy::kNone);
        for (int t = kMids + 1; t <= kMids + kSinks; ++t) {
          db.CreateLink(LinkKind::kDerive, fan[m], fan[t], {"edit"}, "",
                        CarryPolicy::kNone);
        }
      }
    }
  };
  const auto wave = [](int poster, int i) {
    return Event("edit",
                 Oid{"fan" + std::to_string((i + poster) % kFans), "sch", 1},
                 Direction::kDown,
                 "p" + std::to_string(poster) + "_" + std::to_string(i));
  };

  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  build(one, one_db);
  for (int poster = 0; poster < 2; ++poster) {
    for (int i = 0; i < kWavesPerPoster; ++i) one.PostEvent(wave(poster, i));
  }
  one.Drain();
  const std::vector<std::string> expected = SortedLines(one.JournalLines());
  ASSERT_EQ(expected.size(),
            static_cast<size_t>(2 * kWavesPerPoster * (1 + kMids + kSinks)));

  for (int trial = 0; trial < 3; ++trial) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.max_batch_seeds = 2;
    ShardedEngine engine(db, clock, options);
    build(engine, db);
    std::thread second([&engine, &wave] {
      for (int i = 0; i < kWavesPerPoster; ++i) engine.PostEvent(wave(1, i));
    });
    for (int i = 0; i < kWavesPerPoster; ++i) engine.PostEvent(wave(0, i));
    second.join();
    engine.Drain();
    EXPECT_GT(engine.stats().seed_batch_splits, 0u);
    EXPECT_GT(engine.stats().claim_purge_floor, 0u);
    EXPECT_EQ(SortedLines(engine.JournalLines()), expected)
        << "trial " << trial;
  }
}

/// The claim stores' set gauge reaches a plateau: across 10k diamond
/// waves and 100 drains it stays under a bound set by the purge cadence
/// and pool cap, instead of growing with the number of waves (3 sets per
/// wave if nothing were merged out).
TEST(ShardedClaims, ClaimSetGaugeStaysBoundedAcrossWaves) {
  constexpr int kDrains = 100;
  constexpr int kWavesPerDrain = 100;
  // Per store: at most 128 pooled sets plus the sets in use: completed
  // epochs awaiting a purge (its trigger is 64 sets, re-armed after 64
  // claims) and the at most kWavesPerDrain live ones.
  constexpr size_t kBound = 4 * (128 + 128 + kWavesPerDrain);
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "threaded");
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.deterministic = deterministic;
    ShardedEngine engine(db, clock, options);
    BuildDiamond(engine, db);
    EXPECT_EQ(engine.stats().claim_sets_live, 0u);
    size_t peak = 0;
    for (int drain = 0; drain < kDrains; ++drain) {
      for (int i = 0; i < kWavesPerDrain; ++i) {
        engine.PostEvent(
            Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown));
      }
      engine.Drain();
      engine.ClearJournals();
      peak = std::max(peak, engine.stats().claim_sets_live);
    }
    EXPECT_GT(engine.stats().claim_sets_live, 0u);
    EXPECT_LE(peak, kBound);
    EXPECT_EQ(engine.AggregateEngineStats().propagated_deliveries,
              static_cast<size_t>(3 * kDrains * kWavesPerDrain));
  }

  // One shard builds no claim store.
  MetaDatabase db;
  SimClock clock;
  ShardedEngine one(db, clock, ShardedEngineOptions{});
  BuildDiamond(one, db);
  one.PostEvent(Event("edit", Oid{"dia_a", "sch", 1}, Direction::kDown));
  one.Drain();
  EXPECT_EQ(one.stats().claim_sets_live, 0u);
}

// --- One shared propagation index --------------------------------------------

/// The engines of `sharded` that expand waves — one per lane — all
/// expand through `index`.
void ExpectAllEnginesShare(const ShardedEngine& sharded,
                           const engine::PropagationIndex& index) {
  size_t engines = 0;
  sharded.ForEachEngine([&](const RunTimeEngine& engine) {
    EXPECT_EQ(&engine.propagation_index(), &index) << "engine " << engines;
    ++engines;
  });
  EXPECT_EQ(engines, sharded.num_shards());
}

/// Every lane engine of a 4-shard engine expands through one
/// index holding exactly the plain engine's entries, and every lane
/// served lookups from it.
TEST(ShardedIndex, ShardIndexesHoldOneCopyOfLinkGraph) {
  WorkloadSpec spec;
  spec.blocks = 8;
  spec.events = 60;

  MetaDatabase plain_db;
  SimClock plain_clock;
  RunTimeEngine plain(plain_db, plain_clock);
  RunWorkload(PlainAdapter{plain}, plain_db, spec);

  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  RunWorkload(ShardedAdapter{one}, one_db, spec);

  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "threaded");
    MetaDatabase many_db;
    SimClock many_clock;
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.deterministic = deterministic;
    options.worker_threads = 2;  // Fewer workers than lanes.
    ShardedEngine many(many_db, many_clock, options);
    RunWorkload(ShardedAdapter{many}, many_db, spec);

    const engine::PropagationIndex& index = many.shard(0).propagation_index();
    ExpectAllEnginesShare(many, index);
    EXPECT_EQ(index.entry_count(), plain.propagation_index().entry_count());
    EXPECT_EQ(many.stats().index_entries, index.entry_count());
    std::string diff;
    EXPECT_TRUE(index.ConsistentWith(many_db, &diff)) << diff;
    for (uint32_t s = 0; s < many.num_shards(); ++s) {
      EXPECT_GT(many.shard(s).stats().index_lookups, 0u) << "shard " << s;
    }
    EXPECT_EQ(SortedLines(many.JournalLines()),
              SortedLines(one.JournalLines()));
    EXPECT_EQ(PropertySnapshot(many_db), PropertySnapshot(one_db));
  }
}

/// A use-link union that merges two subtrees and a rebalance after a
/// subtree split re-deal OIDs across shards; the shared index is not
/// touched by either, stays consistent with a rescan, and waves crossing
/// the new boundary still deliver as in the 1-shard run.
TEST(ShardedIndex, RebalanceMigratesBucketsAndWavesStillDeliver) {
  const auto build = [](ShardedEngine& engine, MetaDatabase& db,
                        std::vector<OidId>& oids,
                        metadb::LinkId& splitting_link) {
    // Two use-link subtrees {A, B, C} and {D, E, F} with edit-derive
    // chains inside and one bridge B -> E.
    for (const char* block : {"ra", "rb", "rc", "rd", "re", "rf"}) {
      oids.push_back(engine.OnCreateObject(block, "sch", "test"));
    }
    splitting_link = db.CreateLink(LinkKind::kUse, oids[0], oids[1], {"edit"},
                                   "", CarryPolicy::kNone);
    db.CreateLink(LinkKind::kUse, oids[1], oids[2], {"edit"}, "",
                  CarryPolicy::kNone);
    db.CreateLink(LinkKind::kUse, oids[3], oids[4], {"edit"}, "",
                  CarryPolicy::kNone);
    db.CreateLink(LinkKind::kDerive, oids[1], oids[4], {"edit"}, "",
                  CarryPolicy::kNone);
    engine.shard_map().Rebalance();
    // Incremental union: F joins {D, E} under D's shard.
    db.CreateLink(LinkKind::kUse, oids[4], oids[5], {"edit"}, "",
                  CarryPolicy::kNone);
    // Split {A} off {B, C}: dirties the map until RebalanceShards.
    db.DeleteLink(splitting_link);
  };

  const auto drive = [](ShardedEngine& engine) {
    engine.RebalanceShards();
    engine.PostEvent(Event("edit", Oid{"rb", "sch", 1}, Direction::kDown));
    engine.Drain();
    return SortedLines(engine.JournalLines());
  };

  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.deterministic = true;
  ShardedEngine many(db, clock, options);
  std::vector<OidId> oids;
  metadb::LinkId splitting_link;
  build(many, db, oids, splitting_link);

  const engine::PropagationIndex& index = many.shard(0).propagation_index();
  const size_t entries_before = index.entry_count();
  std::vector<uint32_t> shards_before;
  for (const OidId id : oids) {
    shards_before.push_back(many.shard_map().ShardOf(id));
  }
  const std::vector<std::string> many_lines = drive(many);

  // The re-deal moved OIDs between shards; the index kept every entry
  // and still matches a rescan.
  size_t moved = 0;
  for (size_t i = 0; i < oids.size(); ++i) {
    if (many.shard_map().ShardOf(oids[i]) != shards_before[i]) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(many.stats().rebalances, 3u);  // Construction, build, drive.
  EXPECT_EQ(index.entry_count(), entries_before);
  EXPECT_EQ(many.stats().index_entries, entries_before);
  ExpectAllEnginesShare(many, index);
  std::string diff;
  EXPECT_TRUE(index.ConsistentWith(db, &diff)) << diff;

  MetaDatabase one_db;
  SimClock one_clock;
  ShardedEngineOptions one_options;
  one_options.num_shards = 1;
  one_options.deterministic = true;
  ShardedEngine one(one_db, one_clock, one_options);
  std::vector<OidId> one_oids;
  metadb::LinkId one_split;
  build(one, one_db, one_oids, one_split);

  EXPECT_EQ(drive(one), many_lines);
}

/// Threaded 4 shards: link creates, deletes, endpoint
/// moves, PROPAGATE rewrites and retemplates interleave with use-link
/// unions, rebalances and waves still running when the next structural
/// call arrives (it waits for them). After every drain the shared index
/// matches a rescan, and the journal multiset and property state equal
/// a 1-shard run of the same script. Concurrent waves only write
/// commuting values: outofdate waves all clear uptodate, res0 events
/// write their own target, "edit" writes nothing, and a ckin (which sets
/// uptodate) runs alone.
TEST(ShardedIndex, ThreadedInterleavedEditsKeepSharedIndexExact) {
  workload::FlowSpec flow;
  flow.n_views = 3;
  const std::string strict = workload::MakeFlowBlueprint(flow, "strict");
  workload::FlowSpec loose_flow = flow;
  loose_flow.propagation_cutoff = 1;
  const std::string loose = workload::MakeFlowBlueprint(loose_flow, "loose");
  const std::vector<std::string> views = workload::FlowViewNames(flow);

  for (const uint64_t seed : {5u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MetaDatabase one_db;
    SimClock one_clock;
    ShardedEngineOptions one_options;
    one_options.deterministic = true;
    ShardedEngine one(one_db, one_clock, one_options);

    MetaDatabase many_db;
    SimClock many_clock;
    ShardedEngineOptions many_options;
    many_options.num_shards = 4;
    many_options.worker_threads = 4;
    ShardedEngine many(many_db, many_clock, many_options);

    // Every step runs on both engines. A structural step must first see
    // the waves posted before it finish: the threaded engine's entry
    // points wait by themselves, direct database edits call
    // AwaitQuiescence, and the deterministic reference drains.
    const auto both = [&](const auto& step) {
      step(one, one_db);
      step(many, many_db);
    };
    const auto quiesce = [&] {
      one.Drain();
      many.AwaitQuiescence();
    };

    both([&](ShardedEngine& engine, MetaDatabase&) {
      engine.LoadBlueprintText(strict);
    });
    std::vector<OidId> oids;
    std::vector<OidId> roots;  // view_0 objects: use-link endpoints.
    std::vector<metadb::LinkId> links;
    for (int b = 0; b < 8; ++b) {
      const std::string block = "blk" + std::to_string(b);
      OidId previous;
      for (size_t v = 0; v < views.size(); ++v) {
        OidId id;
        both([&](ShardedEngine& engine, MetaDatabase&) {
          id = engine.OnCreateObject(block, views[v], "test");
        });
        oids.push_back(id);
        if (v == 0) roots.push_back(id);
        if (v > 0) {
          metadb::LinkId link;
          both([&](ShardedEngine& engine, MetaDatabase&) {
            link = engine.OnCreateLink(LinkKind::kDerive, previous, id);
          });
          links.push_back(link);
        }
        previous = id;
      }
    }
    both([](ShardedEngine& engine, MetaDatabase&) {
      engine.shard_map().Rebalance();
    });

    Rng rng(seed);
    const auto pick = [&rng](const auto& pool) {
      return pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    };
    const auto random_propagates = [&rng] {
      std::vector<std::string> propagates;
      if (rng.Chance(0.7)) propagates.push_back("outofdate");
      if (rng.Chance(0.4)) propagates.push_back("edit");
      return propagates;
    };
    const auto live_link = [&]() -> std::optional<metadb::LinkId> {
      for (int tries = 0; tries < 8; ++tries) {
        const metadb::LinkId link = pick(links);
        if (one_db.GetLink(link).alive) return link;
      }
      return std::nullopt;
    };
    bool strict_installed = true;
    size_t drains = 0;
    for (int step = 0; step < 160; ++step) {
      const double draw = rng.UniformDouble();
      if (draw < 0.3) {
        // A batch of waves, left running.
        const int waves = static_cast<int>(rng.UniformInt(1, 4));
        for (int w = 0; w < waves; ++w) {
          const Oid target = one_db.OidOf(pick(oids));
          const double kind = rng.UniformDouble();
          EventMessage event = Event("outofdate", target, Direction::kDown);
          if (kind >= 0.7) {
            event = Event("res0", target, Direction::kDown,
                          rng.Chance(0.5) ? "good" : "bad");
          } else if (kind >= 0.5) {
            event = Event("edit", target, Direction::kDown);
          }
          both([&](ShardedEngine& engine, MetaDatabase&) {
            engine.PostEvent(event);
          });
        }
      } else if (draw < 0.35) {
        const EventMessage event =
            Event("ckin", one_db.OidOf(pick(oids)), Direction::kUp, "rev");
        quiesce();
        both([&](ShardedEngine& engine, MetaDatabase&) {
          engine.PostEvent(event);
        });
        quiesce();
      } else if (draw < 0.47) {
        const OidId from = pick(oids);
        const OidId to = pick(oids);
        if (from == to) continue;
        const std::vector<std::string> propagates = random_propagates();
        quiesce();
        metadb::LinkId link;
        both([&](ShardedEngine&, MetaDatabase& db) {
          link = db.CreateLink(LinkKind::kDerive, from, to, propagates, "",
                               CarryPolicy::kNone);
        });
        links.push_back(link);
      } else if (draw < 0.55) {
        const std::optional<metadb::LinkId> link = live_link();
        if (!link) continue;
        quiesce();
        both([&](ShardedEngine&, MetaDatabase& db) { db.DeleteLink(*link); });
      } else if (draw < 0.65) {
        const std::optional<metadb::LinkId> link = live_link();
        if (!link) continue;
        const metadb::Link& current = one_db.GetLink(*link);
        const bool endpoint_from = rng.Chance(0.5);
        const OidId target =
            current.kind == LinkKind::kUse ? pick(roots) : pick(oids);
        if (target == (endpoint_from ? current.to : current.from)) continue;
        quiesce();
        both([&](ShardedEngine&, MetaDatabase& db) {
          db.MoveLinkEndpoint(*link, endpoint_from, target);
        });
      } else if (draw < 0.73) {
        const std::optional<metadb::LinkId> link = live_link();
        if (!link) continue;
        const std::vector<std::string> propagates = random_propagates();
        quiesce();
        both([&](ShardedEngine&, MetaDatabase& db) {
          db.SetLinkPropagates(*link, propagates);
        });
      } else if (draw < 0.81) {
        // Use-link union of two subtrees.
        const OidId parent = pick(roots);
        const OidId child = pick(roots);
        if (parent == child) continue;
        one.Drain();
        metadb::LinkId link;
        both([&](ShardedEngine& engine, MetaDatabase&) {
          link = engine.OnCreateLink(LinkKind::kUse, parent, child);
        });
        links.push_back(link);
      } else if (draw < 0.86) {
        one.Drain();
        both([](ShardedEngine& engine, MetaDatabase&) {
          engine.RebalanceShards();
        });
      } else if (draw < 0.9) {
        strict_installed = !strict_installed;
        one.Drain();
        both([&](ShardedEngine& engine, MetaDatabase&) {
          engine.LoadBlueprintText(strict_installed ? strict : loose);
          engine.shard(0).RetemplateLinks();
        });
      } else {
        one.Drain();
        many.Drain();
        ++drains;
        const engine::PropagationIndex& index =
            many.shard(0).propagation_index();
        std::string diff;
        ASSERT_TRUE(index.ConsistentWith(many_db, &diff))
            << "step " << step << ": " << diff;
        ASSERT_EQ(index.entry_count(),
                  one.shard(0).propagation_index().entry_count())
            << "step " << step;
        ASSERT_EQ(SortedLines(one.JournalLines()),
                  SortedLines(many.JournalLines()))
            << "step " << step;
        ASSERT_EQ(PropertySnapshot(one_db), PropertySnapshot(many_db))
            << "step " << step;
      }
    }
    EXPECT_GT(drains, 5u);
    ExpectAllEnginesShare(many, many.shard(0).propagation_index());
    EXPECT_GT(many.stats().handoff_waves, 0u);
  }
}

// --- Batched handoff & seed-batch splitting ----------------------------------

/// One hub block (its own subtree) with derive links to `spokes`
/// foreign single-block subtrees, every link propagating "edit": a
/// boundary-heavy wave whose receivers interleave across all shards.
struct HubSpokes {
  OidId hub;
  std::vector<OidId> spokes;
};

HubSpokes BuildHubSpokes(ShardedEngine& engine, MetaDatabase& db,
                         int spokes) {
  HubSpokes design;
  design.hub = engine.OnCreateObject("hub", "sch", "test");
  for (int i = 0; i < spokes; ++i) {
    design.spokes.push_back(
        engine.OnCreateObject("spoke" + std::to_string(i), "sch", "test"));
  }
  engine.shard_map().Rebalance();  // Round-robin: spokes cycle the shards.
  for (const OidId spoke : design.spokes) {
    db.CreateLink(LinkKind::kDerive, design.hub, spoke, {"edit"}, "",
                  CarryPolicy::kNone);
  }
  return design;
}

std::vector<std::string> DriveHubWave(ShardedEngine& engine) {
  engine.PostEvent(Event("edit", Oid{"hub", "sch", 1}, Direction::kDown));
  engine.Drain();
  return SortedLines(engine.JournalLines());
}

/// Handoff posts ONE aggregated sub-wave per (epoch, target shard) no
/// matter how receivers interleave, and delivers exactly what the
/// 1-shard deterministic run delivers.
TEST(ShardedBatching, HandoffAggregatesPerTargetShard) {
  constexpr int kSpokes = 24;

  const auto run = [&](uint32_t shards, ShardedStats& stats_out,
                       size_t& foreign_out) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.deterministic = true;
    ShardedEngine engine(db, clock, options);
    const HubSpokes design = BuildHubSpokes(engine, db, kSpokes);
    const uint32_t hub_shard = engine.shard_map().ShardOf(design.hub);
    foreign_out = static_cast<size_t>(std::count_if(
        design.spokes.begin(), design.spokes.end(), [&](OidId spoke) {
          return engine.shard_map().ShardOf(spoke) != hub_shard;
        }));
    const std::vector<std::string> lines = DriveHubWave(engine);
    stats_out = engine.stats();
    return lines;
  };

  ShardedStats sharded_stats;
  ShardedStats single_stats;
  size_t foreign = 0;
  size_t single_foreign = 0;
  const std::vector<std::string> sharded_lines = run(3, sharded_stats, foreign);
  const std::vector<std::string> single_lines =
      run(1, single_stats, single_foreign);

  // Same deliveries as one shard...
  EXPECT_EQ(sharded_lines, single_lines);
  EXPECT_EQ(single_stats.handoff_waves, 0u);
  // ...with every foreign spoke carried as a seed, yet one task per
  // foreign shard (round-robin spokes never put two consecutive
  // receivers on the same shard).
  EXPECT_EQ(foreign, static_cast<size_t>(kSpokes) * 2 / 3);
  EXPECT_EQ(sharded_stats.handoff_seeds, foreign);
  EXPECT_EQ(sharded_stats.handoff_waves, 2u);
}

/// A batch above max_batch_seeds splits into consecutive FIFO chunks:
/// nothing is dropped, nothing reorders (the target shard's journal
/// delivers the seeds in handoff order), and the split is visible in
/// the stats.
TEST(ShardedBatching, SeedBatchSplitsKeepFifoOrder) {
  constexpr int kSpokes = 23;
  constexpr size_t kChunk = 4;

  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.deterministic = true;
  options.max_batch_seeds = kChunk;
  ShardedEngine engine(db, clock, options);

  // All spokes in ONE foreign subtree: a single pending wave whose
  // seed list far exceeds the chunk size.
  const OidId hub = engine.OnCreateObject("hub", "sch", "test");
  const OidId root = engine.OnCreateObject("faraway", "sch", "test");
  std::vector<OidId> spokes{root};
  for (int i = 1; i < kSpokes; ++i) {
    const OidId spoke =
        engine.OnCreateObject("faraway_s" + std::to_string(i), "sch", "test");
    db.CreateLink(LinkKind::kUse, root, spoke, {}, "", CarryPolicy::kNone);
    spokes.push_back(spoke);
  }
  engine.shard_map().Rebalance();
  ASSERT_NE(engine.shard_map().ShardOf(hub), engine.shard_map().ShardOf(root));
  for (const OidId spoke : spokes) {
    db.CreateLink(LinkKind::kDerive, hub, spoke, {"edit"}, "",
                  CarryPolicy::kNone);
  }

  engine.PostEvent(Event("edit", Oid{"hub", "sch", 1}, Direction::kDown));
  engine.Drain();

  const ShardedStats stats = engine.stats();
  const size_t expected_chunks = (kSpokes + kChunk - 1) / kChunk;
  EXPECT_EQ(stats.handoff_seeds, static_cast<size_t>(kSpokes));
  EXPECT_EQ(stats.handoff_waves, expected_chunks);
  EXPECT_EQ(stats.seed_batch_splits, expected_chunks - 1);

  // The foreign shard delivered every spoke exactly once, in handoff
  // (= adjacency) order across the chunk boundaries.
  const uint32_t far_shard = engine.shard_map().ShardOf(root);
  const events::EventJournal& journal = engine.shard(far_shard).journal();
  ASSERT_EQ(journal.Size(), static_cast<size_t>(kSpokes));
  EXPECT_EQ(journal.At(0).event.target.block, "faraway");
  for (int i = 1; i < kSpokes; ++i) {
    EXPECT_EQ(journal.At(static_cast<size_t>(i)).event.target.block,
              "faraway_s" + std::to_string(i))
        << "delivery " << i << " out of order";
  }
}

/// Chunked batches wider than the sub-wave ring must spill FIFO-intact
/// through the locked overflow deque — no drops, no duplicates — and
/// the delivered multiset must match the deterministic run.
TEST(ShardedBatching, SeedBatchSpillsAtRingBoundaryWithoutLoss) {
  constexpr int kSpokes = 40;
  constexpr int kWaves = 16;

  const auto run = [&](bool deterministic) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 3;
    options.deterministic = deterministic;
    options.max_batch_seeds = 2;  // Many tasks per wave...
    options.queue_capacity = 4;   // ...through a tiny ring: forced spill.
    ShardedEngine engine(db, clock, options);
    BuildHubSpokes(engine, db, kSpokes);
    for (int i = 0; i < kWaves; ++i) {
      engine.PostEvent(Event("edit", Oid{"hub", "sch", 1}, Direction::kDown,
                             "w" + std::to_string(i)));
    }
    engine.Drain();
    EXPECT_EQ(engine.AggregateEngineStats().propagated_deliveries,
              static_cast<size_t>(kSpokes * kWaves));
    if (!deterministic) {
      EXPECT_GT(engine.stats().ring_overflows, 0u);
    }
    return SortedLines(engine.JournalLines());
  };

  EXPECT_EQ(run(/*deterministic=*/true), run(/*deterministic=*/false));
}

// --- One executor per lane ---------------------------------------------------

/// The journal ordering oracle for top-level FIFO: a shard's externally
/// originated records must appear in strictly increasing wave-epoch
/// order (intake mints epochs in post order, and a lane's event queue
/// has one consumer, so a stalled lane's queued top-level waves never
/// reorder).
void ExpectTopLevelFifo(const ShardedEngine& engine) {
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const events::EventJournal& journal = engine.shard(s).journal();
    uint64_t last_epoch = 0;
    for (size_t i = 0; i < journal.Size(); ++i) {
      const events::JournalRecord record = journal.At(i);
      if (record.event.origin != events::EventOrigin::kExternal) continue;
      EXPECT_GT(record.event.wave_epoch, last_epoch)
          << "shard " << s << " reordered top-level waves (record " << i
          << ")";
      last_epoch = record.event.wave_epoch;
    }
  }
}

/// Every record in shard K's journal targets an OID the shard map
/// assigns to K: each lane's tasks run only on its occupant, so no two
/// executors ever deliver to the same OID at once.
void ExpectShardsDeliverOwnOids(const ShardedEngine& engine,
                                const MetaDatabase& db) {
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const events::EventJournal& journal = engine.shard(s).journal();
    for (size_t i = 0; i < journal.Size(); ++i) {
      const events::JournalRecord record = journal.At(i);
      const std::optional<OidId> id = db.FindObject(record.event.target);
      ASSERT_TRUE(id.has_value()) << "shard " << s << " record " << i;
      EXPECT_EQ(engine.shard_map().ShardOf(*id), s)
          << "shard " << s << " delivered a foreign OID (record " << i
          << ")";
    }
  }
}

/// A stalled lane keeps its top-level waves FIFO and runs every one of
/// its tasks itself: shard H grinds a long queue of wide local waves
/// while shard L floods H with cross-shard sub-waves, which queue on H
/// until H's occupant reaches them. Delivered multiset stays equal to
/// the 1-shard reference.
TEST(ShardedFifo, StalledLaneTopLevelFifoHolds) {
  constexpr int kChildren = 400;
  constexpr int kBridged = 200;
  constexpr int kHubEvents = 30;
  constexpr int kFeederEvents = 60;

  const auto build = [&](ShardedEngine& engine, MetaDatabase& db) {
    // Heavy subtree: hub + kChildren use-linked children, all
    // propagating "edit" (wide, slow top-level waves).
    const OidId hub = engine.OnCreateObject("heavy", "sch", "test");
    std::vector<OidId> children;
    for (int i = 0; i < kChildren; ++i) {
      const OidId child =
          engine.OnCreateObject("heavy_c" + std::to_string(i), "sch", "test");
      db.CreateLink(LinkKind::kUse, hub, child, {"edit"}, "",
                    CarryPolicy::kNone);
      children.push_back(child);
    }
    // Light subtree: one feeder whose derive links bridge into the
    // heavy shard's children.
    const OidId feeder = engine.OnCreateObject("feeder", "sch", "test");
    engine.shard_map().Rebalance();
    for (int i = 0; i < kBridged; ++i) {
      db.CreateLink(LinkKind::kDerive, feeder,
                    children[static_cast<size_t>(i)], {"edit"}, "",
                    CarryPolicy::kNone);
    }
  };

  const auto post_all = [&](ShardedEngine& engine) {
    for (int i = 0; i < kHubEvents; ++i) {
      engine.PostEvent(Event("edit", Oid{"heavy", "sch", 1}, Direction::kDown,
                             "h" + std::to_string(i)));
    }
    for (int i = 0; i < kFeederEvents; ++i) {
      engine.PostEvent(Event("edit", Oid{"feeder", "sch", 1},
                             Direction::kDown, "f" + std::to_string(i)));
    }
    engine.Drain();
  };

  // 1-shard deterministic reference.
  MetaDatabase ref_db;
  SimClock ref_clock;
  ShardedEngineOptions ref_options;
  ref_options.num_shards = 1;
  ref_options.deterministic = true;
  ShardedEngine reference(ref_db, ref_clock, ref_options);
  build(reference, ref_db);
  post_all(reference);

  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.worker_threads = 2;
  ShardedEngine engine(db, clock, options);
  build(engine, db);
  post_all(engine);

  EXPECT_EQ(SortedLines(reference.JournalLines()),
            SortedLines(engine.JournalLines()));
  ExpectTopLevelFifo(engine);
  ExpectShardsDeliverOwnOids(engine, db);
  EXPECT_EQ(engine.stats().handoff_seeds,
            static_cast<size_t>(kBridged * kFeederEvents));
  EXPECT_EQ(engine.stats().stolen_subwaves, 0u);
  // The claim stores merged out completed waves behind the published
  // purge floor (thousands of claims ran).
  EXPECT_GT(engine.stats().claim_purge_floor, 0u);
  // Every engine expands waves through the shared index: none falls
  // back to adjacency scans.
  EXPECT_EQ(engine.AggregateEngineStats().links_scanned, 0u);
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMap, GroupsBlocksBySubtreeAndIgnoresDeriveLinks) {
  MetaDatabase db;
  ShardMap map(db, 4);

  const OidId top = db.CreateNextVersion("top", "sch", "t", 0);
  const OidId child = db.CreateNextVersion("top_a", "sch", "t", 0);
  const OidId other = db.CreateNextVersion("lib", "sch", "t", 0);

  db.CreateLink(LinkKind::kUse, top, child, {"edit"}, "", CarryPolicy::kNone);
  EXPECT_EQ(map.RootBlockOf(child), "top");
  EXPECT_EQ(map.ShardOf(child), map.ShardOf(top));

  // Derive links do not merge subtrees.
  db.CreateLink(LinkKind::kDerive, other, child, {"edit"}, "",
                CarryPolicy::kNone);
  EXPECT_EQ(map.RootBlockOf(other), "lib");
  EXPECT_FALSE(map.dirty());

  // All versions and views of a block share its group.
  const OidId top_v2 = db.CreateNextVersion("top", "sch", "t", 0);
  const OidId top_net = db.CreateNextVersion("top", "net", "t", 0);
  EXPECT_EQ(map.ShardOf(top_v2), map.ShardOf(top));
  EXPECT_EQ(map.ShardOf(top_net), map.ShardOf(top));
}

TEST(ShardMap, UseLinkRemovalDirtiesAndRebalanceSplits) {
  MetaDatabase db;
  ShardMap map(db, 4);

  const OidId top = db.CreateNextVersion("top", "sch", "t", 0);
  const OidId child = db.CreateNextVersion("sub", "sch", "t", 0);
  const metadb::LinkId link =
      db.CreateLink(LinkKind::kUse, top, child, {}, "", CarryPolicy::kNone);
  ASSERT_EQ(map.RootBlockOf(child), "top");

  db.DeleteLink(link);
  EXPECT_TRUE(map.dirty());
  map.Rebalance();
  EXPECT_FALSE(map.dirty());
  EXPECT_EQ(map.RootBlockOf(child), "sub");
  EXPECT_EQ(map.RootBlockOf(top), "top");
}

/// Oracle: after a random sequence of use-link adds, endpoint moves and
/// deletions plus a rebalance, every OID's root block must match a
/// from-scratch recomputation, and every block of a component must sit
/// on the same (valid) shard.
TEST(ShardMap, OracleAfterRandomLinkMoves) {
  for (const uint64_t seed : {3u, 17u, 2026u}) {
    MetaDatabase db;
    constexpr uint32_t kShards = 4;
    ShardMap map(db, kShards);
    Rng rng(seed);

    // A pool of single-view blocks (use links need one view type).
    std::vector<OidId> oids;
    for (int i = 0; i < 24; ++i) {
      oids.push_back(
          db.CreateNextVersion("b" + std::to_string(i), "sch", "t", 0));
    }
    std::vector<metadb::LinkId> links;
    const auto random_oid = [&] {
      return oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
    };
    for (int step = 0; step < 120; ++step) {
      const double draw = rng.UniformDouble();
      if (draw < 0.55 || links.empty()) {
        const OidId from = random_oid();
        const OidId to = random_oid();
        if (from == to) continue;
        links.push_back(db.CreateLink(LinkKind::kUse, from, to, {}, "",
                                      CarryPolicy::kNone));
      } else if (draw < 0.8) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(links.size()) - 1));
        const metadb::LinkId link = links[pick];
        if (!db.GetLink(link).alive) continue;
        const bool endpoint_from = rng.Chance(0.5);
        const OidId target = random_oid();
        const metadb::Link& current = db.GetLink(link);
        const OidId other = endpoint_from ? current.to : current.from;
        if (target == other) continue;
        db.MoveLinkEndpoint(link, endpoint_from, target);
      } else {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(links.size()) - 1));
        if (db.GetLink(links[pick]).alive) db.DeleteLink(links[pick]);
      }
    }

    map.Rebalance();

    // Oracle: recompute components over live use links; the root is the
    // earliest-created block of the component.
    std::map<std::string, std::set<std::string>> adjacency;
    db.ForEachLink([&](metadb::LinkId, const metadb::Link& link) {
      if (link.kind != LinkKind::kUse) return;
      const std::string& from = db.BlockOf(db.GetObject(link.from));
      const std::string& to = db.BlockOf(db.GetObject(link.to));
      adjacency[from].insert(to);
      adjacency[to].insert(from);
    });
    const auto oracle_root = [&](const std::string& block) {
      std::set<std::string> component{block};
      std::vector<std::string> frontier{block};
      while (!frontier.empty()) {
        const std::string current = frontier.back();
        frontier.pop_back();
        for (const std::string& next : adjacency[current]) {
          if (component.insert(next).second) frontier.push_back(next);
        }
      }
      // Creation order is b0, b1, ...: the numerically smallest index
      // was created (and interned) first.
      std::string best = block;
      int best_index = std::stoi(block.substr(1));
      for (const std::string& member : component) {
        const int index = std::stoi(member.substr(1));
        if (index < best_index) {
          best_index = index;
          best = member;
        }
      }
      return best;
    };

    for (const OidId id : oids) {
      const std::string& block = db.BlockOf(db.GetObject(id));
      EXPECT_EQ(map.RootBlockOf(id), oracle_root(block))
          << "seed " << seed << " block " << block;
      EXPECT_LT(map.ShardOf(id), kShards);
    }
    // Same component => same shard.
    for (const OidId a : oids) {
      for (const OidId b : oids) {
        if (map.RootBlockOf(a) == map.RootBlockOf(b)) {
          EXPECT_EQ(map.ShardOf(a), map.ShardOf(b));
        }
      }
    }
  }
}

// Batch mode (auto_drain=false) with back-to-back check-ins and links
// and no Drain in between: every structural call must wait out the
// waves the previous check-in posted instead of appending slots and
// rehashing indexes under them (under ASan this was a use-after-free
// in FindObject). Waiting makes each call see the state a drain after
// every check-in leaves, so the end state equals a 1-shard interactive
// build's.
TEST(ShardedBatchMode, BackToBackFlowsWithoutDrainsMatchOneShard) {
  const workload::FlowSpec flow;
  const auto build = [&](uint32_t shards, bool auto_drain) {
    engine::ServerOptions options;
    options.num_shards = shards;
    options.auto_drain = auto_drain;
    engine::ProjectServer server("batch", options);
    server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "batch"));
    for (int block = 0; block < 24; ++block) {
      workload::InstantiateFlow(server, flow, "blk" + std::to_string(block));
    }
    server.Drain();
    return metadb::SaveDatabaseString(server.database());
  };
  const std::string expected = build(1, /*auto_drain=*/true);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(build(4, /*auto_drain=*/false), expected) << "round " << round;
  }
}

// The same contract, checked directly: a structural call returns only
// after every wave queued before it has run, so a Drain right after it
// finds nothing left to process.
TEST(ShardedBatchMode, StructuralCallsWaitForQueuedWaves) {
  const workload::FlowSpec flow;
  engine::ServerOptions options;
  options.num_shards = 4;
  options.auto_drain = false;
  engine::ProjectServer server("batch", options);
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "batch"));
  std::vector<Oid> golden;
  for (int block = 0; block < 8; ++block) {
    golden.push_back(
        workload::InstantiateFlow(server, flow, "blk" + std::to_string(block)));
  }
  server.Drain();
  const ShardedEngine& sharded = *server.sharded_engine();
  const size_t before = sharded.stats().tasks_processed;
  constexpr size_t kWaves = 400;
  for (size_t i = 0; i < kWaves; ++i) {
    server.Submit(Event("outofdate", golden[i % golden.size()],
                        Direction::kDown));
  }
  server.RegisterLink(LinkKind::kDerive, golden[1], Oid{"blk0", "view_4", 1});
  const size_t after_link = sharded.stats().tasks_processed;
  EXPECT_GE(after_link - before, kWaves);
  server.Drain();
  EXPECT_EQ(sharded.stats().tasks_processed, after_link);
}

// --- Worker parking and drain help -------------------------------------------

/// Flow blocks with use-linked children, plus derive links from each
/// block into the next so outofdate waves hand off across shards.
std::vector<Oid> BuildBridgedFlows(ShardedEngine& engine, int blocks) {
  workload::FlowSpec flow;
  flow.n_views = 3;
  engine.LoadBlueprintText(workload::MakeFlowBlueprint(flow, "wake"));
  const std::vector<std::string> views = workload::FlowViewNames(flow);
  std::vector<OidId> roots;
  std::vector<OidId> second_views;
  for (int b = 0; b < blocks; ++b) {
    const std::string block = "blk" + std::to_string(b);
    OidId previous;
    for (size_t v = 0; v < views.size(); ++v) {
      const OidId id = engine.OnCreateObject(block, views[v], "test");
      if (v == 0) roots.push_back(id);
      if (v == 1) second_views.push_back(id);
      if (v > 0) engine.OnCreateLink(LinkKind::kDerive, previous, id);
      previous = id;
    }
    for (int c = 0; c < 2; ++c) {
      const OidId child = engine.OnCreateObject(
          block + "_sub" + std::to_string(c), views[0], "test");
      engine.OnCreateLink(LinkKind::kUse, roots.back(), child);
    }
  }
  engine.shard_map().Rebalance();
  const size_t n = roots.size();
  for (size_t b = 0; b < n; ++b) {
    engine.OnCreateLink(LinkKind::kDerive, roots[b], second_views[(b + 1) % n]);
  }
  std::vector<Oid> targets;
  for (int b = 0; b < blocks; ++b) {
    targets.push_back(Oid{"blk" + std::to_string(b), views[0], 1});
    targets.push_back(Oid{"blk" + std::to_string(b) + "_sub0", views[0], 1});
  }
  return targets;
}

/// The round-th event of the wake trace: outofdate waves (which cross
/// shards) and check-ins, over a fixed target list.
EventMessage WakeEvent(const std::vector<Oid>& targets, int round) {
  const Oid& target = targets[static_cast<size_t>(round) % targets.size()];
  return round % 3 == 0
             ? Event("ckin", target, Direction::kUp, std::to_string(round))
             : Event("outofdate", target, Direction::kDown);
}

std::vector<std::string> WakeReference(int rounds) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.deterministic = true;
  ShardedEngine reference(db, clock, options);
  const std::vector<Oid> targets = BuildBridgedFlows(reference, 6);
  for (int round = 0; round < rounds; ++round) {
    reference.PostEvent(WakeEvent(targets, round));
  }
  reference.Drain();
  return SortedLines(reference.JournalLines());
}

/// Workers must pick up posted work with nobody draining: every round
/// posts one event (alternately from this thread and from a second
/// one) and polls tasks_processed, without a Drain, until a worker ran
/// it. Every 100th round sleeps first so that all workers have parked.
TEST(ShardedWake, WorkersWakeWithoutDrain) {
  constexpr int kRounds = 2000;
  const std::vector<std::string> expected = WakeReference(kRounds);
  struct Config {
    uint32_t shards;
    size_t workers;
  };
  for (const Config config : {Config{4, 0}, Config{2, 1}}) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = config.shards;
    options.worker_threads = config.workers;
    ShardedEngine engine(db, clock, options);
    const std::vector<Oid> targets = BuildBridgedFlows(engine, 6);
    engine.Drain();
    for (int round = 0; round < kRounds; ++round) {
      if (round % 100 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      const size_t before = engine.stats().tasks_processed;
      if (round % 2 == 0) {
        engine.PostEvent(WakeEvent(targets, round));
      } else {
        std::thread poster([&engine, &targets, round] {
          engine.PostEvent(WakeEvent(targets, round));
        });
        poster.join();
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (engine.stats().tasks_processed == before) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << config.shards << " shards, round " << round
            << ": no worker woke for the posted event";
        std::this_thread::yield();
      }
    }
    engine.Drain();
    EXPECT_EQ(expected, SortedLines(engine.JournalLines()))
        << config.shards << " shards";
    ExpectTopLevelFifo(engine);
  }
}

/// Destroying an engine whose workers have all parked wakes and joins
/// every one of them (a lost shutdown wake would hang here).
TEST(ShardedWake, DestructorWakesParkedWorkers) {
  for (int cycle = 0; cycle < 200; ++cycle) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 4;
    auto engine = std::make_unique<ShardedEngine>(db, clock, options);
    const std::vector<Oid> targets = BuildBridgedFlows(*engine, 4);
    engine->PostEvent(WakeEvent(targets, cycle));
    engine->Drain();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    engine.reset();
  }
}

/// Create, post and Drain in a loop: the draining thread executes
/// queued tasks itself, and the results stay those of the one-shard
/// engine.
TEST(ShardedDrainHelp, CoordinatorRunsQueuedTasks) {
  constexpr int kRounds = 1000;
  const auto run = [](ShardedEngine& engine, MetaDatabase& db) {
    const std::vector<Oid> targets = BuildBridgedFlows(engine, 6);
    for (int round = 0; round < kRounds; ++round) {
      const Oid& parent = targets[static_cast<size_t>(round) % targets.size()];
      const std::string block = "r" + std::to_string(round);
      const OidId child = engine.OnCreateObject(block, parent.view, "test");
      engine.OnCreateLink(LinkKind::kUse, *db.FindObject(parent), child);
      engine.PostEvent(Event("ckin", Oid{block, parent.view, 1},
                             Direction::kUp, "rev"));
      engine.PostEvent(WakeEvent(targets, round));
      engine.Drain();
    }
  };

  MetaDatabase ref_db;
  SimClock ref_clock;
  ShardedEngineOptions ref_options;
  ref_options.num_shards = 1;
  ref_options.deterministic = true;
  ShardedEngine reference(ref_db, ref_clock, ref_options);
  run(reference, ref_db);
  const std::vector<std::string> expected =
      SortedLines(reference.JournalLines());

  for (const size_t workers : {size_t{0}, size_t{1}}) {
    MetaDatabase db;
    SimClock clock;
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.worker_threads = workers;
    ShardedEngine engine(db, clock, options);
    run(engine, db);
    EXPECT_GT(engine.stats().inline_tasks, 0u) << workers << " workers";
    EXPECT_LE(engine.stats().inline_tasks, engine.stats().tasks_processed);
    EXPECT_EQ(expected, SortedLines(engine.JournalLines()))
        << workers << " workers";
    ExpectTopLevelFifo(engine);
    // The drains' interning denial was scoped to the drains.
    EXPECT_NO_THROW(db.Intern("interned_after_drains"));
    engine.ResetStats();
    EXPECT_EQ(engine.stats().inline_tasks, 0u);
  }
}

}  // namespace
}  // namespace damocles
