// Randomized differential fuzz for the sharded wave engine's
// scheduling freedoms: (epoch, target shard) handoff batching, seed
// chunking, worker scheduling and the per-shard claim stores must all be
// invisible in the delivered record multiset and the final property
// state, under ANY schedule.
//
// Each seeded iteration builds a random topology (random use-link
// subtree structure, random cross-subtree derive links with random
// PROPAGATE lists — diamonds and cycles arise naturally) plus a random
// event schedule, then replays the identical workload through:
//   * a 1-shard deterministic engine       (the reference),
//   * an N-shard deterministic engine      (global ticket order),
//   * an N-shard THREADED engine, 1 worker (one executor services
//                                           every lane),
//   * an N-shard THREADED engine           (a worker per lane; small
//                                           rings + seed chunks so
//                                           spill paths run too),
// and asserts journal record-multiset equality, property-state
// equality and exactly-once delivery counts across all four. The rule
// set writes only constant values, so the final property state is
// schedule-invariant by construction and any divergence is an engine
// bug, not workload noise.
//
// The threaded variants run under TSan in CI (the suite name matches
// the TSan job's "Sharded" filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "engine/sharded_engine.hpp"
#include "metadb/meta_database.hpp"

namespace damocles {
namespace {

using engine::EngineStats;
using engine::ShardedEngine;
using engine::ShardedEngineOptions;
using events::Direction;
using events::EventMessage;
using metadb::CarryPolicy;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::Oid;
using metadb::OidId;

// Constant-valued rules only: any delivery order yields the same final
// property state. 'relay' exercises direction posts (fresh wave scopes
// mid-wave), 'poster' exercises queue-reposted 'post ... to' events.
constexpr const char* kFuzzBlueprint = R"(blueprint schedule_fuzz
view default
  when edit do edited = yes done
  when ckin do checked = yes done
endview
view relay
  when edit do post note down done
  when note do noted = yes done
  when ckin do checked = yes done
endview
view poster
  when ckin do post pulse down to sink done
  when edit do edited = yes done
endview
view sink
  when pulse do pulsed = yes done
  when note do noted = yes done
  when edit do edited = yes done
endview
endblueprint)";

/// One seeded random workload, replayable against any engine
/// configuration. Topology and schedule are derived from the seed
/// alone, so every engine sees byte-identical structure and intake.
struct FuzzPlan {
  struct LinkSpec {
    int from = 0;
    int to = 0;
    LinkKind kind = LinkKind::kDerive;
    std::vector<std::string> propagates;
  };
  struct EventSpec {
    std::string name;
    Direction direction = Direction::kDown;
    int target_block = 0;
    bool drain_after = false;
  };

  std::vector<std::string> views;   ///< Per block.
  std::vector<LinkSpec> links;
  std::vector<EventSpec> events;
};

FuzzPlan MakePlan(uint64_t seed) {
  Rng rng(seed);
  FuzzPlan plan;
  const int blocks = static_cast<int>(rng.UniformInt(8, 13));
  const char* kViews[] = {"sch", "sch", "relay", "poster", "sink"};
  for (int b = 0; b < blocks; ++b) {
    plan.views.push_back(kViews[rng.UniformInt(0, 4)]);
  }

  // Use links group blocks into subtrees (the shard unit); derive links
  // cross them freely and carry random PROPAGATE subsets, so waves
  // reconverge, cycle and cross shard boundaries.
  const int use_links = static_cast<int>(rng.UniformInt(2, blocks - 2));
  const int derive_links = static_cast<int>(rng.UniformInt(blocks, blocks * 2));
  const char* kEvents[] = {"edit", "ckin", "note"};
  for (int i = 0; i < use_links + derive_links; ++i) {
    FuzzPlan::LinkSpec link;
    link.from = static_cast<int>(rng.UniformInt(0, blocks - 1));
    link.to = static_cast<int>(rng.UniformInt(0, blocks - 1));
    if (link.from == link.to) continue;
    link.kind = i < use_links ? LinkKind::kUse : LinkKind::kDerive;
    if (link.kind == LinkKind::kUse &&
        plan.views[static_cast<size_t>(link.from)] !=
            plan.views[static_cast<size_t>(link.to)]) {
      continue;  // Use links require endpoints of one view type.
    }
    for (const char* event : kEvents) {
      if (rng.Chance(link.kind == LinkKind::kUse ? 0.5 : 0.6)) {
        link.propagates.push_back(event);
      }
    }
    plan.links.push_back(std::move(link));
  }

  const int events = static_cast<int>(rng.UniformInt(24, 48));
  for (int i = 0; i < events; ++i) {
    FuzzPlan::EventSpec event;
    const double draw = rng.UniformDouble();
    event.name = draw < 0.5 ? "edit" : (draw < 0.85 ? "ckin" : "note");
    event.direction = rng.Chance(0.7) ? Direction::kDown : Direction::kUp;
    event.target_block = static_cast<int>(rng.UniformInt(0, blocks - 1));
    event.drain_after = rng.Chance(0.15);
    plan.events.push_back(std::move(event));
  }
  return plan;
}

std::string BlockName(int index) { return "fz" + std::to_string(index); }

struct RunResult {
  std::vector<std::string> journal;         ///< Sorted record lines.
  std::map<std::string, std::string> properties;
  size_t propagated_deliveries = 0;
  size_t wave_deliveries = 0;
};

RunResult RunPlan(const FuzzPlan& plan, const ShardedEngineOptions& options) {
  MetaDatabase db;
  SimClock clock;
  ShardedEngine engine(db, clock, options);
  engine.LoadBlueprintText(kFuzzBlueprint);

  std::vector<OidId> oids;
  for (size_t b = 0; b < plan.views.size(); ++b) {
    oids.push_back(engine.OnCreateObject(BlockName(static_cast<int>(b)),
                                         plan.views[b], "fuzz"));
  }
  for (const FuzzPlan::LinkSpec& link : plan.links) {
    db.CreateLink(link.kind, oids[static_cast<size_t>(link.from)],
                  oids[static_cast<size_t>(link.to)], link.propagates, "",
                  CarryPolicy::kNone);
  }
  engine.shard_map().Rebalance();

  for (const FuzzPlan::EventSpec& spec : plan.events) {
    EventMessage event;
    event.name = spec.name;
    event.direction = spec.direction;
    event.target =
        Oid{BlockName(spec.target_block),
            plan.views[static_cast<size_t>(spec.target_block)], 1};
    event.user = "fuzz";
    event.timestamp = 1;  // Fixed stamp: runs compare byte-for-byte.
    engine.PostEvent(std::move(event));
    if (spec.drain_after) engine.Drain();
  }
  engine.Drain();

  RunResult result;
  result.journal = engine.JournalLines();
  std::sort(result.journal.begin(), result.journal.end());
  db.ForEachObject([&](OidId, const metadb::MetaObject& object) {
    for (const metadb::Property& property : object.properties) {
      result.properties[metadb::FormatOid(db.OidOf(object)) + "/" +
                        db.SymbolText(property.name)] = property.value;
    }
  });
  const EngineStats stats = engine.AggregateEngineStats();
  result.propagated_deliveries = stats.propagated_deliveries;
  result.wave_deliveries = stats.wave_deliveries;
  return result;
}

void RunSeedRange(uint64_t first_seed, uint64_t last_seed) {
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const FuzzPlan plan = MakePlan(seed);
    Rng config_rng(seed ^ 0x5eed5eed);
    const uint32_t shards =
        static_cast<uint32_t>(config_rng.UniformInt(2, 5));

    ShardedEngineOptions reference;
    reference.num_shards = 1;
    reference.deterministic = true;
    const RunResult expected = RunPlan(plan, reference);

    ShardedEngineOptions deterministic;
    deterministic.num_shards = shards;
    deterministic.deterministic = true;
    deterministic.max_batch_seeds =
        config_rng.Chance(0.5) ? 3 : deterministic.max_batch_seeds;

    ShardedEngineOptions threaded;
    threaded.num_shards = shards;
    threaded.max_batch_seeds = deterministic.max_batch_seeds;
    threaded.queue_capacity = config_rng.Chance(0.5) ? 4 : 256;

    ShardedEngineOptions single_worker = threaded;
    single_worker.worker_threads = 1;

    const struct {
      const char* name;
      const ShardedEngineOptions& options;
    } variants[] = {
        {"deterministic", deterministic},
        {"threaded one worker", single_worker},
        {"threaded", threaded},
    };
    for (const auto& variant : variants) {
      const RunResult actual = RunPlan(plan, variant.options);
      ASSERT_EQ(expected.journal, actual.journal)
          << variant.name << " seed " << seed << " shards " << shards;
      ASSERT_EQ(expected.properties, actual.properties)
          << variant.name << " seed " << seed << " shards " << shards;
      ASSERT_EQ(expected.propagated_deliveries, actual.propagated_deliveries)
          << variant.name << " seed " << seed << " shards " << shards;
      ASSERT_EQ(expected.wave_deliveries, actual.wave_deliveries)
          << variant.name << " seed " << seed << " shards " << shards;
    }
  }
}

// 4 × 55 = 220 seeded iterations, split so ctest parallelism and the
// TSan job spread them across cores.
TEST(ShardedScheduleFuzz, RandomTopologyDifferentialSeeds0To54) {
  RunSeedRange(0, 54);
}

TEST(ShardedScheduleFuzz, RandomTopologyDifferentialSeeds55To109) {
  RunSeedRange(55, 109);
}

TEST(ShardedScheduleFuzz, RandomTopologyDifferentialSeeds110To164) {
  RunSeedRange(110, 164);
}

TEST(ShardedScheduleFuzz, RandomTopologyDifferentialSeeds165To219) {
  RunSeedRange(165, 219);
}

}  // namespace
}  // namespace damocles
