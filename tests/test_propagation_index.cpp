// Tests for the propagation index: the engine's indexed wave-expansion
// fast path must stay consistent with a full link-graph rescan through
// every kind of link mutation, and the indexed engine must behave
// identically to the pre-index (linear scan) engine.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "engine/propagation_index.hpp"
#include "engine/run_time_engine.hpp"
#include "metadb/meta_database.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using engine::PropagationIndex;
using engine::RunTimeEngine;
using events::Direction;
using metadb::CarryPolicy;
using metadb::LinkId;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::OidId;

/// A database + engine pair; the engine's index is maintained through
/// the link-observer protocol from construction on.
struct Fixture {
  MetaDatabase db;
  SimClock clock;
  RunTimeEngine engine{db, clock};
};

/// The receivers of the event named `event` (resolved through the
/// database's symbol table, which the index keys on), or nullptr.
const PropagationIndex::Bucket* ReceiversOf(const MetaDatabase& db,
                                            const PropagationIndex& index,
                                            OidId source, Direction direction,
                                            std::string_view event) {
  const SymbolId sym = db.FindSymbol(event);
  if (sym == SymbolTable::kNoSymbol) return nullptr;
  return index.Receivers(source, direction, sym);
}

std::string MustBeConsistent(const RunTimeEngine& engine,
                             const MetaDatabase& db) {
  std::string diff;
  return engine.propagation_index().ConsistentWith(db, &diff) ? std::string()
                                                              : diff;
}

TEST(PropagationIndex, LinkAddUpdatesBothDirections) {
  Fixture f;
  const OidId a = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const LinkId link = f.db.CreateLink(LinkKind::kDerive, a, b, {"edit", "ok"},
                                      "derive_from", CarryPolicy::kNone);

  const PropagationIndex& index = f.engine.propagation_index();
  ASSERT_NE(ReceiversOf(f.db, index, a, Direction::kDown, "edit"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kDown, "edit")->front().neighbor,
            b);
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kDown, "edit")->front().link,
            link);
  ASSERT_NE(ReceiversOf(f.db, index, b, Direction::kUp, "ok"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, b, Direction::kUp, "ok")->front().neighbor, a);
  // Wrong direction / unknown event / unlinked OID: no receivers.
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kUp, "edit"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kDown, "nosuch"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, b, Direction::kDown, "edit"), nullptr);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

TEST(PropagationIndex, LinkDeleteRemovesEntries) {
  Fixture f;
  const OidId a = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const OidId c = f.db.CreateNextVersion("c", "net", "t", 0);
  const LinkId ab = f.db.CreateLink(LinkKind::kDerive, a, b, {"edit"}, "",
                                    CarryPolicy::kNone);
  f.db.CreateLink(LinkKind::kDerive, a, c, {"edit"}, "", CarryPolicy::kNone);

  f.db.DeleteLink(ab);
  const PropagationIndex& index = f.engine.propagation_index();
  const auto* bucket = ReceiversOf(f.db, index, a, Direction::kDown, "edit");
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 1u);
  EXPECT_EQ(bucket->front().neighbor, c);
  EXPECT_EQ(ReceiversOf(f.db, index, b, Direction::kUp, "edit"), nullptr);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

TEST(PropagationIndex, DeleteObjectDropsItsLinks) {
  Fixture f;
  const OidId a = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const OidId c = f.db.CreateNextVersion("c", "gds", "t", 0);
  f.db.CreateLink(LinkKind::kDerive, a, b, {"edit"}, "", CarryPolicy::kNone);
  f.db.CreateLink(LinkKind::kDerive, b, c, {"edit"}, "", CarryPolicy::kNone);

  f.db.DeleteObject(b);
  const PropagationIndex& index = f.engine.propagation_index();
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kDown, "edit"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, c, Direction::kUp, "edit"), nullptr);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

TEST(PropagationIndex, EndpointMovePatchesNeighborAndRelocatesBucket) {
  Fixture f;
  const OidId a1 = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const LinkId link = f.db.CreateLink(LinkKind::kDerive, a1, b, {"edit"}, "",
                                      CarryPolicy::kMove);
  const OidId a2 = f.db.CreateNextVersion("a", "sch", "t", 1);

  // Shift the source endpoint to the new version (paper Fig. 3).
  f.db.MoveLinkEndpoint(link, /*endpoint_from=*/true, a2);
  const PropagationIndex& index = f.engine.propagation_index();
  EXPECT_EQ(ReceiversOf(f.db, index, a1, Direction::kDown, "edit"), nullptr);
  ASSERT_NE(ReceiversOf(f.db, index, a2, Direction::kDown, "edit"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, a2, Direction::kDown, "edit")->front().neighbor,
            b);
  ASSERT_NE(ReceiversOf(f.db, index, b, Direction::kUp, "edit"), nullptr);
  EXPECT_EQ(ReceiversOf(f.db, index, b, Direction::kUp, "edit")->front().neighbor,
            a2);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

TEST(PropagationIndex, SetLinkPropagatesReindexes) {
  Fixture f;
  const OidId a = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const LinkId link = f.db.CreateLink(LinkKind::kDerive, a, b, {"edit"}, "",
                                      CarryPolicy::kNone);

  f.db.SetLinkPropagates(link, {"ok", "fail"});
  const PropagationIndex& index = f.engine.propagation_index();
  EXPECT_EQ(ReceiversOf(f.db, index, a, Direction::kDown, "edit"), nullptr);
  ASSERT_NE(ReceiversOf(f.db, index, a, Direction::kDown, "ok"), nullptr);
  ASSERT_NE(ReceiversOf(f.db, index, b, Direction::kUp, "fail"), nullptr);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

/// The oracle test the satellite asks for: a randomized storm of link
/// add / delete / endpoint-move / PROPAGATE-rewrite operations, with the
/// incrementally maintained index checked against a full rescan of the
/// link graph after every mutation batch.
TEST(PropagationIndex, RandomMutationStormMatchesFullRescan) {
  Fixture f;
  Rng rng(0xda40c1e5);

  const std::vector<std::string> kEvents = {"edit", "ok", "fail", "ckin",
                                            "outofdate"};
  std::vector<OidId> objects;
  for (int i = 0; i < 24; ++i) {
    objects.push_back(f.db.CreateNextVersion("blk" + std::to_string(i), "v",
                                             "t", i));
  }
  std::vector<LinkId> live_links;

  const auto random_propagates = [&]() {
    std::vector<std::string> propagates;
    for (const std::string& event : kEvents) {
      if (rng.Chance(0.4)) propagates.push_back(event);
    }
    return propagates;
  };

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.UniformDouble();
    if (roll < 0.45 || live_links.empty()) {
      const OidId from =
          objects[static_cast<size_t>(rng.UniformInt(0, 23))];
      const OidId to = objects[static_cast<size_t>(rng.UniformInt(0, 23))];
      if (from == to) continue;
      live_links.push_back(f.db.CreateLink(LinkKind::kDerive, from, to,
                                           random_propagates(), "",
                                           CarryPolicy::kNone));
    } else if (roll < 0.65) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live_links.size() - 1));
      f.db.DeleteLink(live_links[pick]);
      live_links.erase(live_links.begin() + pick);
    } else if (roll < 0.85) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live_links.size() - 1));
      const bool endpoint_from = rng.Chance(0.5);
      const OidId target =
          objects[static_cast<size_t>(rng.UniformInt(0, 23))];
      const metadb::Link& link = f.db.GetLink(live_links[pick]);
      const OidId other = endpoint_from ? link.to : link.from;
      if (target == other) continue;
      f.db.MoveLinkEndpoint(live_links[pick], endpoint_from, target);
    } else {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live_links.size() - 1));
      f.db.SetLinkPropagates(live_links[pick], random_propagates());
    }

    ASSERT_EQ(MustBeConsistent(f.engine, f.db), "") << "after step " << step;
  }
  // The storm must have actually exercised the index.
  EXPECT_GT(f.engine.propagation_index().entry_count(), 0u);
}

/// Bucket order must equal the order a full adjacency scan visits the
/// qualifying links — that is what makes the indexed engine's delivery
/// order identical to the pre-index engine's.
TEST(PropagationIndex, BucketOrderMatchesAdjacencyScan) {
  Fixture f;
  const OidId hub = f.db.CreateNextVersion("hub", "v", "t", 0);
  std::vector<OidId> spokes;
  for (int i = 0; i < 12; ++i) {
    spokes.push_back(
        f.db.CreateNextVersion("spoke" + std::to_string(i), "v", "t", 0));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 12; ++i) {
    // Every third link does not propagate "edit".
    std::vector<std::string> propagates =
        (i % 3 == 2) ? std::vector<std::string>{"ok"}
                     : std::vector<std::string>{"edit", "ok"};
    links.push_back(f.db.CreateLink(LinkKind::kDerive, hub, spokes[i],
                                    std::move(propagates), "",
                                    CarryPolicy::kNone));
  }
  f.db.DeleteLink(links[4]);
  f.db.DeleteLink(links[7]);

  const auto scan_order = [&]() {
    std::vector<OidId> order;
    for (const LinkId id : f.db.OutLinks(hub)) {
      const metadb::Link& link = f.db.GetLink(id);
      if (link.Propagates("edit")) order.push_back(link.to);
    }
    return order;
  };
  const auto* bucket =
      ReceiversOf(f.db, f.engine.propagation_index(), hub, Direction::kDown, "edit");
  ASSERT_NE(bucket, nullptr);
  std::vector<OidId> indexed;
  for (const auto& entry : *bucket) indexed.push_back(entry.neighbor);
  EXPECT_EQ(indexed, scan_order());
}

/// Differential test: the EDTC workload processed by an indexed engine
/// and by a pre-index (linear scan) engine must produce identical
/// journals and identical propagation statistics.
TEST(PropagationIndex, IndexedEngineMatchesScanEngine) {
  const auto run = [](bool use_index) {
    engine::ServerOptions options;
    options.engine.use_propagation_index = use_index;
    auto server = std::make_unique<engine::ProjectServer>("diff", options);
    server->InitializeBlueprint(workload::EdtcBlueprintText());

    workload::HierarchySpec spec;
    spec.depth = 3;
    spec.fanout = 2;
    spec.view = "HDL_model";
    spec.root_block = "CPU";
    workload::BuildHierarchy(*server, spec);
    // Check-ins ripple ckin waves (and carry links across versions).
    for (int round = 0; round < 3; ++round) {
      server->CheckIn("CPU", "HDL_model", "rev", "alice");
      server->CheckIn("CPU", "schematic", "rev", "bob");
      server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model," +
                                 std::to_string(round + 2) + " good",
                             "alice");
    }
    // Phase switch: loosen (PROPAGATE lists emptied by retemplating),
    // work under the loose blueprint, tighten again. Covers
    // SetLinkPropagates bucket rebuilds and the blueprint-install
    // Rebuild on a link graph reordered by carry moves.
    server->InitializeBlueprint(R"(blueprint loosened
                                   view default
                                   endview
                                   endblueprint)");
    server->CheckIn("CPU", "HDL_model", "loose rev", "alice");
    server->InitializeBlueprint(workload::EdtcBlueprintText());
    server->CheckIn("CPU", "HDL_model", "strict rev", "alice");
    server->CheckIn("CPU", "schematic", "strict rev", "bob");
    return server;
  };

  const auto indexed = run(true);
  const auto scanning = run(false);

  EXPECT_EQ(indexed->engine().journal().Dump(),
            scanning->engine().journal().Dump());
  const engine::EngineStats& a = indexed->engine().stats();
  const engine::EngineStats& b = scanning->engine().stats();
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.propagated_deliveries, b.propagated_deliveries);
  EXPECT_EQ(a.wave_deliveries, b.wave_deliveries);
  EXPECT_EQ(a.waves_started, b.waves_started);
  EXPECT_EQ(a.wave_batches, b.wave_batches);
  EXPECT_EQ(a.property_writes, b.property_writes);
  EXPECT_EQ(a.max_wave_extent, b.max_wave_extent);
  // Each engine used its own expansion path.
  EXPECT_GT(a.index_lookups, 0u);
  EXPECT_EQ(a.links_scanned, 0u);
  EXPECT_EQ(b.index_lookups, 0u);
  // The indexed server's database saw real mutations throughout.
  EXPECT_EQ(MustBeConsistent(indexed->engine(), indexed->database()), "");
}

/// Re-installing a blueprint between phases retemplates every live link
/// (possibly rewriting PROPAGATE lists wholesale); the index must follow.
TEST(PropagationIndex, RetemplateKeepsIndexConsistent) {
  auto server = testutil::MakeEdtcServer();
  workload::HierarchySpec spec;
  spec.depth = 2;
  spec.fanout = 3;
  spec.view = "HDL_model";
  spec.root_block = "CPU";
  workload::BuildHierarchy(*server, spec);
  server->CheckIn("CPU", "HDL_model", "rev", "alice");
  ASSERT_EQ(MustBeConsistent(server->engine(), server->database()), "");

  // A loosened phase: a minimal blueprint whose templates propagate
  // nothing — retemplate_on_init rewrites every link's PROPAGATE list.
  server->InitializeBlueprint(R"(blueprint loosened
                                 view default
                                 endview
                                 endblueprint)");
  EXPECT_EQ(MustBeConsistent(server->engine(), server->database()), "");
  server->CheckIn("CPU", "HDL_model", "rev2", "alice");
  EXPECT_EQ(MustBeConsistent(server->engine(), server->database()), "");
}

}  // namespace
}  // namespace damocles
