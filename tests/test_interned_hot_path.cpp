// Tests for the symbol-interned hot path: compiled per-(view, event)
// rule tables, SymbolId-keyed receiver lookups and copy-free wave
// delivery must behave identically to the scan oracle (the same engine
// expanding waves by adjacency scans instead of the index) — pinned by
// differential journals — and the index, keyed by the meta-database's
// symbols, must rekey correctly through retemplating, endpoint moves and
// blueprint reloads (SymbolIds never go stale: the table only grows).
// Event names arriving over the wire are looked up, never interned, so
// they cannot grow the table.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/symbol.hpp"
#include "engine/propagation_index.hpp"
#include "engine/project_server.hpp"
#include "engine/run_time_engine.hpp"
#include "metadb/meta_database.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using engine::EngineStats;
using engine::ProjectServer;
using engine::PropagationIndex;
using engine::RunTimeEngine;
using events::Direction;
using metadb::CarryPolicy;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::OidId;

/// The interned engine and the scan oracle it is checked against.
enum class Mode { kScan, kInterned };

engine::ServerOptions ModeOptions(Mode mode) {
  engine::ServerOptions options;
  options.engine.use_propagation_index = mode == Mode::kInterned;
  return options;
}

void ExpectSameBehaviour(const ProjectServer& a, const ProjectServer& b,
                         const std::string& label) {
  EXPECT_EQ(a.engine().journal().Dump(), b.engine().journal().Dump()) << label;
  const EngineStats& sa = a.engine().stats();
  const EngineStats& sb = b.engine().stats();
  EXPECT_EQ(sa.events_processed, sb.events_processed) << label;
  EXPECT_EQ(sa.propagated_deliveries, sb.propagated_deliveries) << label;
  EXPECT_EQ(sa.wave_deliveries, sb.wave_deliveries) << label;
  EXPECT_EQ(sa.waves_started, sb.waves_started) << label;
  EXPECT_EQ(sa.wave_batches, sb.wave_batches) << label;
  EXPECT_EQ(sa.assign_actions, sb.assign_actions) << label;
  EXPECT_EQ(sa.exec_actions, sb.exec_actions) << label;
  EXPECT_EQ(sa.notify_actions, sb.notify_actions) << label;
  EXPECT_EQ(sa.post_actions, sb.post_actions) << label;
  EXPECT_EQ(sa.reevaluations, sb.reevaluations) << label;
  EXPECT_EQ(sa.property_writes, sb.property_writes) << label;
  EXPECT_EQ(sa.max_wave_extent, sb.max_wave_extent) << label;
}

/// Randomized blueprint + event-trace differential: the same stochastic
/// design session must journal identically whether waves expand through
/// the interned index or raw adjacency scans.
TEST(InternedHotPath, RandomizedSessionsMatchScanOracle) {
  for (const uint64_t seed : {7u, 21u, 1234u}) {
    workload::FlowSpec flow;
    flow.n_views = 3 + static_cast<int>(seed % 3);
    flow.propagation_cutoff = (seed % 2) == 0 ? -1 : 1;
    flow.post_outofdate_on_ckin = true;

    const auto run = [&](Mode mode) {
      auto server =
          std::make_unique<ProjectServer>("diff", ModeOptions(mode));
      server->InitializeBlueprint(workload::MakeFlowBlueprint(flow, "diff"));
      std::vector<std::string> blocks;
      for (int i = 0; i < 3; ++i) {
        blocks.push_back("blk" + std::to_string(i));
        workload::InstantiateFlow(*server, flow, blocks.back());
      }
      workload::TraceSpec trace;
      trace.n_actions = 120;
      trace.seed = seed;
      workload::RunDesignSession(*server, flow, blocks, trace);
      return server;
    };

    const auto scan = run(Mode::kScan);
    const auto interned = run(Mode::kInterned);
    const std::string label = "seed " + std::to_string(seed);
    ExpectSameBehaviour(*interned, *scan, label + " interned vs scan");

    // Each engine took its declared path; both match rules through the
    // compiled tables.
    EXPECT_GT(interned->engine().stats().rule_table_hits, 0u) << label;
    EXPECT_EQ(interned->engine().stats().rule_table_hits,
              scan->engine().stats().rule_table_hits)
        << label;
    EXPECT_GT(interned->engine().stats().index_lookups, 0u) << label;
    EXPECT_EQ(interned->engine().stats().links_scanned, 0u) << label;
    EXPECT_GT(scan->engine().stats().links_scanned, 0u) << label;
    EXPECT_EQ(scan->engine().stats().index_lookups, 0u) << label;
  }
}

/// The EDTC workload (exec/notify/post rules, phase switches, carry
/// moves) through the interned engine and the scan oracle, including
/// blueprint loosening and re-tightening mid-run.
TEST(InternedHotPath, EdtcPhaseSwitchMatchesScanOracle) {
  const auto run = [](Mode mode) {
    auto server = std::make_unique<ProjectServer>("edtc", ModeOptions(mode));
    server->InitializeBlueprint(workload::EdtcBlueprintText());
    workload::HierarchySpec spec;
    spec.depth = 3;
    spec.fanout = 2;
    spec.view = "HDL_model";
    spec.root_block = "CPU";
    workload::BuildHierarchy(*server, spec);
    for (int round = 0; round < 3; ++round) {
      server->CheckIn("CPU", "HDL_model", "rev", "alice");
      server->CheckIn("CPU", "schematic", "rev", "bob");
      server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model," +
                                 std::to_string(round + 2) + " good",
                             "alice");
    }
    server->InitializeBlueprint(R"(blueprint loosened
                                   view default
                                   endview
                                   endblueprint)");
    server->CheckIn("CPU", "HDL_model", "loose rev", "alice");
    server->InitializeBlueprint(workload::EdtcBlueprintText());
    server->CheckIn("CPU", "HDL_model", "strict rev", "alice");
    return server;
  };

  const auto scan = run(Mode::kScan);
  const auto interned = run(Mode::kInterned);
  ExpectSameBehaviour(*interned, *scan, "interned vs scan");
}

// --- Compiled rule tables --------------------------------------------------

constexpr const char* kOrderBlueprint = R"(blueprint order
view default
  when mark do tag = base done
endview
view sch
  when mark do tag = override done
endview
endblueprint)";

/// Default-view rules run before the specific view's, so the specific
/// assign must win — with either expansion mode.
TEST(InternedHotPath, CompiledTablesKeepDefaultBeforeSpecificOrder) {
  for (const Mode mode : {Mode::kInterned, Mode::kScan}) {
    ProjectServer server("order", ModeOptions(mode));
    server.InitializeBlueprint(kOrderBlueprint);
    server.CheckIn("blk", "sch", "new", "t");
    server.SubmitWireLine("postEvent mark down blk,sch,1", "t");
    EXPECT_EQ(testutil::LatestProp(server, "blk", "sch", "tag"), "override");
  }
}

/// Views the blueprint does not track still run default-view rules
/// through the default-only compiled table.
TEST(InternedHotPath, UntrackedViewResolvesToDefaultRules) {
  ProjectServer server("untracked", ModeOptions(Mode::kInterned));
  server.InitializeBlueprint(kOrderBlueprint);
  server.CheckIn("blk", "layout", "new", "t");  // 'layout' is untracked.
  server.SubmitWireLine("postEvent mark down blk,layout,1", "t");
  EXPECT_EQ(testutil::LatestProp(server, "blk", "layout", "tag"), "base");
  EXPECT_GT(server.engine().stats().rule_table_hits, 0u);
}

/// Deliveries for events no rule reacts to are counted as table misses,
/// and the event's name does not grow the database's symbol table.
TEST(InternedHotPath, StatsCountTableHitsMissesAndInternerSize) {
  ProjectServer server("stats", ModeOptions(Mode::kInterned));
  server.InitializeBlueprint(kOrderBlueprint);
  server.CheckIn("blk", "sch", "new", "t");
  const size_t symbols = server.database().SymbolCount();
  server.SubmitWireLine("postEvent nobodycares down blk,sch,1", "t");
  const EngineStats& stats = server.engine().stats();
  EXPECT_GT(stats.rule_table_misses, 0u);
  EXPECT_EQ(server.database().SymbolCount(), symbols);
  EXPECT_EQ(server.database().FindSymbol("nobodycares"),
            SymbolTable::kNoSymbol);
}

/// Wire clients choose event names freely, and none of them may grow
/// the database's symbol table: 1,000 distinct names no blueprint or
/// link mentions are all journaled, on one shard and on a threaded
/// four-shard server whose workers look each name up concurrently (a
/// worker that tried to intern one would throw).
TEST(InternedHotPath, WireEventNamesDoNotGrowTheSymbolTable) {
  constexpr size_t kNames = 1000;
  for (const uint32_t shards : {1u, 4u}) {
    engine::ServerOptions options = ModeOptions(Mode::kInterned);
    options.num_shards = shards;
    ProjectServer server("bounded", options);
    server.InitializeBlueprint(kOrderBlueprint);
    for (const char* block : {"b0", "b1", "b2", "b3"}) {
      server.CheckIn(block, "sch", "new", "t");
    }
    server.Drain();
    const size_t symbols = server.database().SymbolCount();
    for (size_t i = 0; i < kNames; ++i) {
      server.SubmitWireLine("postEvent undeclared" + std::to_string(i) +
                                " down b" + std::to_string(i % 4) + ",sch,1",
                            "t");
    }
    server.Drain();

    const std::string label = std::to_string(shards) + " shard(s)";
    EXPECT_EQ(server.database().SymbolCount(), symbols) << label;
    EXPECT_EQ(server.database().FindSymbol("undeclared7"),
              SymbolTable::kNoSymbol)
        << label;
    const std::vector<std::string> lines =
        server.sharded_engine()->JournalLines();
    size_t journaled = 0;
    for (const std::string& line : lines) {
      if (line.find("undeclared") != std::string::npos) ++journaled;
    }
    EXPECT_EQ(journaled, kNames) << label;
  }
}

/// Without a blueprint a wave still propagates along PROPAGATE links,
/// but no delivery runs rules or counts a table hit or miss.
TEST(InternedHotPath, NoBlueprintDeliveriesTouchNoRuleTables) {
  MetaDatabase db;
  SimClock clock;
  RunTimeEngine engine(db, clock);
  const OidId a = db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = db.CreateNextVersion("b", "net", "t", 0);
  db.CreateLink(LinkKind::kDerive, a, b, {"edit"}, "", CarryPolicy::kNone);
  events::EventMessage event;
  event.name = "edit";
  event.direction = Direction::kDown;
  event.target = db.OidOf(a);
  engine.PostEvent(std::move(event));
  engine.ProcessAll();
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.wave_deliveries, 2u);
  EXPECT_EQ(stats.rule_table_hits, 0u);
  EXPECT_EQ(stats.rule_table_misses, 0u);
  EXPECT_EQ(stats.reevaluations, 0u);
}

/// Reloading a blueprint mid-project rebinds every cached rule table;
/// the stale-binding regression this pins: an OID that already resolved
/// its (view, event) tables against blueprint A must re-resolve against
/// blueprint B, while its SymbolIds stay valid.
TEST(InternedHotPath, BlueprintReloadRebindsRuleTables) {
  ProjectServer server("reload", ModeOptions(Mode::kInterned));
  server.InitializeBlueprint(kOrderBlueprint);
  server.CheckIn("blk", "sch", "new", "t");
  server.SubmitWireLine("postEvent mark down blk,sch,1", "t");
  ASSERT_EQ(testutil::LatestProp(server, "blk", "sch", "tag"), "override");

  const SymbolId mark_before = server.database().FindSymbol("mark");
  ASSERT_NE(mark_before, SymbolTable::kNoSymbol);

  server.InitializeBlueprint(R"(blueprint order2
view sch
  when mark do tag = reloaded done
endview
endblueprint)");
  server.SubmitWireLine("postEvent mark down blk,sch,1", "t");
  EXPECT_EQ(testutil::LatestProp(server, "blk", "sch", "tag"), "reloaded");
  // Symbols are stable across reloads (the table only grows).
  EXPECT_EQ(server.database().FindSymbol("mark"), mark_before);
}

// --- Symbol-keyed propagation index rekeying --------------------------------

/// A database + engine pair on the interned fast path.
struct Fixture {
  MetaDatabase db;
  SimClock clock;
  RunTimeEngine engine{db, clock};
};

/// Test-local string shim over the SymbolId lookup: resolves the name
/// through the database's table first.
const PropagationIndex::Bucket* ReceiversByName(const MetaDatabase& db,
                                                const PropagationIndex& index,
                                                OidId source,
                                                Direction direction,
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

/// The SymbolId lookup is the hot path; it must agree with resolving
/// the name through the database's table (the test-local shim), bucket
/// for bucket.
TEST(InternedHotPath, SymbolKeyedReceiversMatchStringShim) {
  Fixture f;
  const OidId a = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  f.db.CreateLink(LinkKind::kDerive, a, b, {"edit", "ok"}, "",
                  CarryPolicy::kNone);

  const PropagationIndex& index = f.engine.propagation_index();
  const SymbolId edit = f.db.FindSymbol("edit");
  ASSERT_NE(edit, SymbolTable::kNoSymbol);
  ASSERT_NE(index.Receivers(a, Direction::kDown, edit), nullptr);
  EXPECT_EQ(index.Receivers(a, Direction::kDown, edit),
            ReceiversByName(f.db, index, a, Direction::kDown, "edit"));
  // Unknown symbol / unknown name: both say "no receivers", and the
  // lookup interns nothing.
  EXPECT_EQ(index.Receivers(a, Direction::kDown, SymbolId{0xdeadu}), nullptr);
  EXPECT_EQ(ReceiversByName(f.db, index, a, Direction::kDown, "nosuch"),
            nullptr);
  EXPECT_EQ(f.db.FindSymbol("nosuch"), SymbolTable::kNoSymbol);
}

/// Endpoint moves rekey the packed (OID, direction, SymbolId) buckets:
/// the old source loses them, the new source serves them under the SAME
/// SymbolId.
TEST(InternedHotPath, EndpointMoveRekeysSymbolBuckets) {
  Fixture f;
  const OidId a1 = f.db.CreateNextVersion("a", "sch", "t", 0);
  const OidId b = f.db.CreateNextVersion("b", "net", "t", 0);
  const metadb::LinkId link = f.db.CreateLink(LinkKind::kDerive, a1, b,
                                              {"edit"}, "", CarryPolicy::kMove);
  const OidId a2 = f.db.CreateNextVersion("a", "sch", "t", 1);
  const SymbolId edit = f.db.FindSymbol("edit");
  ASSERT_NE(edit, SymbolTable::kNoSymbol);

  f.db.MoveLinkEndpoint(link, /*endpoint_from=*/true, a2);
  const PropagationIndex& index = f.engine.propagation_index();
  EXPECT_EQ(index.Receivers(a1, Direction::kDown, edit), nullptr);
  ASSERT_NE(index.Receivers(a2, Direction::kDown, edit), nullptr);
  EXPECT_EQ(index.Receivers(a2, Direction::kDown, edit)->front().neighbor, b);
  ASSERT_NE(index.Receivers(b, Direction::kUp, edit), nullptr);
  EXPECT_EQ(index.Receivers(b, Direction::kUp, edit)->front().neighbor, a2);
  EXPECT_EQ(MustBeConsistent(f.engine, f.db), "");
}

/// RetemplateLinks rewrites PROPAGATE lists wholesale (the paper's
/// loosen/tighten phase switch); symbol-keyed buckets must follow, and
/// SymbolIds interned under the strict blueprint must still resolve the
/// re-tightened index (stale-SymbolId regression).
TEST(InternedHotPath, RetemplateAndReloadRekeySymbolBuckets) {
  workload::FlowSpec flow;
  flow.n_views = 3;
  const std::string strict = workload::MakeFlowBlueprint(flow, "strict");
  ProjectServer server("rekey", ModeOptions(Mode::kInterned));
  server.InitializeBlueprint(strict);
  const metadb::Oid golden = workload::InstantiateFlow(server, flow, "blk");
  const OidId golden_id = *server.database().FindObject(golden);

  const PropagationIndex& index = server.engine().propagation_index();
  const SymbolId outofdate = server.database().FindSymbol("outofdate");
  ASSERT_NE(outofdate, SymbolTable::kNoSymbol);
  ASSERT_NE(index.Receivers(golden_id, Direction::kDown, outofdate), nullptr);
  ASSERT_EQ(MustBeConsistent(server.engine(), server.database()), "");

  // Loosen: the empty blueprint's retemplating clears every PROPAGATE
  // list, so the symbol-keyed bucket must vanish.
  server.InitializeBlueprint(R"(blueprint loose
                                view default
                                endview
                                endblueprint)");
  EXPECT_EQ(index.Receivers(golden_id, Direction::kDown, outofdate), nullptr);
  EXPECT_EQ(MustBeConsistent(server.engine(), server.database()), "");

  // Tighten again: the pre-loosening SymbolId serves the rebuilt index.
  server.InitializeBlueprint(strict);
  ASSERT_NE(index.Receivers(golden_id, Direction::kDown, outofdate), nullptr);
  EXPECT_EQ(server.database().FindSymbol("outofdate"), outofdate);
  EXPECT_EQ(MustBeConsistent(server.engine(), server.database()), "");
}

}  // namespace
}  // namespace damocles
