// Oracle tests for the settled rule of continuous-assignment refresh.
//
// An OID is settled when its last refresh reached a fixed point (a
// pass wrote nothing) under the current blueprint and its properties
// have not changed since (same MetaObject::revision); the engine then
// skips re-evaluating it. The oracle recomputes every settled live
// OID's continuous assignments from scratch — two passes over a copy of
// its properties, with its own variable resolution — after every drain
// and asserts that none of them would change. Each path that changes
// properties outside a delivery is driven explicitly: direct
// SetProperty / RemoveProperty / GetObjectMutable, check-in template
// application and property carry, slot replacement through checkpoint
// recovery, policy promote and rollback, $date under AdvanceClock and
// an assignment chain that needs more than one delivery to settle.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "engine/project_server.hpp"
#include "engine/run_time_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/persistence.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using engine::ProjectServer;
using engine::RunTimeEngine;
using events::EventMessage;
using metadb::MetaObject;
using metadb::Oid;
using metadb::OidId;
using PropertyMap = std::map<std::string, std::string>;

/// Blueprint exercising every input a continuous assignment can read:
/// own properties (`cell`), a chain deeper than two passes (`chain`),
/// per-OID builtins and the clock (`clocked`).
std::string SettledBlueprint(const std::string& start_date) {
  return R"(blueprint settled
view default
  property uptodate default true
  when ckin do uptodate = true; post outofdate down done
  when outofdate do uptodate = false done
endview
view cell
  property result_0 default bad
  property carried default bad move
  let state = ($result_0 == good) and ($uptodate == true)
  let kept = ($carried == good)
  when res0 do result_0 = $arg done
  when keep do carried = $arg done
  use_link move propagates outofdate
endview
view chain
  property x default bad
  let c = ($b == true)
  let b = ($a == true)
  let a = ($x == good)
  let mine = ($owner == alice) and ($view == chain) and ($arg == "")
  when setx do x = $arg done
endview
view clocked
  let early = ($date == ")" +
         start_date + R"(")
endview
endblueprint
)";
}

/// The same blueprint with a different `cell` state rule (the policy
/// promote candidate).
std::string PromotedBlueprint(const std::string& start_date) {
  std::string text = SettledBlueprint(start_date);
  const std::string from =
      "let state = ($result_0 == good) and ($uptodate == true)";
  text.replace(text.find(from), from.size(),
               "let state = ($result_0 == bad) and ($uptodate == true)");
  return text;
}

/// Recomputes `object`'s continuous assignments from scratch — two
/// passes over a copy of its properties — resolving variables the way
/// the engine does for a refresh (no event payload).
PropertyMap Recompute(const blueprint::Blueprint& blueprint,
                      const metadb::MetaDatabase& db, OidId id,
                      const SimClock& clock) {
  const MetaObject& object = db.GetObject(id);
  const Oid oid = db.OidOf(object);
  PropertyMap copy = testutil::PropertyTexts(db, id);
  const blueprint::VariableResolver resolve =
      [&](std::string_view name) -> std::string {
    if (name == "arg" || name == "user" || name == "event") return "";
    if (name == "dir") return events::DirectionName(EventMessage{}.direction);
    if (name == "date") return SimClock::FormatDate(clock.NowSeconds());
    if (name == "oid") return metadb::FormatOidWire(oid);
    if (name == "OID") return metadb::FormatOid(oid);
    if (name == "block") return oid.block;
    if (name == "view") return oid.view;
    if (name == "version") return std::to_string(oid.version);
    if (name == "owner") {
      const auto it = copy.find("owner");
      return it != copy.end() ? it->second : db.SymbolText(object.created_by);
    }
    const auto it = copy.find(std::string(name));
    return it == copy.end() ? std::string() : it->second;
  };
  const blueprint::ViewTemplate* sources[2] = {
      blueprint.DefaultView(), blueprint.FindView(oid.view)};
  for (int pass = 0; pass < 2; ++pass) {
    for (const blueprint::ViewTemplate* source : sources) {
      if (source == nullptr) continue;
      for (const blueprint::ContinuousAssignment& assignment :
           source->assignments) {
        copy[assignment.property] =
            assignment.expr.EvaluateBool(resolve) ? "true" : "false";
      }
    }
  }
  return copy;
}

/// Every engine of `server` that executes deliveries.
std::vector<const RunTimeEngine*> Engines(const ProjectServer& server) {
  std::vector<const RunTimeEngine*> engines;
  server.sharded_engine()->ForEachEngine(
      [&](const RunTimeEngine& engine) { engines.push_back(&engine); });
  return engines;
}

/// The oracle: checks every settled live OID of every engine against a
/// from-scratch recomputation. Returns how many settled OIDs it checked.
size_t ExpectSettledAreFixedPoints(ProjectServer& server,
                                   const std::string& label) {
  size_t checked = 0;
  const metadb::MetaDatabase& db = server.database();
  for (const RunTimeEngine* engine : Engines(server)) {
    db.ForEachObject([&](OidId id, const MetaObject&) {
      if (!engine->IsSettled(id)) return;
      ++checked;
      EXPECT_EQ(Recompute(engine->Current(), db, id, server.clock()),
                testutil::PropertyTexts(db, id))
          << label << ": settled " << metadb::FormatOid(db.OidOf(id))
          << " would change on re-evaluation";
    });
  }
  return checked;
}

/// Delivers event `name` to `oid` and drains.
void Post(ProjectServer& server, const Oid& oid, const std::string& name,
          const std::string& arg) {
  EventMessage event;
  event.name = name;
  event.target = oid;
  event.arg = arg;
  event.user = "alice";
  event.origin = events::EventOrigin::kExternal;
  server.Submit(std::move(event));
  server.Drain();
}

/// Delivers an event with no rules to `oid`: phases 1, 3 and 4 do
/// nothing, so only the continuous-assignment refresh can write.
void Poke(ProjectServer& server, const Oid& oid) {
  Post(server, oid, "poke", "");
}

OidId Handle(const ProjectServer& server, const Oid& oid) {
  return *server.database().FindObject(oid);
}

std::string Prop(const ProjectServer& server, const Oid& oid,
                 const std::string& name) {
  return testutil::Prop(server, oid, name);
}

/// A server with the settled blueprint, one `cell` use tree of depth 2
/// and fanout 3, one `chain` and one `clocked` OID.
struct Fixture {
  explicit Fixture(engine::ServerOptions options = {})
      : server(std::make_unique<ProjectServer>("settled", options)) {
    start_date = server->clock().FormatDate();
    server->InitializeBlueprint(SettledBlueprint(start_date));
    root = server->CheckIn("root", "cell", "v1", "alice");
    std::vector<Oid> level = {root};
    for (int depth = 0; depth < 2; ++depth) {
      std::vector<Oid> next;
      for (const Oid& parent : level) {
        for (int i = 0; i < 3; ++i) {
          const Oid child = server->CheckIn(
              parent.block + "_" + std::to_string(i), "cell", "v1", "bob");
          server->RegisterLink(metadb::LinkKind::kUse, parent, child);
          next.push_back(child);
        }
      }
      cells.insert(cells.end(), next.begin(), next.end());
      level = std::move(next);
    }
    chain = server->CheckIn("c", "chain", "v1", "alice");
    clocked = server->CheckIn("k", "clocked", "v1", "alice");
    server->Drain();
  }

  const RunTimeEngine& engine() const { return server->engine(); }
  bool Settled(const Oid& oid) const {
    return engine().IsSettled(Handle(*server, oid));
  }

  std::unique_ptr<ProjectServer> server;
  std::string start_date;
  Oid root;
  std::vector<Oid> cells;  ///< Every cell below the root.
  Oid chain;
  Oid clocked;
};

TEST(SettledRefresh, OutOfDateWavesSkipSettledOidsAndStayExact) {
  Fixture f;
  EXPECT_GT(ExpectSettledAreFixedPoints(*f.server, "setup"), 0u);
  // The first wave after a check-in writes uptodate = false everywhere;
  // a repeat of it reaches OIDs that are already out of date.
  f.server->CheckIn("root", "cell", "v2", "alice");
  ExpectSettledAreFixedPoints(*f.server, "after check-in");
  const Oid root2 = f.server->database().OidOf(
      *f.server->database().FindLatest("root", "cell"));
  for (const Oid& cell : f.cells) {
    EXPECT_EQ(Prop(*f.server, cell, "uptodate"), "false");
  }

  // The posted wave marks the new root itself out of date; its repeat
  // writes nothing and every delivery of it is skipped.
  Post(*f.server, root2, "outofdate", "");
  const size_t writes = f.engine().stats().property_writes;
  const size_t reevaluations = f.engine().stats().reevaluations;
  const size_t settled = f.engine().stats().settled_refreshes;
  Post(*f.server, root2, "outofdate", "");
  EXPECT_EQ(f.engine().stats().property_writes, writes);
  EXPECT_EQ(f.engine().stats().reevaluations, reevaluations);
  EXPECT_EQ(f.engine().stats().settled_refreshes,
            settled + f.cells.size() + 1);
  ExpectSettledAreFixedPoints(*f.server, "repeat wave");
  for (const Oid& cell : f.cells) EXPECT_TRUE(f.Settled(cell));
}

TEST(SettledRefresh, PassTwoRunsOnlyAfterPassOneWrote) {
  Fixture f;
  const OidId cell = Handle(*f.server, f.cells[0]);
  // Force one unsettled refresh that writes nothing: 2 assignments, one
  // pass.
  f.server->database().SetProperty(cell, "unrelated", "1");
  ASSERT_FALSE(f.Settled(f.cells[0]));
  size_t before = f.engine().stats().reevaluations;
  Poke(*f.server, f.cells[0]);
  EXPECT_EQ(f.engine().stats().reevaluations, before + 2);
  EXPECT_TRUE(f.Settled(f.cells[0]));

  // A delivery whose assignment changes an input: pass 1 writes state,
  // pass 2 confirms the fixed point.
  before = f.engine().stats().reevaluations;
  Post(*f.server, f.cells[0], "res0", "good");
  EXPECT_EQ(f.engine().stats().reevaluations, before + 4);
  EXPECT_EQ(Prop(*f.server, f.cells[0], "state"), "true");
  EXPECT_TRUE(f.Settled(f.cells[0]));
  ExpectSettledAreFixedPoints(*f.server, "after res0");
}

TEST(SettledRefresh, DirectWritesUnsettleAndTheNextDeliveryReevaluates) {
  Fixture f;
  const Oid target = f.cells[1];
  const OidId id = Handle(*f.server, target);
  metadb::MetaDatabase& db = f.server->database();
  ASSERT_TRUE(f.Settled(target));
  ASSERT_EQ(Prop(*f.server, target, "state"), "false");

  db.SetProperty(id, "result_0", "good");
  EXPECT_FALSE(f.Settled(target));
  ExpectSettledAreFixedPoints(*f.server, "after SetProperty");
  Poke(*f.server, target);
  EXPECT_EQ(Prop(*f.server, target, "state"), "true");
  EXPECT_TRUE(f.Settled(target));

  ASSERT_TRUE(db.RemoveProperty(id, "uptodate"));
  EXPECT_FALSE(f.Settled(target));
  ExpectSettledAreFixedPoints(*f.server, "after RemoveProperty");
  Poke(*f.server, target);
  EXPECT_EQ(Prop(*f.server, target, "state"), "false");
  EXPECT_TRUE(f.Settled(target));

  // Removing an absent property changes nothing and keeps it settled.
  EXPECT_FALSE(db.RemoveProperty(id, "no_such_property"));
  EXPECT_TRUE(f.Settled(target));

  db.PutProperty(db.GetObjectMutable(id), db.FindSymbol("uptodate"), "true");
  EXPECT_FALSE(f.Settled(target));
  ExpectSettledAreFixedPoints(*f.server, "after GetObjectMutable");
  Poke(*f.server, target);
  EXPECT_EQ(Prop(*f.server, target, "state"), "true");
  ExpectSettledAreFixedPoints(*f.server, "after the last poke");
}

TEST(SettledRefresh, CheckInTemplatesAndCarryUnsettleBothVersions) {
  Fixture f;
  const Oid leaf = f.cells.back();
  Post(*f.server, leaf, "keep", "good");
  ASSERT_EQ(Prop(*f.server, leaf, "kept"), "true");
  ASSERT_TRUE(f.Settled(leaf));

  // `carried` is a move-carry property: the check-in removes it from
  // the previous version, whose `kept` input changes outside any
  // delivery to it.
  const Oid next = f.server->CheckIn(leaf.block, "cell", "v2", "alice");
  EXPECT_FALSE(f.Settled(leaf));
  EXPECT_EQ(Prop(*f.server, next, "carried"), "good");
  EXPECT_EQ(Prop(*f.server, next, "kept"), "true");
  EXPECT_TRUE(f.Settled(next));
  ExpectSettledAreFixedPoints(*f.server, "after carry");

  Poke(*f.server, leaf);
  EXPECT_EQ(Prop(*f.server, leaf, "kept"), "false");
  EXPECT_TRUE(f.Settled(leaf));
  ExpectSettledAreFixedPoints(*f.server, "after poking the old version");
}

TEST(SettledRefresh, ReplacedSlotsNeverLookSettled) {
  Fixture f;
  metadb::MetaDatabase& db = f.server->database();
  const Oid target = f.cells[2];
  const OidId id = Handle(*f.server, target);
  ASSERT_TRUE(f.Settled(target));

  // A slot replaced by a copy that carries the settled revision but
  // different properties: the revision must still move past it.
  MetaObject replacement = db.GetObject(id);
  db.PutProperty(replacement, db.FindSymbol("result_0"), "good");
  db.ApplyObjectSlot(id.value(), std::move(replacement));
  EXPECT_FALSE(f.Settled(target));
  ExpectSettledAreFixedPoints(*f.server, "after ApplyObjectSlot");
  Poke(*f.server, target);
  EXPECT_EQ(Prop(*f.server, target, "state"), "true");
  ASSERT_TRUE(f.Settled(target));

  // The checkpoint-recovery path: a delta whose object records come
  // from the text format (revision 0) replaces settled slots.
  const std::string base = metadb::SaveDatabaseString(db);
  metadb::MetaDatabase other = metadb::LoadDatabaseString(base);
  const uint64_t since = other.CutDirtySet(0).next_since;
  for (const Oid& cell : f.cells) {
    // Most cells already read "bad", and a write of the value already
    // there is no mutation; the note puts every cell in the delta.
    other.SetProperty(*other.FindObject(cell), "result_0", "bad");
    other.SetProperty(*other.FindObject(cell), "note", "replaced");
  }
  metadb::ApplyDatabaseDeltaString(
      metadb::SaveDatabaseDeltaString(other, other.CutDirtySet(since)), db);
  for (const Oid& cell : f.cells) EXPECT_FALSE(f.Settled(cell));
  ExpectSettledAreFixedPoints(*f.server, "after the delta");
  Poke(*f.server, target);
  EXPECT_EQ(Prop(*f.server, target, "state"), "false");
  ExpectSettledAreFixedPoints(*f.server, "after recovery poke");
}

TEST(SettledRefresh, PolicyPromoteAndRollbackUnsettleEveryOid) {
  Fixture f;
  for (const Oid& cell : f.cells) ASSERT_TRUE(f.Settled(cell));
  const uint64_t candidate = f.server->PolicyPropose(
      PromotedBlueprint(f.start_date), "alice", "invert state");
  ASSERT_FALSE(f.server->PolicyValidate(candidate).HasErrors());
  f.server->PolicyPromote(candidate);
  for (const Oid& cell : f.cells) EXPECT_FALSE(f.Settled(cell));
  ExpectSettledAreFixedPoints(*f.server, "after promote");
  // Same properties, new rule: the refresh must not be skipped.
  const Oid probe = f.cells[3];
  ASSERT_EQ(Prop(*f.server, probe, "state"), "false");
  Poke(*f.server, probe);
  EXPECT_EQ(Prop(*f.server, probe, "state"), "true");
  EXPECT_TRUE(f.Settled(probe));
  ExpectSettledAreFixedPoints(*f.server, "after the promoted delivery");

  f.server->PolicyRollback();
  EXPECT_FALSE(f.Settled(probe));
  Poke(*f.server, probe);
  EXPECT_EQ(Prop(*f.server, probe, "state"), "false");
  EXPECT_TRUE(f.Settled(probe));
  ExpectSettledAreFixedPoints(*f.server, "after rollback");
}

TEST(SettledRefresh, DateReadingAssignmentsNeverSettle) {
  Fixture f;
  EXPECT_EQ(Prop(*f.server, f.clocked, "early"), "true");
  EXPECT_FALSE(f.Settled(f.clocked));
  Poke(*f.server, f.clocked);
  EXPECT_FALSE(f.Settled(f.clocked));
  EXPECT_EQ(Prop(*f.server, f.clocked, "early"), "true");

  f.server->AdvanceClock(86400);
  Poke(*f.server, f.clocked);
  EXPECT_EQ(Prop(*f.server, f.clocked, "early"), "false");
  EXPECT_FALSE(f.Settled(f.clocked));
  ExpectSettledAreFixedPoints(*f.server, "after AdvanceClock");
}

TEST(SettledRefresh, DeepChainsSettleOverSeveralDeliveries) {
  Fixture f;
  ASSERT_TRUE(f.Settled(f.chain));
  ASSERT_EQ(Prop(*f.server, f.chain, "c"), "false");
  // Builtins fixed per OID and the empty event's fields do not keep an
  // OID from settling.
  EXPECT_EQ(Prop(*f.server, f.chain, "mine"), "true");

  // Declared c, b, a: each delivery moves the change two links along.
  Post(*f.server, f.chain, "setx", "good");
  EXPECT_EQ(Prop(*f.server, f.chain, "a"), "true");
  EXPECT_EQ(Prop(*f.server, f.chain, "b"), "true");
  EXPECT_EQ(Prop(*f.server, f.chain, "c"), "false");
  EXPECT_FALSE(f.Settled(f.chain));
  ExpectSettledAreFixedPoints(*f.server, "chain, one delivery");

  Poke(*f.server, f.chain);
  EXPECT_EQ(Prop(*f.server, f.chain, "c"), "true");
  EXPECT_TRUE(f.Settled(f.chain));
  ExpectSettledAreFixedPoints(*f.server, "chain, two deliveries");
}

TEST(SettledRefresh, ScanModeSettlesIdentically) {
  engine::ServerOptions scan;
  scan.engine.use_propagation_index = false;
  Fixture a;
  Fixture b(scan);
  for (Fixture* f : {&a, &b}) {
    f->server->CheckIn("root", "cell", "v2", "alice");
    Post(*f->server, f->cells[4], "res0", "good");
    Poke(*f->server, f->chain);
    ExpectSettledAreFixedPoints(*f->server, "scan-mode differential");
  }
  EXPECT_EQ(a.engine().journal().Dump(), b.engine().journal().Dump());
  EXPECT_EQ(metadb::SaveDatabaseString(a.server->database()),
            metadb::SaveDatabaseString(b.server->database()));
  EXPECT_EQ(a.engine().stats().reevaluations,
            b.engine().stats().reevaluations);
  EXPECT_EQ(a.engine().stats().settled_refreshes,
            b.engine().stats().settled_refreshes);
  EXPECT_GT(a.engine().stats().settled_refreshes, 0u);
}

/// Flow sessions on a threaded 4-shard server: the oracle runs after
/// every drain over every shard engine, with direct writes between
/// drains.
TEST(SettledRefresh, ThreadedShardedSessionsStayExact) {
  const workload::FlowSpec flow;
  engine::ServerOptions options;
  options.num_shards = 4;
  options.auto_drain = false;
  ProjectServer server("settled-sharded", options);
  ASSERT_EQ(server.sharded_engine()->num_shards(), 4u);
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "settled"));
  workload::HierarchySpec spec;
  spec.depth = 3;
  spec.fanout = 3;
  spec.view = workload::FlowViewNames(flow).front();
  spec.root_block = "top";
  workload::BuildHierarchy(server, spec);
  std::vector<std::string> blocks;
  for (int block = 0; block < 12; ++block) {
    blocks.push_back("blk" + std::to_string(block));
    workload::InstantiateFlow(server, flow, blocks.back());
  }
  server.Drain();

  size_t checked = 0;
  for (int batch = 0; batch < 12; ++batch) {
    workload::TraceSpec trace;
    trace.n_actions = 30;
    trace.seed = 500 + static_cast<uint64_t>(batch);
    workload::RunDesignSession(server, flow, blocks, trace);
    server.CheckIn("top", spec.view, "rev", "alice");
    server.Drain();
    checked += ExpectSettledAreFixedPoints(
        server, "batch " + std::to_string(batch));
    // A direct write between drains, on an OID the next batch reaches.
    const auto latest = server.database().FindLatest("top_0", spec.view);
    if (latest.has_value()) {
      server.database().SetProperty(*latest, "result_0",
                                    batch % 2 == 0 ? "good" : "bad");
    }
  }
  EXPECT_GT(checked, 0u);
  const engine::EngineStats stats =
      server.sharded_engine()->AggregateEngineStats();
  EXPECT_GT(stats.settled_refreshes, 0u);
}

}  // namespace
}  // namespace damocles
