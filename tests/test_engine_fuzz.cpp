// Property-based stress tests: random event storms against realistic
// projects, checking system-wide invariants rather than point behaviour.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "metadb/persistence.hpp"
#include "query/query.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using metadb::Oid;
using testutil::MakeEdtcServer;

/// Event-name pool mixing known EDTC events, flow events and garbage
/// names no rule handles.
const std::vector<std::string>& EventPool() {
  static const std::vector<std::string> kPool = {
      "ckin",   "outofdate", "hdl_sim", "nl_sim",  "drc",
      "lvs",    "res0",      "res1",    "unknown_event",
      "noise",  "tapeout",
  };
  return kPool;
}

/// Applies `n` random events to the server, targeting random existing
/// OIDs (and occasionally ghosts). Returns the number submitted.
size_t Storm(engine::ProjectServer& server, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Oid> targets;
  server.database().ForEachObject(
      [&](metadb::OidId, const metadb::MetaObject& object) {
        targets.push_back(server.database().OidOf(object));
      });
  if (targets.empty()) return 0;

  for (size_t i = 0; i < n; ++i) {
    events::EventMessage event;
    event.name = EventPool()[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(EventPool().size()) - 1))];
    event.direction =
        rng.Chance(0.5) ? events::Direction::kUp : events::Direction::kDown;
    if (rng.Chance(0.05)) {
      event.target = Oid{"ghost", "view", 1};  // Dangling on purpose.
    } else {
      event.target = targets[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(targets.size()) - 1))];
    }
    event.arg = rng.Chance(0.5) ? "good" : "3 errors";
    event.user = "fuzzer";
    server.Submit(std::move(event));
  }
  return n;
}

class EngineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzz, RandomStormsPreserveInvariants) {
  // A populated EDTC project plus a generated flow project share one
  // server, giving the storm a heterogeneous graph.
  auto server = MakeEdtcServer();
  tools::HdlEditor editor(*server);
  tools::SynthesisTool synthesis(*server);
  editor.Edit("CPU", "model", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good",
                         "alice");
  synthesis.Synthesize("CPU", {"REG", "ALU"}, "bob");

  Storm(*server, 500, GetParam());

  const auto& db = server->database();
  const auto& stats = server->engine().stats();

  // Invariant 1: boolean-valued tracked properties stay boolean.
  db.ForEachObject([&](metadb::OidId, const metadb::MetaObject& object) {
    if (const std::string* uptodate = db.FindProperty(object, "uptodate")) {
      EXPECT_TRUE(*uptodate == "true" || *uptodate == "false")
          << FormatOid(db.OidOf(object)) << " uptodate=" << *uptodate;
    }
    if (const std::string* state = db.FindProperty(object, "state")) {
      EXPECT_TRUE(*state == "true" || *state == "false");
    }
  });

  // Invariant 2: every queue event was journalled; dangling events were
  // counted, not lost.
  EXPECT_GE(server->engine().journal().Size(), stats.events_processed);
  EXPECT_GT(stats.dangling_events, 0u);  // The 5% ghosts.
  EXPECT_EQ(stats.waves_truncated, 0u);

  // Invariant 3: adjacency stays symmetric (every out-link of A to B is
  // an in-link of B from A).
  db.ForEachLink([&](metadb::LinkId id, const metadb::Link& link) {
    const auto& outs = db.OutLinks(link.from);
    EXPECT_NE(std::find(outs.begin(), outs.end(), id), outs.end());
    const auto& ins = db.InLinks(link.to);
    EXPECT_NE(std::find(ins.begin(), ins.end(), id), ins.end());
  });

  // Invariant 4: the database still round-trips through persistence.
  const std::string saved = metadb::SaveDatabaseString(db);
  EXPECT_EQ(metadb::SaveDatabaseString(metadb::LoadDatabaseString(saved)),
            saved);
}

TEST_P(EngineFuzz, StormsAreDeterministic) {
  auto run = [&]() {
    auto server = MakeEdtcServer();
    tools::HdlEditor editor(*server);
    editor.Edit("CPU", "model", "alice");
    editor.Edit("REG", "model", "alice");
    Storm(*server, 300, GetParam());
    return metadb::SaveDatabaseString(server->database());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 2024ull,
                                           0xfeedull));

TEST(EngineScale, DeepChainPropagatesLinearly) {
  // A 200-view chain: one golden edit must reach the end, visiting each
  // OID exactly once.
  workload::FlowSpec flow;
  flow.n_views = 200;
  flow.properties_per_view = 1;
  engine::ProjectServer server("deep");
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "deep"));
  workload::InstantiateFlow(server, flow, "blk");

  server.engine().ResetStats();
  server.CheckIn("blk", "view_0", "edit", "u");
  EXPECT_EQ(server.engine().stats().propagated_deliveries, 199u);
  EXPECT_EQ(server.engine().stats().max_wave_extent, 199u);
  query::ProjectQuery q(server.database());
  EXPECT_EQ(q.OutOfDate().size(), 199u);
}

TEST(EngineScale, WideHierarchyPropagatesOnce) {
  // 1 + 4 + 16 + 64 + 256 = 341 blocks; one outofdate post from the root
  // reaches every component exactly once.
  workload::FlowSpec flow;
  flow.n_views = 1;
  engine::ProjectServer server("wide");
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "wide"));
  workload::HierarchySpec spec;
  spec.depth = 4;
  spec.fanout = 4;
  spec.view = "view_0";
  const auto hierarchy = workload::BuildHierarchy(server, spec);
  ASSERT_EQ(hierarchy.blocks.size(), 341u);

  server.engine().ResetStats();
  events::EventMessage event;
  event.name = "outofdate";
  event.direction = events::Direction::kDown;
  event.target = hierarchy.root;
  server.Submit(std::move(event));
  EXPECT_EQ(server.engine().stats().propagated_deliveries, 340u);

  query::ProjectQuery q(server.database());
  EXPECT_EQ(q.OutOfDate().size(), 341u);  // Root included: it got the event.
}

}  // namespace
}  // namespace damocles
