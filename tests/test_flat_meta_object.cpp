// Flat, interned meta-objects (metadb/meta_object.hpp): objects hold
// database SymbolIds and a property vector sorted by name text.
//  * byte identity under an adversarial intern order: names are
//    interned in reverse alphabetical order, and the database dump,
//    `query state`, the project report, the journal and the WAL rows
//    must still equal goldens produced by the name-ordered std::map
//    layout — including after a full + delta checkpoint recovery. A
//    property list ordered by symbol id fails every golden;
//  * a write of the value already there is no mutation: no revision
//    bump, no dirty mark, the next publish keeps its epoch;
//  * reads never intern, and a wave worker thread cannot intern;
//  * (TSan) a threaded 4-shard server whose rules write properties,
//    a reader pinning snapshots for `query state` / `query block`, and
//    check-ins of new blocks — which intern new names — between drains.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/project_server.hpp"
#include "engine/session_mux.hpp"
#include "engine/wire_session.hpp"
#include "events/journal.hpp"
#include "events/wal.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/persistence.hpp"
#include "query/query.hpp"
#include "query/report.hpp"

namespace damocles {
namespace {

using metadb::MetaDatabase;
using metadb::Oid;
using metadb::OidId;

// Blueprint whose property names are declared — and therefore interned
// — against name order (zeta, uptodate, omega, mid, alpha, ...): a
// property list ordered by symbol id would print zeta first.
constexpr char kFlatBlueprint[] = R"(blueprint flat
view default
  property zeta default z
  property uptodate default true
  when ckin do uptodate = true; post outofdate down done
  when outofdate do uptodate = false done
endview
view cell
  property omega default o
  property mid default m
  property alpha default a
  let state = ($alpha == a) and ($uptodate == true)
  when poke do beta = $arg done
  use_link move propagates outofdate
endview
endblueprint
)";

struct Outputs {
  std::string dump;
  std::string state;
  std::string report;
  std::string journal;
  std::string wal;
  std::string recovered_dump;
};

std::string JournalText(engine::ProjectServer& server) {
  std::string text;
  const events::EventJournal& journal = server.engine().journal();
  for (size_t i = 0; i < journal.Size(); ++i) {
    const events::JournalRecord record = journal.At(i);
    text += "[" + std::string(events::EventOriginName(record.event.origin)) +
            "] " + events::FormatEvent(record.event) + "\n";
  }
  return text;
}

std::string WalText(const std::string& dir) {
  std::string text;
  for (const std::string& stream : events::ListWalStreams(dir)) {
    const events::WalStreamData data = events::ReadWalStream(dir, stream);
    for (const events::WalOpEntry& entry : data.ops) {
      const events::WalOpRecord& op = entry.op;
      text += stream + " op " + std::to_string(op.op_seq) + " type " +
              std::to_string(static_cast<int>(op.type)) + " " + op.block +
              " " + op.view + " " + op.user + " " +
              events::FormatEvent(op.event) + "\n";
    }
    for (const events::WalRestoredRow& row : data.rows) {
      text += stream + " row " + events::FormatEvent(row.event) + "\n";
    }
  }
  return text;
}

Outputs RunFlatScenario(const std::string& wal_dir) {
  Outputs out;
  engine::ServerOptions options;
  options.wal_dir = wal_dir;
  {
    engine::ProjectServer server("flat", options);
    server.InitializeBlueprint(kFlatBlueprint);
    server.CheckIn("zeta_blk", "cell", "z1", "zoe");
    server.CheckIn("alpha_blk", "cell", "a1", "al");
    server.RegisterLink(metadb::LinkKind::kUse,
                        metadb::Oid{"zeta_blk", "cell", 1},
                        metadb::Oid{"alpha_blk", "cell", 1});
    server.SubmitWireLine("postEvent poke down zeta_blk,cell,1 hello", "zoe");
    server.WalCheckpoint(engine::CheckpointMode::kFull);
    server.CheckIn("zeta_blk", "cell", "z2", "zoe");
    server.SubmitWireLine("postEvent poke down alpha_blk,cell,1 \"a b\"", "al");
    server.WalCheckpoint(engine::CheckpointMode::kDelta);
    server.CheckIn("alpha_blk", "cell", "a2", "al");
    server.Drain();

    out.dump = metadb::SaveDatabaseString(server.database());
    engine::WireSession session(server, "zoe");
    out.state = session.HandleLine("query state alpha_blk,cell,1") +
                session.HandleLine("query state zeta_blk,cell,2");
    out.report =
        query::FormatProjectReport(query::BuildProjectReport(server.database()));
    out.journal = JournalText(server);
  }
  out.wal = WalText(wal_dir);
  engine::ProjectServer recovered("flat", options);
  out.recovered_dump = metadb::SaveDatabaseString(recovered.database());
  return out;
}

// Goldens: the outputs of RunFlatScenario with properties stored as a
// name-ordered std::map (the layout before objects held symbol ids).
constexpr char kGoldenDump[] = R"golden(damocles-metadb v1
objects 4
object 0 alive=1
  oid "zeta_blk" "cell" 1
  created 0 "zoe"
  prop "alpha" "a"
  prop "beta" "hello"
  prop "mid" "m"
  prop "omega" "o"
  prop "state" "true"
  prop "uptodate" "true"
  prop "zeta" "z"
end
object 1 alive=1
  oid "alpha_blk" "cell" 1
  created 0 "al"
  prop "alpha" "a"
  prop "beta" "a b"
  prop "mid" "m"
  prop "omega" "o"
  prop "state" "false"
  prop "uptodate" "false"
  prop "zeta" "z"
end
object 2 alive=1
  oid "zeta_blk" "cell" 2
  created 0 "zoe"
  prop "alpha" "a"
  prop "mid" "m"
  prop "omega" "o"
  prop "state" "true"
  prop "uptodate" "true"
  prop "zeta" "z"
end
object 3 alive=1
  oid "alpha_blk" "cell" 2
  created 0 "al"
  prop "alpha" "a"
  prop "mid" "m"
  prop "omega" "o"
  prop "state" "true"
  prop "uptodate" "true"
  prop "zeta" "z"
end
links 1
link 0 alive=1 kind=use carry=move from=2 to=3
  type ""
  propagates "outofdate"
  lprop "PROPAGATE" "outofdate"
end
configs 0
)golden";

constexpr char kGoldenState[] = R"golden(<alpha_blk.cell.1>
  alpha = 'a'
  beta = 'a b'
  mid = 'm'
  omega = 'o'
  state = 'false'
  uptodate = 'false'
  zeta = 'z'
<zeta_blk.cell.2>
  alpha = 'a'
  mid = 'm'
  omega = 'o'
  state = 'true'
  uptodate = 'true'
  zeta = 'z'
)golden";

constexpr char kGoldenReport[] = R"golden(OID                                      state  uptodate  props  links(out/in)
---------------------------------------- -----  --------  -----  -------------
<alpha_blk.cell.2>                       true   true          6  0/1
<zeta_blk.cell.2>                        true   true          6  1/0
total 2  state-ok 2  out-of-date 0
)golden";

constexpr char kGoldenJournal[] = R"golden([external] ckin up <zeta_blk.cell.1>
[external] ckin up <alpha_blk.cell.1>
[external] poke down <zeta_blk.cell.1> "hello"
[external] ckin up <zeta_blk.cell.2>
[propagated] outofdate down <alpha_blk.cell.1>
[external] poke down <alpha_blk.cell.1> "a b"
[external] ckin up <alpha_blk.cell.2>
)golden";

constexpr char kGoldenWal[] = R"golden(ops op 1 type 19     down <..1>
ops op 2 type 17 zeta_blk cell zoe  down <..1>
ops op 3 type 17 alpha_blk cell al  down <..1>
ops op 4 type 18     down <..1>
ops op 5 type 16    poke down <zeta_blk.cell.1> "hello"
ops op 6 type 17 zeta_blk cell zoe  down <..1>
ops op 7 type 16    poke down <alpha_blk.cell.1> "a b"
ops op 8 type 17 alpha_blk cell al  down <..1>
shard0 row ckin up <zeta_blk.cell.1>
shard0 row ckin up <alpha_blk.cell.1>
shard0 row poke down <zeta_blk.cell.1> "hello"
shard0 row ckin up <zeta_blk.cell.2>
shard0 row outofdate down <alpha_blk.cell.1>
shard0 row poke down <alpha_blk.cell.1> "a b"
)golden";

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("damocles-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(FlatMetaObject, AdversarialInternOrderKeepsEveryOutputByteIdentical) {
  TempDir dir("flat-meta-object");
  const Outputs out = RunFlatScenario(dir.str());
  EXPECT_EQ(out.dump, kGoldenDump);
  EXPECT_EQ(out.state, kGoldenState);
  EXPECT_EQ(out.report, kGoldenReport);
  EXPECT_EQ(out.journal, kGoldenJournal);
  EXPECT_EQ(out.wal, kGoldenWal);
  // Recovery loads the full checkpoint, applies the delta and replays
  // the op tail, interning names in yet another order.
  EXPECT_EQ(out.recovered_dump, kGoldenDump);
}

TEST(FlatMetaObject, ScenarioInternsNamesInReverseOrder) {
  // The precondition that gives the goldens their teeth.
  engine::ProjectServer server("flat", {});
  server.InitializeBlueprint(kFlatBlueprint);
  server.CheckIn("zeta_blk", "cell", "z1", "zoe");
  server.CheckIn("alpha_blk", "cell", "a1", "al");
  const MetaDatabase& db = server.database();
  EXPECT_LT(db.FindSymbol("zeta"), db.FindSymbol("omega"));
  EXPECT_LT(db.FindSymbol("omega"), db.FindSymbol("alpha"));
  EXPECT_LT(db.FindSymbol("zeta_blk"), db.FindSymbol("alpha_blk"));
  std::vector<std::string> names;
  for (const metadb::Property& property :
       db.GetObject(*db.FindObject(Oid{"zeta_blk", "cell", 1})).properties) {
    names.push_back(db.SymbolText(property.name));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "omega", "state",
                                             "uptodate", "zeta"}));
}

TEST(FlatMetaObject, IdenticalWriteIsNoMutation) {
  MetaDatabase db;
  const OidId id = db.CreateObject(Oid{"b", "v", 1}, "u", 0);
  EXPECT_TRUE(db.SetProperty(id, "state", "true"));
  const uint32_t revision = db.GetObject(id).revision;
  const metadb::Snapshot first = db.PublishSnapshot();
  EXPECT_FALSE(db.SetProperty(id, "state", "true"));
  EXPECT_EQ(db.GetObject(id).revision, revision);
  EXPECT_EQ(db.PublishSnapshot().epoch(), first.epoch());
  EXPECT_TRUE(db.SetProperty(id, "state", "false"));
  EXPECT_EQ(db.GetObject(id).revision, revision + 1);
  EXPECT_EQ(db.PublishSnapshot().epoch(), first.epoch() + 1);
}

TEST(FlatMetaObject, ReadsNeverGrowTheSymbolTable) {
  MetaDatabase db;
  const OidId id = db.CreateObject(Oid{"b", "v", 1}, "u", 0);
  db.SetProperty(id, "state", "true");
  const size_t symbols = db.SymbolCount();
  EXPECT_EQ(db.GetProperty(id, "never_seen"), nullptr);
  EXPECT_EQ(db.FindSymbol("never_seen"), SymbolTable::kNoSymbol);
  EXPECT_FALSE(db.RemoveProperty(id, "never_seen"));
  EXPECT_FALSE(db.FindLatest("never_seen", "v").has_value());
  const query::ProjectQuery q(db);
  EXPECT_TRUE(q.FindByProperty("never_seen", "x").empty());
  EXPECT_TRUE(q.FindByBlock("never_seen").empty());
  EXPECT_TRUE(q.FindByView("never_seen").empty());
  EXPECT_EQ(q.FindByBlock("b").size(), 1u);
  EXPECT_EQ(q.FindByProperty("state", "true").size(), 1u);
  EXPECT_EQ(db.SymbolCount(), symbols);
}

TEST(FlatMetaObject, WaveWorkerThreadsCannotInternNewNames) {
  MetaDatabase db;
  const OidId id = db.CreateObject(Oid{"b", "v", 1}, "u", 0);
  db.Intern("known");
  std::thread worker([&] {
    MetaDatabase::DenyInterning(true);
    EXPECT_TRUE(db.SetProperty(id, "known", "1"));
    EXPECT_THROW(db.SetProperty(id, "brand_new", "1"), IntegrityError);
  });
  worker.join();
  EXPECT_EQ(db.FindSymbol("brand_new"), SymbolTable::kNoSymbol);
  EXPECT_TRUE(db.SetProperty(id, "brand_new", "1"));  // Structural thread.
  // Set and restore nest: restoring an inner denial keeps the outer one,
  // and restoring the outer one lets the thread intern again.
  const bool outer = MetaDatabase::DenyInterning(true);
  EXPECT_FALSE(outer);
  MetaDatabase::DenyInterning(MetaDatabase::DenyInterning(true));
  EXPECT_THROW(db.SetProperty(id, "after_inner", "1"), IntegrityError);
  MetaDatabase::DenyInterning(outer);
  EXPECT_TRUE(db.SetProperty(id, "after_inner", "1"));
}

TEST(FlatMetaObjectInterning, ThreadedShardsReadersAndNewBlocks) {
  engine::ServerOptions options;
  options.num_shards = 4;
  engine::ProjectServer server("flat-tsan", options);
  ASSERT_EQ(server.sharded_engine()->num_shards(), 4u);
  server.InitializeBlueprint(kFlatBlueprint);
  engine::SessionMux mux(server);
  auto writer = mux.Connect("zoe");

  constexpr int kBlocks = 24;
  std::atomic<int> created{0};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    auto session = mux.Connect("reader");
    int k = 0;
    while (!done.load()) {
      const int have = created.load();
      if (have == 0) {
        std::this_thread::yield();
        continue;
      }
      const std::string block = "blk" + std::to_string(k++ % have);
      const std::string state =
          session->Execute("query state " + block + ",cell,1");
      EXPECT_EQ(state.rfind("<" + block + ".cell.1>\n", 0), 0u) << state;
      const std::string listed = session->Execute("query block " + block);
      EXPECT_NE(listed.find("<" + block + ".cell.1>"), std::string::npos)
          << listed;
    }
  });
  const auto apply = [&](const std::string& line) {
    const std::string response = writer->Execute(line);
    EXPECT_EQ(response.rfind("ok", 0), 0u) << line << ": " << response;
  };
  for (int i = 0; i < kBlocks; ++i) {
    // Each check-in interns a new block name between drains.
    const std::string block = "blk" + std::to_string(i);
    apply("checkin " + block + " cell \"v\"");
    // Use links fan the root's waves out over every shard.
    if (i > 0) apply("link use blk0,cell,1 " + block + ",cell,1");
    apply("postEvent poke down " + block + ",cell,1 x" + std::to_string(i));
    apply("postEvent outofdate down blk0,cell,1");
    created.store(i + 1);
  }
  done.store(true);
  reader.join();
  const MetaDatabase& db = server.database();
  const std::string* beta =
      db.GetProperty(*db.FindObject(Oid{"blk7", "cell", 1}), "beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(*beta, "x7");
}

}  // namespace
}  // namespace damocles
