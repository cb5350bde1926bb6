// Differential suite for the incremental snapshot publish.
//
// A publish freezes the live database by sharing the previous published
// version's chunks and copying only the chunks the dirty tracker marked
// since then (metadb/chunked.hpp). These tests drive every
// MetaDatabase mutation entry point from a seeded random mutator,
// publish at random points and check that
//  * each published version reads exactly like the live database did
//    at publish time (the persistence dump plus adjacency and every
//    lookup index);
//  * every still-pinned older version stays byte-identical however
//    much the live database changes afterwards;
//  * chunks no mutation touched are pointer-shared with the previous
//    version, and touched ones are fresh copies;
//  * the checkpoint consumer of the same dirty marks still cuts exact
//    deltas while publishes interleave, and a cut whose write failed
//    is covered by the next;
//  * a publish after writes that change nothing keeps the epoch;
//  * a threaded 4-shard server publishing between batches meets the
//    same contract.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/project_server.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/persistence.hpp"
#include "workload/generators.hpp"

namespace damocles {
namespace {

using metadb::CarryPolicy;
using metadb::ConfigId;
using metadb::Configuration;
using metadb::DirtyTable;
using metadb::kChunkShift;
using metadb::Link;
using metadb::LinkId;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::MetaObject;
using metadb::Oid;
using metadb::OidId;
using metadb::Snapshot;

constexpr DirtyTable kSlotTables[] = {DirtyTable::kObjects, DirtyTable::kLinks,
                                      DirtyTable::kConfigs,
                                      DirtyTable::kAdjacency};
constexpr DirtyTable kIndexTables[] = {DirtyTable::kOidIndex,
                                       DirtyTable::kChainIndex,
                                       DirtyTable::kConfigIndex};

template <typename Id>
std::string OptionalSlot(const std::optional<Id>& id) {
  return id.has_value() ? std::to_string(id->value()) : "-";
}

/// Everything a reader can observe: the persistence dump plus the
/// state it does not cover (adjacency, the three lookup indexes).
std::string Fingerprint(const MetaDatabase& db) {
  std::ostringstream out;
  out << metadb::SaveDatabaseString(db);
  for (size_t slot = 0; slot < db.ObjectSlotCount(); ++slot) {
    const OidId id(static_cast<uint32_t>(slot));
    const Oid oid = db.OidOf(id);
    out << "slot " << slot << " out";
    for (const LinkId link : db.OutLinks(id)) out << ' ' << link.value();
    out << " in";
    for (const LinkId link : db.InLinks(id)) out << ' ' << link.value();
    out << " find " << OptionalSlot(db.FindObject(oid));
    out << " latest " << OptionalSlot(db.FindLatest(oid.block, oid.view));
    out << " prev " << OptionalSlot(db.PreviousVersion(id)) << " chain";
    for (const OidId entry : db.VersionChain(oid.block, oid.view)) {
      out << ' ' << entry.value();
    }
    out << '\n';
  }
  for (const std::string& name : db.ConfigurationNames()) {
    out << "config " << name << ' ';
    out << OptionalSlot(db.FindConfiguration(name)) << '\n';
  }
  return out.str();
}

/// Random mutator over every MetaDatabase mutation entry point. It
/// records which slot-table chunks each mutation touches and how many
/// index entries it changes, so tests can predict what a publish
/// shares.
class Mutator {
 public:
  Mutator(MetaDatabase& db, uint64_t seed) : db_(db), rng_(seed) {}

  void Step() {
    if (live_.size() < 4) {
      CreateFresh();
      return;
    }
    switch (rng_.WeightedIndex({4, 3, 1, 8, 2, 2, 2, 4, 2, 2, 2, 2, 1, 1, 1})) {
      case 0:
        CreateFresh();
        break;
      case 1:
        NextVersion();
        break;
      case 2:
        DeleteObject();
        break;
      case 3:
        SetProperty();
        break;
      case 4:
        RemoveProperty();
        break;
      case 5:
        MutateObjectInPlace();
        break;
      case 6:
        MutateLinkInPlace();
        break;
      case 7:
        CreateLink();
        break;
      case 8:
        DeleteLink();
        break;
      case 9:
        MoveLink();
        break;
      case 10:
        SetPropagates();
        break;
      case 11:
        SaveConfiguration();
        break;
      case 12:
        RestoreSlots();
        break;
      case 13:
        ApplySlots();
        break;
      default:
        ApplyLinkSlots();
        break;
    }
  }

  /// Chunks of `table` touched since the last ResetTouched().
  const std::set<size_t>& touched(DirtyTable table) const {
    return touched_[static_cast<size_t>(table)];
  }
  /// Index entries changed since the last ResetTouched(): an upper
  /// bound on the index partitions a publish may copy.
  size_t index_changes() const { return index_changes_; }
  bool rebuilt_adjacency() const { return rebuilt_adjacency_; }

  void ResetTouched() {
    for (auto& set : touched_) set.clear();
    index_changes_ = 0;
    rebuilt_adjacency_ = false;
  }

 private:
  void Touch(DirtyTable table, size_t slot) {
    touched_[static_cast<size_t>(table)].insert(slot >> kChunkShift);
  }

  /// Uniform in [0, n).
  size_t PickIndex(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  OidId PickLive() { return live_[PickIndex(live_.size())]; }

  /// A live link, or an invalid handle when there is none.
  LinkId PickLiveLink() {
    if (db_.LinkSlotCount() == 0) return LinkId();
    for (int attempt = 0; attempt < 8; ++attempt) {
      const LinkId id(static_cast<uint32_t>(PickIndex(db_.LinkSlotCount())));
      if (db_.GetLink(id).alive) return id;
    }
    return LinkId();
  }

  void Created(OidId id) {
    live_.push_back(id);
    Touch(DirtyTable::kObjects, id.value());
    index_changes_ += 2;  // by_oid + version chain.
  }

  void CreateFresh() {
    const Oid oid{"blk" + std::to_string(next_block_++),
                  rng_.Chance(0.5) ? "schematic" : "layout", 1};
    Created(db_.CreateObject(oid, "mutator", next_block_));
  }

  void NextVersion() {
    const Oid oid = db_.OidOf(PickLive());
    Created(db_.CreateNextVersion(oid.block, oid.view, "mutator", 7));
  }

  void TouchLinkEndpoints(LinkId id) {
    const Link& link = db_.GetLink(id);
    Touch(DirtyTable::kLinks, id.value());
    Touch(DirtyTable::kAdjacency, link.from.value());
    Touch(DirtyTable::kAdjacency, link.to.value());
  }

  void DeleteObject() {
    const size_t pick = PickIndex(live_.size());
    const OidId id = live_[pick];
    for (const LinkId link : db_.OutLinks(id)) TouchLinkEndpoints(link);
    for (const LinkId link : db_.InLinks(id)) TouchLinkEndpoints(link);
    db_.DeleteObject(id);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
    Touch(DirtyTable::kObjects, id.value());
    index_changes_ += 1;
  }

  void SetProperty() {
    const OidId id = PickLive();
    // A write of the value already there changes nothing.
    if (db_.SetProperty(id, "p" + std::to_string(rng_.UniformInt(0, 3)),
                        std::to_string(rng_.UniformInt(0, 99)))) {
      Touch(DirtyTable::kObjects, id.value());
    }
  }

  void RemoveProperty() {
    const OidId id = PickLive();
    const std::string name = "p" + std::to_string(rng_.UniformInt(0, 3));
    if (db_.RemoveProperty(id, name)) Touch(DirtyTable::kObjects, id.value());
  }

  void MutateObjectInPlace() {
    const OidId id = PickLive();
    const SymbolId name = db_.Intern("inplace");
    db_.PutProperty(db_.GetObjectMutable(id), name,
                    std::to_string(rng_.UniformInt(0, 99)));
    Touch(DirtyTable::kObjects, id.value());
  }

  void MutateLinkInPlace() {
    const LinkId id = PickLiveLink();
    if (!id.valid()) return;
    db_.GetLinkMutable(id).properties["note"] =
        std::to_string(rng_.UniformInt(0, 99));
    Touch(DirtyTable::kLinks, id.value());
  }

  void CreateLink() {
    const OidId from = PickLive();
    const OidId to = PickLive();
    if (from == to) return;
    const LinkId id = db_.CreateLink(LinkKind::kDerive, from, to,
                                     {"outofdate"}, "derive_from",
                                     CarryPolicy::kMove);
    TouchLinkEndpoints(id);
  }

  void DeleteLink() {
    const LinkId id = PickLiveLink();
    if (!id.valid()) return;
    TouchLinkEndpoints(id);
    db_.DeleteLink(id);
  }

  void MoveLink() {
    const LinkId id = PickLiveLink();
    if (!id.valid()) return;
    const bool endpoint_from = rng_.Chance(0.5);
    const Link& link = db_.GetLink(id);
    const OidId old_endpoint = endpoint_from ? link.from : link.to;
    const OidId other = endpoint_from ? link.to : link.from;
    const OidId target = PickLive();
    if (target == old_endpoint || target == other) return;
    db_.MoveLinkEndpoint(id, endpoint_from, target);
    Touch(DirtyTable::kLinks, id.value());
    Touch(DirtyTable::kAdjacency, old_endpoint.value());
    Touch(DirtyTable::kAdjacency, target.value());
  }

  void SetPropagates() {
    const LinkId id = PickLiveLink();
    if (!id.valid()) return;
    const std::string event = "ev" + std::to_string(rng_.UniformInt(0, 9));
    std::vector<std::string> propagates{event};
    if (db_.GetLink(id).propagates == propagates) return;
    db_.SetLinkPropagates(id, std::move(propagates));
    Touch(DirtyTable::kLinks, id.value());
  }

  void SaveConfiguration() {
    Configuration config;
    config.name = "cfg" + std::to_string(rng_.UniformInt(0, 5));
    config.created_at = rng_.UniformInt(0, 1000);
    config.oids = {PickLive(), PickLive()};
    const bool replaces = db_.FindConfiguration(config.name).has_value();
    const ConfigId id = db_.SaveConfiguration(std::move(config));
    Touch(DirtyTable::kConfigs, id.value());
    if (!replaces) index_changes_ += 1;
  }

  void RestoreSlots() {
    // Next version of an existing chain, a live link and a nameless
    // configuration, appended verbatim as a checkpoint load would.
    const Oid base = db_.OidOf(PickLive());
    const OidId latest = db_.VersionChain(base.block, base.view).back();
    MetaObject object;
    object.block = db_.GetObject(latest).block;
    object.view = db_.GetObject(latest).view;
    object.version = db_.GetObject(latest).version + 1;
    db_.PutProperty(object, db_.Intern("restored"), "yes");
    Created(db_.RestoreObjectSlot(std::move(object)));

    Link link;
    link.from = PickLive();
    link.to = PickLive();
    if (link.from != link.to) {
      link.propagates = {"outofdate"};
      TouchLinkEndpoints(db_.RestoreLinkSlot(std::move(link)));
    }

    Configuration config;
    config.built_from = "restore";
    Touch(DirtyTable::kConfigs,
          db_.RestoreConfigurationSlot(std::move(config)).value());
  }

  void ApplySlots() {
    // Delta replay: rewrite an object slot in place (same OID) and a
    // configuration slot (renamed), then rebuild adjacency.
    const OidId id = PickLive();
    MetaObject object = db_.GetObject(id);
    db_.PutProperty(object, db_.Intern("applied"),
                    std::to_string(rng_.UniformInt(0, 99)));
    db_.ApplyObjectSlot(id.value(), std::move(object));
    Touch(DirtyTable::kObjects, id.value());
    if (db_.ConfigurationSlotCount() > 0) {
      const size_t slot = PickIndex(db_.ConfigurationSlotCount());
      Configuration config =
          db_.GetConfiguration(ConfigId(static_cast<uint32_t>(slot)));
      config.name = "applied" + std::to_string(slot);
      db_.ApplyConfigurationSlot(slot, std::move(config));
      Touch(DirtyTable::kConfigs, slot);
      index_changes_ += 2;
    }
    RebuildAdjacency();
  }

  void ApplyLinkSlots() {
    const LinkId id = PickLiveLink();
    if (!id.valid()) return;
    Link link = db_.GetLink(id);
    link.type = "applied";
    link.alive = rng_.Chance(0.7);
    db_.ApplyLinkSlot(id.value(), std::move(link));
    Touch(DirtyTable::kLinks, id.value());
    RebuildAdjacency();
  }

  void RebuildAdjacency() {
    db_.RebuildLinkAdjacency();
    rebuilt_adjacency_ = true;
  }

  MetaDatabase& db_;
  Rng rng_;
  std::vector<OidId> live_;
  int next_block_ = 0;
  std::array<std::set<size_t>, metadb::kDirtyTableCount> touched_;
  size_t index_changes_ = 0;
  bool rebuilt_adjacency_ = false;
};

/// A published version and what the live database looked like when it
/// was published.
struct Pinned {
  Snapshot snapshot;
  std::string fingerprint;
};

void ExpectSharing(const MetaDatabase& previous, const MetaDatabase& current,
                   const Mutator& mutator, const std::string& where) {
  for (const DirtyTable table : kSlotTables) {
    if (table == DirtyTable::kAdjacency && mutator.rebuilt_adjacency()) {
      continue;  // A rebuild marks every adjacency chunk.
    }
    const size_t shared_range =
        std::min(previous.ChunkCount(table), current.ChunkCount(table));
    SCOPED_TRACE(static_cast<int>(table));
    for (size_t chunk = 0; chunk < shared_range; ++chunk) {
      const bool shared = previous.ChunkAddress(table, chunk) ==
                          current.ChunkAddress(table, chunk);
      const bool touched = mutator.touched(table).count(chunk) > 0;
      EXPECT_NE(shared, touched) << where << " chunk " << chunk;
    }
  }
  size_t copied_partitions = 0;
  for (const DirtyTable table : kIndexTables) {
    for (size_t p = 0; p < current.ChunkCount(table); ++p) {
      if (previous.ChunkAddress(table, p) != current.ChunkAddress(table, p)) {
        ++copied_partitions;
      }
    }
  }
  EXPECT_LE(copied_partitions, mutator.index_changes()) << where;
}

void RunDifferential(uint64_t seed) {
  MetaDatabase db;
  Mutator mutator(db, seed);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Pinned> pinned;
  Snapshot previous;
  for (int step = 0; step < 1500; ++step) {
    mutator.Step();
    if (!rng.Chance(0.08)) continue;
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const Snapshot published = db.PublishSnapshot();
    const std::string live = Fingerprint(db);
    ASSERT_EQ(metadb::SaveDatabaseString(published.db()),
              metadb::SaveDatabaseString(db))
        << where;
    ASSERT_EQ(Fingerprint(published.db()), live) << where;
    if (previous.valid()) {
      ExpectSharing(previous.db(), published.db(), mutator, where);
    }
    mutator.ResetTouched();
    previous = published;
    // Pin a few versions well past the retention window and re-check
    // every pinned one: later publishes must never reach into them.
    if (pinned.size() < 12 && rng.Chance(0.4)) {
      pinned.push_back({published, live});
    }
    for (const Pinned& old : pinned) {
      ASSERT_EQ(Fingerprint(old.snapshot.db()), old.fingerprint)
          << where << " pinned epoch " << old.snapshot.epoch();
    }
  }
  EXPECT_GT(db.snapshot_epoch(), 40u);
}

TEST(SnapshotPublish, RandomMutationsMatchLiveAndShareCleanChunks) {
  for (const uint64_t seed : {1ULL, 2ULL, 17ULL}) {
    SCOPED_TRACE(seed);
    RunDifferential(seed);
  }
}

TEST(SnapshotPublish, PropertyOnlyPublishSharesIndexesAndAdjacency) {
  MetaDatabase db;
  std::vector<OidId> ids;
  for (int i = 0; i < 300; ++i) {
    const Oid oid{"b" + std::to_string(i), "v", 1};
    ids.push_back(db.CreateObject(oid, "u", 0));
    if (i > 0) {
      db.CreateLink(LinkKind::kDerive, ids[static_cast<size_t>(i - 1)],
                    ids.back(), {"outofdate"}, "", CarryPolicy::kNone);
    }
  }
  // A known name: a first write of a new one also interns it, which
  // copies a symbol chunk and a symbol-index partition.
  db.Intern("state");
  const Snapshot before = db.PublishSnapshot();
  db.SetProperty(ids[70], "state", "dirty");
  const Snapshot after = db.PublishSnapshot();
  ASSERT_EQ(after.epoch(), before.epoch() + 1);
  for (size_t table = 0; table < metadb::kDirtyTableCount; ++table) {
    const DirtyTable t = static_cast<DirtyTable>(table);
    for (size_t chunk = 0; chunk < after->ChunkCount(t); ++chunk) {
      const bool copied =
          t == DirtyTable::kObjects && chunk == (70u >> kChunkShift);
      const bool shared =
          before->ChunkAddress(t, chunk) == after->ChunkAddress(t, chunk);
      EXPECT_NE(shared, copied) << "table " << table << " chunk " << chunk;
    }
  }
  EXPECT_EQ(before->GetProperty(ids[70], "state"), nullptr);
  EXPECT_EQ(*after->GetProperty(ids[70], "state"), "dirty");
}

TEST(SnapshotPublish, WritesThatChangeNothingKeepTheEpoch) {
  // A publish is a no-op exactly when the dirty tracker marked nothing
  // since the previous one; writes that change no value mark nothing.
  MetaDatabase db;
  const OidId a = db.CreateObject(Oid{"a", "v", 1}, "u", 0);
  const OidId b = db.CreateObject(Oid{"b", "v", 1}, "u", 0);
  const LinkId link = db.CreateLink(LinkKind::kDerive, a, b, {"outofdate"},
                                    "", CarryPolicy::kNone);
  db.SetProperty(a, "state", "true");
  const Snapshot first = db.PublishSnapshot();
  EXPECT_FALSE(db.RemoveProperty(a, "absent"));
  db.SetLinkPropagates(link, {"outofdate"});
  db.MoveLinkEndpoint(link, /*endpoint_from=*/false, b);
  EXPECT_EQ(db.PublishSnapshot().epoch(), first.epoch());

  db.GetObjectMutable(a);  // Conservatively a mutation.
  const Snapshot second = db.PublishSnapshot();
  EXPECT_EQ(second.epoch(), first.epoch() + 1);
  EXPECT_EQ(db.PublishSnapshot().epoch(), second.epoch());

  // Engine level: repeating an out-of-date wave over OIDs that are
  // already out of date writes nothing, so the publish keeps the epoch.
  const workload::FlowSpec flow;
  engine::ProjectServer server("noop", {});
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "noop"));
  const Oid golden = workload::InstantiateFlow(server, flow, "blk");
  const auto post_outofdate = [&] {
    server.SubmitWireLine("postEvent outofdate down " +
                              metadb::FormatOidWire(golden),
                          "alice");
  };
  const Snapshot before = server.database().PublishSnapshot();
  post_outofdate();
  const Snapshot wave = server.database().PublishSnapshot();
  ASSERT_EQ(wave.epoch(), before.epoch() + 1);
  post_outofdate();
  EXPECT_EQ(server.database().PublishSnapshot().epoch(), wave.epoch());
}

TEST(SnapshotPublish, CheckpointCutsStayExactWithInterleavedPublishes) {
  // One set of marks, one publish cursor: publishes between checkpoint
  // cuts must not consume the checkpoint's marks, and vice versa. A cut
  // counted as failed keeps the previous base and start generation, so
  // the next cut must cover its slots too.
  MetaDatabase db;
  Mutator mutator(db, 5);
  Rng rng(55);
  for (int i = 0; i < 50; ++i) mutator.Step();
  std::string base = metadb::SaveDatabaseString(db);
  uint64_t since = db.CutDirtySet(0).next_since;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 40; ++i) {
      mutator.Step();
      if (rng.Chance(0.1)) db.PublishSnapshot();
    }
    const metadb::DirtySet dirty = db.CutDirtySet(since);
    MetaDatabase replay = metadb::LoadDatabaseString(base);
    metadb::ApplyDatabaseDeltaString(
        metadb::SaveDatabaseDeltaString(db, dirty), replay);
    const std::string live = metadb::SaveDatabaseString(db);
    ASSERT_EQ(metadb::SaveDatabaseString(replay), live) << "round " << round;
    const Snapshot published = db.PublishSnapshot();
    ASSERT_EQ(Fingerprint(published.db()), Fingerprint(db)) << round;
    if (rng.Chance(0.3)) continue;  // A failed write: nothing commits.
    base = live;
    since = dirty.next_since;
  }
}

TEST(SnapshotPublish, ShardedServerPublishesMatchLiveAndPinnedStayStable) {
  const workload::FlowSpec flow;
  engine::ServerOptions options;
  options.num_shards = 4;
  options.auto_drain = false;
  engine::ProjectServer server("publish", options);
  server.InitializeBlueprint(workload::MakeFlowBlueprint(flow, "publish"));
  std::vector<std::string> blocks;
  for (int block = 0; block < 40; ++block) {
    blocks.push_back("blk" + std::to_string(block));
    workload::InstantiateFlow(server, flow, blocks.back());
  }
  metadb::MetaDatabase& db = server.database();
  std::vector<Pinned> pinned;
  for (int batch = 0; batch < 40; ++batch) {
    workload::TraceSpec trace;
    trace.n_actions = 25;
    trace.seed = 1000 + static_cast<uint64_t>(batch);
    workload::RunDesignSession(server, flow, blocks, trace);
    server.Drain();
    const Snapshot published = db.PublishSnapshot();
    const std::string live = Fingerprint(db);
    ASSERT_EQ(Fingerprint(published.db()), live) << "batch " << batch;
    if (batch % 5 == 0) pinned.push_back({published, live});
    for (const Pinned& old : pinned) {
      ASSERT_EQ(Fingerprint(old.snapshot.db()), old.fingerprint)
          << "batch " << batch << " pinned epoch " << old.snapshot.epoch();
    }
  }
}

// --- Property blocks --------------------------------------------------------

/// Where `id`'s properties live in `db` (nullptr without properties):
/// two versions share an object's property block exactly when equal.
const metadb::Property* PropertyStorage(const MetaDatabase& db, OidId id) {
  return db.GetObject(id).properties.begin();
}

/// `db` with `count` objects carrying two properties each.
std::vector<OidId> PopulateWithProperties(MetaDatabase& db, int count) {
  std::vector<OidId> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(db.CreateObject(Oid{"b" + std::to_string(i), "v", 1}, "u", 0));
    db.SetProperty(ids.back(), "state", "clean");
    db.SetProperty(ids.back(), "owner", "u" + std::to_string(i));
  }
  return ids;
}

TEST(SnapshotPublish, OneWriteCopiesOnlyThatObjectsPropertyBlock) {
  MetaDatabase db;
  const std::vector<OidId> ids = PopulateWithProperties(db, 150);
  const Snapshot before = db.PublishSnapshot();
  db.SetProperty(ids[70], "state", "dirty");
  const Snapshot after = db.PublishSnapshot();
  const size_t chunk = 70u >> kChunkShift;
  ASSERT_NE(before->ChunkAddress(DirtyTable::kObjects, chunk),
            after->ChunkAddress(DirtyTable::kObjects, chunk));
  for (size_t slot = chunk << kChunkShift;
       slot < ((chunk + 1) << kChunkShift); ++slot) {
    const OidId id(static_cast<uint32_t>(slot));
    const bool shared = PropertyStorage(before.db(), id) ==
                        PropertyStorage(after.db(), id);
    EXPECT_EQ(shared, slot != 70) << "slot " << slot;
    // The live database never shares a block.
    EXPECT_NE(PropertyStorage(db, id), PropertyStorage(after.db(), id))
        << "slot " << slot;
  }
  EXPECT_EQ(*before->GetProperty(ids[70], "state"), "clean");
  EXPECT_EQ(*after->GetProperty(ids[70], "state"), "dirty");
  EXPECT_EQ(*after->GetProperty(ids[71], "owner"), "u71");
}

TEST(SnapshotPublish, PinnedPropertiesSurviveEveryLaterWrite) {
  // 100 objects: the second object chunk is partly filled, so a create
  // appends into a chunk the pinned version holds. Every write lands in
  // an object whose block the newest version shares with the pinned
  // one, and a publish follows each, so the pinned blocks are shared
  // into later versions and then outlive them.
  MetaDatabase db;
  std::vector<OidId> ids = PopulateWithProperties(db, 100);
  const Snapshot pinned = db.PublishSnapshot();
  const std::string pinned_text = Fingerprint(pinned.db());
  const std::vector<std::function<void()>> writes = {
      [&] { db.SetProperty(ids[65], "state", "dirty"); },
      [&] { db.SetProperty(ids[66], "added", "new name"); },
      [&] { db.RemoveProperty(ids[67], "owner"); },
      [&] {
        db.PutProperty(db.GetObjectMutable(ids[68]), db.Intern("state"),
                       "in place");
      },
      [&] {
        MetaObject object = db.GetObject(ids[69]);
        db.PutProperty(object, db.Intern("state"), "applied");
        db.ApplyObjectSlot(ids[69].value(), std::move(object));
      },
      [&] {
        ids.push_back(db.CreateObject(Oid{"b100", "v", 1}, "u", 0));
        db.SetProperty(ids.back(), "state", "appended");
      },
      [&] { db.SetProperty(ids[65], "state", "dirty again"); },
  };
  std::vector<Snapshot> versions;
  for (size_t i = 0; i < writes.size(); ++i) {
    writes[i]();
    versions.push_back(db.PublishSnapshot());
    ASSERT_EQ(Fingerprint(versions.back().db()), Fingerprint(db)) << i;
    ASSERT_EQ(Fingerprint(pinned.db()), pinned_text) << "after write " << i;
  }
  // Dropping the later versions releases only their references.
  versions.clear();
  EXPECT_EQ(Fingerprint(pinned.db()), pinned_text);
  EXPECT_EQ(*pinned->GetProperty(ids[67], "owner"), "u67");
}

TEST(SnapshotPublish, ObjectCopiedOutOfASnapshotIsIndependent) {
  MetaDatabase db;
  const std::vector<OidId> ids = PopulateWithProperties(db, 10);
  std::optional<Snapshot> snapshot = db.PublishSnapshot();
  db.SetProperty(ids[3], "state", "dirty");
  db.PublishSnapshot();  // Shares ids[4]'s block with `snapshot`.
  MetaObject copy = (*snapshot)->GetObject(ids[4]);
  EXPECT_NE(copy.properties.begin(), PropertyStorage(snapshot->db(), ids[4]));
  db.PutProperty(copy, db.Intern("state"), "copied");
  EXPECT_EQ(*(*snapshot)->GetProperty(ids[4], "state"), "clean");
  EXPECT_EQ(*db.GetProperty(ids[4], "state"), "clean");
  snapshot.reset();
  EXPECT_EQ(*copy.FindProperty(db.Intern("state")), "copied");
  EXPECT_EQ(*copy.FindProperty(db.Intern("owner")), "u4");
}

}  // namespace
}  // namespace damocles
