// The DAMOCLES meta-database.
//
// Stores meta-objects (OIDs), Links and Configurations; maintains the
// version history per (block, view) pair and link adjacency per object.
// This is the substrate the project BluePrint's run-time engine operates
// on (paper §2).
//
// Storage model: dense slot tables with tombstoning. Handles (OidId,
// LinkId, ConfigId) are slot indices and stay valid for the life of the
// database, which is what makes Configuration objects — sets of
// handles — light-weight snapshots. Every table (and every lookup
// index) is stored in fixed-size chunks (metadb/chunked.hpp) so a
// snapshot publish copies only what changed since the previous one.
//
// The database owns a symbol table for every name its objects and links
// store: block, view, creating user, property and PROPAGATE names. It is
// the only symbol space of wave execution: rule tables and propagation
// indexes key on its ids. Objects hold ids
// (metadb/meta_object.hpp); the Oid triplet stays the API and wire type
// and is rebuilt on demand by OidOf. The table is stored like the other
// tables, so a published version resolves names without touching live
// state. Interning a new name is a structural (single-writer) mutation;
// wave workers only look names up.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol.hpp"
#include "metadb/chunked.hpp"
#include "metadb/configuration.hpp"
#include "metadb/dirty_tracker.hpp"
#include "metadb/ids.hpp"
#include "metadb/link.hpp"
#include "metadb/meta_object.hpp"
#include "metadb/oid.hpp"
#include "metadb/snapshot.hpp"

namespace damocles::metadb {

/// Aggregate statistics, used by benches and the query layer.
struct DatabaseStats {
  size_t live_objects = 0;
  size_t dead_objects = 0;
  size_t live_links = 0;
  size_t dead_links = 0;
  size_t configurations = 0;
  size_t property_values = 0;
};

/// Receives structural notifications. The run-time engine registers
/// one of these to keep its propagation index consistent with the link
/// graph without rescanning adjacency on every wave; the shard map uses
/// the same protocol to track block-subtree membership.
///
/// Callback contract:
///  * OnObjectCreated fires after the object is indexed (default no-op
///    so link-only observers need not care);
///  * OnLinkAdded fires after the link is wired into adjacency;
///  * OnLinkRemoved fires before the link is detached, with its
///    endpoints and PROPAGATE list still intact;
///  * OnLinkEndpointMoved fires after the move, passing the previous
///    value of the endpoint that changed;
///  * OnLinkPropagatesChanged fires after the change, passing the
///    previous PROPAGATE list.
/// Mutating the PROPAGATE list through GetLinkMutable() bypasses these
/// notifications — use SetLinkPropagates() instead.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void OnObjectCreated(OidId id, const MetaObject& object) {
    (void)id;
    (void)object;
  }
  virtual void OnLinkAdded(LinkId id, const Link& link) = 0;
  virtual void OnLinkRemoved(LinkId id, const Link& link) = 0;
  virtual void OnLinkEndpointMoved(LinkId id, bool endpoint_from,
                                   OidId old_endpoint, const Link& link) = 0;
  virtual void OnLinkPropagatesChanged(
      LinkId id, const std::vector<std::string>& old_propagates,
      const Link& link) = 0;
};

/// The meta-database. Mutations are not thread-safe; the run-time
/// engine serializes them through its FIFO event queue, matching the
/// paper's "events are processed sequentially, first-in first-out".
/// Concurrent READS go through the epoch-versioned snapshot API below
/// (PublishSnapshot / Latest / AtEpoch): readers pin an immutable
/// published version with one atomic load and never contend with
/// committing waves. See metadb/snapshot.hpp.
class MetaDatabase {
 public:
  MetaDatabase()
      : snapshots_(std::make_unique<SnapshotStore>()),
        dirty_(std::make_unique<DirtyTracker>()) {
    Intern("");
  }

  // MetaDatabase owns large index structures; copying is almost always
  // a bug (use Configuration snapshots instead), so copies are disabled
  // while moves remain available.
  MetaDatabase(const MetaDatabase&) = delete;
  MetaDatabase& operator=(const MetaDatabase&) = delete;
  MetaDatabase(MetaDatabase&&) = default;
  MetaDatabase& operator=(MetaDatabase&&) = default;

  // --- Meta-object lifecycle -------------------------------------------

  /// Creates the meta-object for `oid`. Throws IntegrityError if the
  /// triplet already exists or if the version is not exactly one past
  /// the latest existing version of (block, view) (1 for the first).
  OidId CreateObject(const Oid& oid, std::string_view user,
                     int64_t timestamp);

  /// Creates the next version of (block, view): version 1 if none
  /// exists, latest+1 otherwise. Returns the new handle.
  OidId CreateNextVersion(std::string_view block, std::string_view view,
                          std::string_view user, int64_t timestamp);

  /// Marks the object dead and removes all of its links.
  void DeleteObject(OidId id);

  // --- Lookup ------------------------------------------------------------

  /// Handle for an exact triplet, or nullopt.
  std::optional<OidId> FindObject(const Oid& oid) const;

  /// Handle for the latest live version of (block, view), or nullopt.
  std::optional<OidId> FindLatest(std::string_view block,
                                  std::string_view view) const;

  /// All versions (live and dead) of (block, view), oldest first.
  std::vector<OidId> VersionChain(std::string_view block,
                                  std::string_view view) const;

  /// Handle of the version preceding `id` in its chain, or nullopt.
  std::optional<OidId> PreviousVersion(OidId id) const;

  /// The object behind a handle. Throws NotFoundError on a stale or
  /// invalid handle.
  const MetaObject& GetObject(OidId id) const;
  MetaObject& GetObjectMutable(OidId id);

  /// True when `id` names a live (not deleted, in-range) object. Cheap
  /// probe for slot-walking callers (the shard map skips dead slots).
  bool IsLiveObject(OidId id) const noexcept {
    return id.value() < objects_.size() && objects_[id.value()].alive;
  }

  /// The <block, view, version> triplet of an object.
  Oid OidOf(OidId id) const { return OidOf(GetObject(id)); }
  Oid OidOf(const MetaObject& object) const {
    return Oid{BlockOf(object), ViewOf(object), object.version};
  }
  const std::string& BlockOf(const MetaObject& object) const noexcept {
    return symbols_[object.block];
  }
  const std::string& ViewOf(const MetaObject& object) const noexcept {
    return symbols_[object.view];
  }

  // --- Symbols -------------------------------------------------------------
  // Thread contract: Intern of a NEW name is a structural mutation
  // (create, check-in, link create or PROPAGATE rewrite, load, recovery,
  // blueprint install). FindSymbol and SymbolText are safe from wave
  // workers, which never intern.

  /// The id of `text`, interned on first use. Id 0 is the empty string.
  /// Throws IntegrityError for a new name on a thread that denies
  /// interning (DenyInterning).
  SymbolId Intern(std::string_view text);

  /// The id of `text`, or SymbolTable::kNoSymbol when it was never
  /// interned. Never grows the table and never allocates.
  SymbolId FindSymbol(std::string_view text) const {
    const SymbolId* id = symbol_ids_.Find(text);
    return id == nullptr ? SymbolTable::kNoSymbol : *id;
  }

  /// The text of `id`. Throws NotFoundError on an unknown id.
  const std::string& SymbolText(SymbolId id) const;

  size_t SymbolCount() const noexcept { return symbols_.size(); }

  /// Sets whether interning a new name on the calling thread (a wave
  /// executor) fails loudly instead of racing the table's concurrent
  /// readers; returns the previous setting, for the caller to restore.
  static bool DenyInterning(bool deny) noexcept;

  // --- Properties ---------------------------------------------------------

  /// Sets property `name` of `id`, interning the name on first use.
  /// Returns false, bumping no revision and marking nothing dirty, when
  /// the property already holds `value`.
  bool SetProperty(OidId id, std::string_view name, std::string_view value);
  /// The same for an interned name; never interns, so wave workers
  /// write through it.
  bool SetProperty(OidId id, SymbolId name, std::string_view value);
  /// Returns nullptr when the property is absent. Never interns: a name
  /// the database has never seen is absent.
  const std::string* GetProperty(OidId id, std::string_view name) const;
  bool RemoveProperty(OidId id, std::string_view name);

  /// `object`'s property `name`, or nullptr (never interns).
  const std::string* FindProperty(const MetaObject& object,
                                  std::string_view name) const {
    const SymbolId symbol = FindSymbol(name);
    return symbol == SymbolTable::kNoSymbol ? nullptr
                                            : object.FindProperty(symbol);
  }
  const std::string& PropertyOr(const MetaObject& object,
                                std::string_view name,
                                const std::string& fallback) const {
    const std::string* value = FindProperty(object, name);
    return value == nullptr ? fallback : *value;
  }

  /// Sets `name` to `value` in `object`'s property list, keeping the
  /// list sorted by name text. Returns false when nothing changed.
  /// Persistence assembles objects with it before RestoreObjectSlot /
  /// ApplyObjectSlot; `name` must be a symbol of this database.
  bool PutProperty(MetaObject& object, SymbolId name,
                   std::string_view value) const;

  // --- Links ---------------------------------------------------------------

  /// Creates a link `from -> to`. Both endpoints must be live objects of
  /// this database. Use links additionally require both endpoints to
  /// share a view type (paper §3.2: "the parent and child views of the
  /// use link are of the same view type").
  LinkId CreateLink(LinkKind kind, OidId from, OidId to,
                    std::vector<std::string> propagates, std::string type,
                    CarryPolicy carry);

  void DeleteLink(LinkId id);

  const Link& GetLink(LinkId id) const;
  Link& GetLinkMutable(LinkId id);

  /// Re-points an endpoint of a live link (the version-shift of paper
  /// Fig. 3). `endpoint_from == true` moves the source, else the target.
  void MoveLinkEndpoint(LinkId id, bool endpoint_from, OidId new_endpoint);

  /// Replaces a live link's PROPAGATE list, notifying observers. The
  /// engine's RetemplateLinks goes through here so propagation indexes
  /// track blueprint changes.
  void SetLinkPropagates(LinkId id, std::vector<std::string> propagates);

  // --- Link observers ------------------------------------------------------
  // Observers are not owned; register/unregister is the caller's job
  // (the run-time engine does both in its constructor/destructor).

  void AddLinkObserver(LinkObserver* observer);
  void RemoveLinkObserver(LinkObserver* observer);

  /// Live links whose source / target is `id`.
  const std::vector<LinkId>& OutLinks(OidId id) const;
  const std::vector<LinkId>& InLinks(OidId id) const;

  // --- Configurations ------------------------------------------------------

  /// Stores a configuration under its name; replaces any previous
  /// configuration of the same name.
  ConfigId SaveConfiguration(Configuration config);

  /// Looks a configuration up by name, or nullopt.
  std::optional<ConfigId> FindConfiguration(std::string_view name) const;

  const Configuration& GetConfiguration(ConfigId id) const;

  /// Names of all stored configurations, sorted.
  std::vector<std::string> ConfigurationNames() const;

  // --- Enumeration -----------------------------------------------------------

  /// Calls `fn` for every live object.
  void ForEachObject(const std::function<void(OidId, const MetaObject&)>& fn)
      const;

  /// Calls `fn` for every live link.
  void ForEachLink(const std::function<void(LinkId, const Link&)>& fn) const;

  DatabaseStats Stats() const;

  size_t ObjectSlotCount() const noexcept { return objects_.size(); }
  size_t LinkSlotCount() const noexcept { return links_.size(); }
  size_t ConfigurationSlotCount() const noexcept {
    return configurations_.size();
  }

  // --- Snapshot reads -----------------------------------------------------
  // The engine-wide versioned read API (metadb/snapshot.hpp): readers
  // pin published immutable versions and never lock against committing
  // waves. Publish is writer-side and quiescent-only; everything else
  // is safe from any thread.

  /// Freezes the current state under the next epoch and publishes it.
  /// No-op (returns the existing head) when the dirty tracker marked
  /// nothing since the last publish. The frozen version shares every
  /// chunk the dirty tracker did not mark since the previous publish
  /// with that version, and inside a copied object chunk every
  /// unmarked object's property block, so the cost follows what
  /// changed, not the database size or the objects' width. Call only
  /// while the engine is drain-quiescent.
  Snapshot PublishSnapshot() { return snapshots_->Publish(*this); }

  /// The newest published snapshot — one atomic load, lock-free — or an
  /// unpinned live view when nothing was published yet.
  Snapshot Latest() const { return snapshots_->Latest(*this); }

  /// The newest published snapshot with epoch <= `epoch`. Throws
  /// NotFoundError below the purge floor or before the first publish.
  Snapshot AtEpoch(uint64_t epoch) const { return snapshots_->AtEpoch(epoch); }

  /// Epoch of the newest published snapshot (0 before the first).
  uint64_t snapshot_epoch() const noexcept {
    return snapshots_->head_epoch();
  }

  /// Epoch at/below which published versions were merged out (0 until
  /// the retention cap first trims). Atomic; any thread.
  uint64_t snapshot_purge_floor() const noexcept {
    return snapshots_->purge_floor();
  }

  /// Published versions retained for AtEpoch before merge-out.
  void SetSnapshotRetention(size_t retention) {
    snapshots_->SetRetention(retention);
  }

  /// Pieces (chunks, or partitions for the index tables) of `table`.
  size_t ChunkCount(DirtyTable table) const noexcept;

  /// Identity of piece `index` of `table` (nullptr when absent). Two
  /// versions share a piece exactly when the addresses are equal — the
  /// publish tests check chunk sharing through this.
  const void* ChunkAddress(DirtyTable table, size_t index) const noexcept;

  // --- Persistence support ---------------------------------------------
  // Raw slot appends used by LoadDatabaseText to reconstruct a database
  // with handle-identical layout (tombstones included). They validate
  // version ordering and endpoint ranges but intentionally bypass the
  // creation-time sequencing checks; do not use them outside the
  // persistence layer.

  /// Appends an object slot verbatim and rebuilds the indexes for it.
  OidId RestoreObjectSlot(MetaObject object);

  /// Appends a link slot verbatim; live links are wired into adjacency.
  LinkId RestoreLinkSlot(Link link);

  /// Appends a configuration slot verbatim.
  ConfigId RestoreConfigurationSlot(Configuration config);

  // --- Delta-checkpoint support ----------------------------------------
  // Slot-addressed writes used by ApplyDatabaseDeltaString to replay a
  // base→delta checkpoint chain, plus the dirty tracking that decides
  // what a delta contains. Apply* deliberately skips adjacency
  // maintenance — call RebuildLinkAdjacency() once after the whole
  // chain is applied.

  /// Overwrites object `slot` (same Oid, new alive/properties state) or
  /// appends it when `slot` == ObjectSlotCount(). Keeps by_oid_ and the
  /// version chains consistent. Throws IntegrityError past the end.
  void ApplyObjectSlot(size_t slot, MetaObject object);

  /// Overwrites link `slot` or appends it when `slot` == LinkSlotCount().
  /// Adjacency is NOT updated; RebuildLinkAdjacency() must follow.
  void ApplyLinkSlot(size_t slot, Link link);

  /// Overwrites configuration `slot` or appends it at the end, keeping
  /// the by-name index consistent.
  void ApplyConfigurationSlot(size_t slot, Configuration config);

  /// Clears and rebuilds out/in link adjacency in link-slot order — the
  /// same order a full-checkpoint load produces, so recovery through a
  /// delta chain is indistinguishable from a full load.
  void RebuildLinkAdjacency();

  /// Collects every slot mutated at or after generation `since` (a
  /// committed checkpoint cut's `next_since`; 0 collects every slot)
  /// and moves the generation on, so later mutations land past the
  /// returned set's `next_since`. Quiescent callers only (the
  /// PublishSnapshot contract).
  DirtySet CutDirtySet(uint64_t since) { return dirty_->Cut(since); }

 private:
  friend class SnapshotStore;

  /// Both link lists of one object slot.
  struct Adjacency {
    std::vector<LinkId> out;  ///< Live links whose source is the slot.
    std::vector<LinkId> in;   ///< Live links whose target is the slot.
  };

  using OidIndex = PartitionedIndex<Oid, OidId, OidHash>;
  // ChainKey(block symbol, view symbol) -> version chain, oldest first.
  using ChainIndex =
      PartitionedIndex<uint64_t, std::vector<OidId>, std::hash<uint64_t>>;
  using SymbolIndex =
      PartitionedIndex<std::string, SymbolId, StringHash, std::equal_to<>>;
  using ConfigIndex =
      PartitionedIndex<std::string, ConfigId, std::hash<std::string>>;

  /// Builds the frozen version the snapshot store publishes: `previous`
  /// (the last published version, or null) with the `dirty` chunks
  /// (the tracker's publish cut) replaced by copies of this database's.
  /// A copied object chunk shares the property blocks of the objects
  /// the cut did not mark with `previous`. Writer-side, quiescent only.
  std::shared_ptr<const MetaDatabase> FreezeVersion(
      const MetaDatabase* previous, const DirtyChunks& dirty) const;

  /// The publish consumer's cut: every chunk marked since the previous
  /// publish. Writer-side, quiescent only.
  DirtyChunks CutDirtyChunks() { return dirty_->CutChunks(); }

  void CheckObjectHandle(OidId id) const;
  void CheckLinkHandle(LinkId id) const;
  /// Interns a link's PROPAGATE names: every link-structural path calls
  /// it, so propagation indexes only ever look names up.
  void InternAll(const std::vector<std::string>& names);
  void DetachLinkFromAdjacency(LinkId id);

  // Dirty marks: every mutation makes one, which is also how a publish
  // recognizes that nothing changed. Thread contract: concurrent
  // relaxed marks from disjoint-shard workers; array growth only on
  // single-writer structural paths.
  void MarkObjectDirty(size_t slot) noexcept { dirty_->MarkObject(slot); }
  void MarkLinkDirty(size_t slot) noexcept { dirty_->MarkLink(slot); }
  void MarkConfigDirty(size_t slot) noexcept { dirty_->MarkConfig(slot); }
  void MarkAdjacencyDirty(OidId id) noexcept {
    dirty_->MarkChunk(DirtyTable::kAdjacency, id.value() >> kChunkShift);
  }

  // Index mutations (single-writer structural paths); each marks the
  // partition it touches.
  void IndexOid(const Oid& oid, OidId id);
  void UnindexOid(const Oid& oid);
  std::vector<OidId>& MutableChain(const MetaObject& object);
  /// The chain of (block, view), or nullptr (never interns).
  const std::vector<OidId>* FindChain(std::string_view block,
                                      std::string_view view) const;
  void IndexConfig(const std::string& name, ConfigId id);
  void UnindexConfig(const std::string& name);

  ChunkedVector<MetaObject> objects_;
  ChunkedVector<Link> links_;
  ChunkedVector<Configuration> configurations_;
  ChunkedVector<Adjacency> adjacency_;  ///< Parallel to objects_.
  std::vector<LinkObserver*> link_observers_;

  OidIndex by_oid_;  ///< Live objects only.
  ChainIndex chains_;
  ConfigIndex config_by_name_;
  ChunkedVector<std::string> symbols_;  ///< Symbol id -> text.
  SymbolIndex symbol_ids_;              ///< Text -> symbol id.

  /// The epoch-versioned snapshot machinery. Behind a unique_ptr so the
  /// database stays movable (the store holds atomics and a mutex).
  std::unique_ptr<SnapshotStore> snapshots_;

  /// What mutated since each consumer (checkpoint cut, snapshot
  /// publish) last looked. Always on; behind a unique_ptr for
  /// movability like the store.
  std::unique_ptr<DirtyTracker> dirty_;
};

}  // namespace damocles::metadb
