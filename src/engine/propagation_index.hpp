// The propagation index: the run-time engine's fast path for wave
// expansion.
//
// Phase 5 of event processing asks, for every OID a wave reaches, "which
// neighbours receive this event?" — a question the naive implementation
// answers by scanning the OID's full adjacency list and, per link,
// scanning the PROPAGATE string list. On hub-heavy meta-data (a netlist
// deriving dozens of views, few of which propagate any given event) that
// is O(degree × |PROPAGATE|) string work per delivery.
//
// This index precomputes the answer per (source OID, direction, event):
// each bucket holds exactly the links that qualify, in the same order an
// adjacency scan would visit them, so the indexed engine delivers in the
// identical order as the scanning engine. It is built in one pass at
// blueprint-install time and maintained incrementally through
// MetaDatabase link-observer notifications (add / remove / endpoint move
// / PROPAGATE change).
//
// Buckets are keyed by one packed 64-bit integer combining the source
// OID, the direction and the event's SymbolId in the meta-database's
// symbol table, so a receiver lookup on the hot path is a single
// integer-hash probe with zero string hashing. The index never interns:
// every PROPAGATE name is interned by the structural path that creates
// the link or rewrites its PROPAGATE list, so building and maintaining
// the index only look names up, and work on a const database. Callers
// holding a name resolve it with MetaDatabase::FindSymbol first.
//
// One index serves any number of readers: a sharded engine's lane
// engines all expand through one instance, which only structural
// (quiescent) calls modify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/symbol.hpp"
#include "events/event.hpp"
#include "metadb/ids.hpp"
#include "metadb/snapshot.hpp"
#include "metadb/link.hpp"

namespace damocles::metadb {
class MetaDatabase;
}  // namespace damocles::metadb

namespace damocles::engine {

/// Per-(source, direction, event) receiver index over the link graph.
class PropagationIndex {
 public:
  /// An empty index over `db`'s link graph and symbol table; `db` must
  /// outlive the index.
  explicit PropagationIndex(const metadb::MetaDatabase& db) : db_(db) {}

  /// One qualifying link, as seen from the indexed source OID.
  struct Entry {
    metadb::LinkId link;
    metadb::OidId neighbor;

    friend bool operator==(const Entry& a, const Entry& b) noexcept {
      return a.link == b.link && a.neighbor == b.neighbor;
    }
  };
  using Bucket = std::vector<Entry>;

  /// Drops every bucket and re-indexes every live link of the database,
  /// walking each object's adjacency lists so bucket order matches scan
  /// order even after endpoint moves reordered adjacency.
  /// O(links × |PROPAGATE|); called at blueprint install.
  void Rebuild();

  void Clear();

  /// The receivers of the event with symbol `event` leaving `source` in
  /// `direction`, or nullptr when no link qualifies: one integer-hash
  /// lookup. The bucket order matches the order a full adjacency scan
  /// would produce.
  const Bucket* Receivers(metadb::OidId source, events::Direction direction,
                          SymbolId event) const;

  // --- Incremental maintenance (link-observer notifications) -----------

  void AddLink(metadb::LinkId id, const metadb::Link& link);

  /// `link` must still carry the endpoints/PROPAGATE list being removed.
  void RemoveLink(metadb::LinkId id, const metadb::Link& link);

  /// `link` is the post-move state; `old_endpoint` the prior value of
  /// the endpoint selected by `endpoint_from`. Entries on the unmoved
  /// side are patched in place (their adjacency position is unchanged);
  /// entries on the moved side are re-appended, mirroring the
  /// push_back the adjacency lists perform.
  void MoveLinkEndpoint(metadb::LinkId id, bool endpoint_from,
                        metadb::OidId old_endpoint, const metadb::Link& link);

  /// `link` carries the new PROPAGATE list, `old_propagates` the prior.
  /// The affected buckets are rebuilt from the adjacency lists so their
  /// order keeps matching a scan (a remove-and-append would leave the
  /// rewritten link out of adjacency position).
  void SetLinkPropagates(const std::vector<std::string>& old_propagates,
                         const metadb::Link& link);

  // --- Introspection ----------------------------------------------------

  /// Live (link, event, direction) entries currently indexed.
  size_t entry_count() const noexcept { return entries_; }

  /// Oracle check: compares against a freshly rebuilt index of `db` —
  /// this index's database or a snapshot of it, so symbols agree.
  /// Buckets are matched by key and their contents compared as sets
  /// (incremental maintenance may order a bucket differently from slot
  /// order after endpoint moves). On mismatch returns false and, when
  /// `diff` is non-null, describes the first divergence.
  bool ConsistentWith(const metadb::MetaDatabase& db,
                      std::string* diff = nullptr) const;

  /// Snapshot form: checks consistency against a pinned published
  /// version — handles are identical across publish, so the same oracle
  /// applies verbatim.
  bool ConsistentWith(const metadb::Snapshot& snapshot,
                      std::string* diff = nullptr) const {
    return ConsistentWith(snapshot.db(), diff);
  }

 private:
  /// One packed key: event SymbolId in bits 0..31, direction in bit 32,
  /// source OID in bits 33..63. Object slots are dense indices that stay
  /// far below 2^31, so the OID always fits.
  static constexpr uint64_t PackKey(metadb::OidId source,
                                    events::Direction direction,
                                    SymbolId event) noexcept {
    return (static_cast<uint64_t>(source.value()) << 33) |
           (static_cast<uint64_t>(direction == events::Direction::kDown)
            << 32) |
           static_cast<uint64_t>(event);
  }

  /// splitmix64 finalizer: packed keys are dense structured integers,
  /// and libstdc++'s std::hash<uint64_t> is the identity — mix so
  /// nearby (oid, event) pairs spread across buckets.
  struct KeyHash {
    size_t operator()(uint64_t key) const noexcept {
      key += 0x9e3779b97f4a7c15ull;
      key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
      key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
      return static_cast<size_t>(key ^ (key >> 31));
    }
  };

  using BucketMap = std::unordered_map<uint64_t, Bucket, KeyHash>;

  /// Ordered removal of every entry of `link` from one bucket; keeps
  /// entry accounting and drops the bucket when it empties.
  void EraseLinkEntries(metadb::OidId source, events::Direction direction,
                        SymbolId event, metadb::LinkId link);

  /// Drops entries of `link` keyed under `source` in `direction` for
  /// every event of `events`.
  void EraseEntriesAt(metadb::OidId source, events::Direction direction,
                      const std::vector<std::string>& events,
                      metadb::LinkId link);

  /// Appends entries for `link` keyed under `source` in `direction`,
  /// one per PROPAGATE occurrence (mirrors the adjacency push_back).
  void AppendEntriesAt(metadb::OidId source, events::Direction direction,
                       const std::vector<std::string>& events,
                       metadb::LinkId link, metadb::OidId neighbor);

  /// Recomputes one bucket from `source`'s adjacency list.
  void RebuildBucket(metadb::OidId source, events::Direction direction,
                     const std::string& event);

  const metadb::MetaDatabase& db_;  ///< Link graph and symbol table.
  BucketMap buckets_;
  size_t entries_ = 0;
};

}  // namespace damocles::engine
