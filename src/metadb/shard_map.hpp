// The shard map: block-subtree partitioning of the meta-database.
//
// The sharded wave engine runs one run-time engine per shard, so every
// OID needs a stable shard assignment that keeps a propagation wave's
// working set on one shard. The paper's change-propagation model is
// naturally partitionable along the design hierarchy: use links form
// block subtrees (paper §2: "use links which represent hierarchy"), and
// the derive links of a design flow chain the views of one block — so
// grouping OIDs by the *root block of their use-link subtree* confines
// the overwhelming majority of waves to a single shard. Only derive
// links between blocks of different subtrees (library dependencies,
// cross-subsystem equivalences) can carry a wave across shards; the
// sharded engine detects those receivers and hands them off as seeded
// sub-waves.
//
// Mechanics: block names are interned to dense ids and grouped with a
// union-find forest. Membership is maintained incrementally through the
// MetaDatabase observer protocol —
//  * OnObjectCreated caches the object's block id per OID slot (new
//    blocks start as their own subtree root);
//  * OnLinkAdded unions the endpoint blocks of use links (derive links
//    never affect grouping);
//  * use-link removal / endpoint moves can split a subtree, which a
//    union-find cannot track incrementally: the map goes dirty and the
//    next Rebalance() pass recomputes the forest from the live links
//    (the "subtree re-parenting" pass).
// Shards are assigned per root: Rebalance() deals roots out round-robin
// in block-creation order (deterministic and balanced). Roots that
// appear between rebalances serve a deterministic hash of the root id
// until the next rebalance (balanced in expectation, and immune to the
// aliasing a creation-order cursor would suffer when subtree sizes
// divide the shard count); merged subtrees always follow the surviving
// root. After bulk-building a design, call Rebalance() once for the
// exact round-robin deal.
//
// An assignment decides only which lane runs a wave and which shard's
// claims arbitrate a delivery; the receivers themselves come from the
// one propagation index, which does not depend on it. So a union or a
// re-deal changes nothing but the map.
//
// Thread-safety contract: all mutations (the observer callbacks and
// Rebalance) happen while the sharded engine is quiescent — structural
// meta-data changes are not allowed mid-drain. The read path (ShardOf /
// RootBlockOf) never writes, so intake threads and shard workers may
// query the map concurrently with each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/symbol.hpp"
#include "metadb/meta_database.hpp"

namespace damocles::metadb {

/// Counters describing shard-map maintenance since construction.
struct ShardMapStats {
  size_t incremental_unions = 0;  ///< Use-link merges applied in place.
  size_t rebalances = 0;          ///< Full recompute passes.
  size_t structural_splits = 0;   ///< Use-link removals/moves (dirtying).
};

/// Assigns every OID to a shard by the root block of its use-link
/// subtree. Registers itself as a MetaDatabase observer; unregisters on
/// destruction. The database must outlive the map.
class ShardMap final : public LinkObserver {
 public:
  ShardMap(MetaDatabase& db, uint32_t num_shards);
  ~ShardMap() override;

  ShardMap(const ShardMap&) = delete;
  ShardMap& operator=(const ShardMap&) = delete;

  uint32_t num_shards() const noexcept { return num_shards_; }

  /// The shard owning `id`. Total: unknown slots fall back to a hash of
  /// the slot so the router always has an answer. Read-only (safe to
  /// call concurrently with other readers).
  uint32_t ShardOf(OidId id) const noexcept;

  /// The root block of `id`'s use-link subtree (the block itself when
  /// unlinked). Read-only.
  const std::string& RootBlockOf(OidId id) const;

  /// True when a use-link removal or endpoint move may have split a
  /// subtree since the last rebalance; assignments are still total and
  /// stable, but subtree roots may be stale until Rebalance().
  bool dirty() const noexcept { return dirty_; }

  /// Recomputes the union-find forest from the live use links and deals
  /// every root a shard round-robin in block-creation order. Call only
  /// while the sharded engine is quiescent.
  void Rebalance();

  const ShardMapStats& stats() const noexcept { return stats_; }

  // --- LinkObserver ------------------------------------------------------
  void OnObjectCreated(OidId id, const MetaObject& object) override;
  void OnLinkAdded(LinkId id, const Link& link) override;
  void OnLinkRemoved(LinkId id, const Link& link) override;
  void OnLinkEndpointMoved(LinkId id, bool endpoint_from, OidId old_endpoint,
                           const Link& link) override;
  void OnLinkPropagatesChanged(LinkId id,
                               const std::vector<std::string>& old_propagates,
                               const Link& link) override;

 private:
  static constexpr uint32_t kUnassigned = ~uint32_t{0};

  /// splitmix64-style mix for the total fallback (mirrors the
  /// propagation index's key hash rationale: spread dense ids).
  static uint32_t Mix(uint32_t value) noexcept {
    uint64_t key = value + 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return static_cast<uint32_t>(key ^ (key >> 31));
  }

  /// Root of a block id: plain parent walk, no path compression — the
  /// read path must not write (concurrent readers).
  uint32_t FindRoot(uint32_t block) const noexcept;

  /// Compressing find, used only from (quiescent) mutation paths.
  uint32_t FindCompress(uint32_t block);

  /// Unions two block groups; the smaller (earlier-created) block id
  /// survives as root and keeps its shard assignment, which the losing
  /// group's OIDs follow.
  void Union(uint32_t a, uint32_t b);

  /// Interns `block` and grows the forest; new blocks are their own
  /// root, unassigned until the next Rebalance (hash fallback applies).
  uint32_t InternBlock(std::string_view block);

  MetaDatabase& db_;
  uint32_t num_shards_;

  SymbolTable blocks_;                 ///< Block name -> dense block id.
  std::vector<uint32_t> parent_;       ///< Union-find forest over block ids.
  std::vector<uint32_t> shard_of_root_;  ///< Shard per root block id.
  std::vector<uint32_t> block_of_slot_;  ///< OID slot -> block id.
  uint32_t next_shard_ = 0;            ///< Round-robin cursor.
  bool dirty_ = false;
  ShardMapStats stats_;
};

}  // namespace damocles::metadb
