#include "metadb/shard_map.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace damocles::metadb {

ShardMap::ShardMap(MetaDatabase& db, uint32_t num_shards)
    : db_(db), num_shards_(num_shards == 0 ? 1 : num_shards) {
  // Seed the forest from the existing meta-data, then let the observer
  // protocol keep it current.
  block_of_slot_.assign(db_.ObjectSlotCount(), kUnassigned);
  db_.ForEachObject([this](OidId id, const MetaObject& object) {
    const uint32_t block = InternBlock(db_.BlockOf(object));
    block_of_slot_[id.value()] = block;
    slots_of_block_[block].push_back(id.value());
  });
  Rebalance();
  db_.AddLinkObserver(this);
}

ShardMap::~ShardMap() { db_.RemoveLinkObserver(this); }

// --- Read path (no writes: concurrent readers are safe) --------------------

uint32_t ShardMap::FindRoot(uint32_t block) const noexcept {
  while (parent_[block] != block) block = parent_[block];
  return block;
}

uint32_t ShardMap::ShardOf(OidId id) const noexcept {
  const uint32_t slot = id.value();
  if (slot >= block_of_slot_.size() || block_of_slot_[slot] == kUnassigned) {
    return Mix(slot) % num_shards_;  // Untracked slot (e.g. restored dead).
  }
  const uint32_t root = FindRoot(block_of_slot_[slot]);
  const uint32_t shard = shard_of_root_[root];
  return shard != kUnassigned ? shard : Mix(root) % num_shards_;
}

const std::string& ShardMap::RootBlockOf(OidId id) const {
  const uint32_t slot = id.value();
  if (slot >= block_of_slot_.size() || block_of_slot_[slot] == kUnassigned) {
    return db_.BlockOf(db_.GetObject(id));  // Untracked: its own root.
  }
  return blocks_.Text(FindRoot(block_of_slot_[slot]));
}

// --- Mutation path (quiescent engine only) ----------------------------------

uint32_t ShardMap::FindCompress(uint32_t block) {
  const uint32_t root = FindRoot(block);
  while (parent_[block] != root) {
    const uint32_t next = parent_[block];
    parent_[block] = root;
    block = next;
  }
  return root;
}

uint32_t ShardMap::InternBlock(std::string_view block) {
  const uint32_t sym = blocks_.Intern(block);
  if (sym >= parent_.size()) {
    const size_t old = parent_.size();
    parent_.resize(sym + 1);
    std::iota(parent_.begin() + static_cast<ptrdiff_t>(old), parent_.end(),
              static_cast<uint32_t>(old));
    // A fresh block starts as its own subtree root, unassigned: it
    // serves the deterministic hash fallback until the next Rebalance
    // deals roots round-robin. (Assigning a cursor value here instead
    // would silently alias every root onto one shard whenever the
    // per-subtree block count divides num_shards.)
    shard_of_root_.resize(sym + 1, kUnassigned);
    group_next_.resize(sym + 1);
    std::iota(group_next_.begin() + static_cast<ptrdiff_t>(old),
              group_next_.end(), static_cast<uint32_t>(old));
    slots_of_block_.resize(sym + 1);
  }
  return sym;
}

void ShardMap::ForEachGroupMember(OidId id,
                                  const std::function<void(OidId)>& fn) const {
  const uint32_t slot = id.value();
  if (slot >= block_of_slot_.size() || block_of_slot_[slot] == kUnassigned) {
    fn(id);  // Untracked slot: a group of one.
    return;
  }
  ForEachGroupBlock(block_of_slot_[slot], [&](uint32_t block) {
    for (const uint32_t member : slots_of_block_[block]) fn(OidId(member));
  });
}

void ShardMap::Union(uint32_t a, uint32_t b) {
  uint32_t ra = FindCompress(a);
  uint32_t rb = FindCompress(b);
  if (ra == rb) return;
  // The earlier-created block survives as root (the hierarchy root is
  // created before its components) and keeps its shard.
  if (rb < ra) std::swap(ra, rb);
  // The losing group follows the surviving root's shard. Collect the
  // moved OIDs first (the circles merge below), apply the union, then
  // notify — listeners observe the post-change assignment, matching
  // Rebalance's diff order. Often nothing moves: both roots may resolve
  // to the same shard.
  const uint32_t new_shard = shard_of_root_[ra] != kUnassigned
                                 ? shard_of_root_[ra]
                                 : Mix(ra) % num_shards_;
  const uint32_t old_shard = shard_of_root_[rb] != kUnassigned
                                 ? shard_of_root_[rb]
                                 : Mix(rb) % num_shards_;
  std::vector<uint32_t> moved;
  if (listener_ != nullptr && new_shard != old_shard) {
    ForEachGroupBlock(rb, [&](uint32_t block) {
      for (const uint32_t slot : slots_of_block_[block]) {
        // Dead versions keep their slot entry (there is no deletion
        // hook) but have no index buckets to migrate — skip them.
        if (db_.IsLiveObject(OidId(slot))) moved.push_back(slot);
      }
    });
  }
  parent_[rb] = ra;
  SpliceGroups(ra, rb);
  ++stats_.incremental_unions;
  for (const uint32_t slot : moved) {
    ++stats_.reassignments;
    listener_->OnShardChanged(OidId(slot), old_shard, new_shard);
  }
}

void ShardMap::Rebalance() {
  // With a listener installed, snapshot effective assignments so the
  // re-deal can be reported as a per-OID diff (bucket migration beats
  // rebuilding N indexes).
  std::vector<uint32_t> before;
  if (listener_ != nullptr) {
    before.resize(block_of_slot_.size());
    for (uint32_t slot = 0; slot < before.size(); ++slot) {
      before[slot] = ShardOf(OidId(slot));
    }
  }

  std::iota(parent_.begin(), parent_.end(), 0u);
  std::iota(group_next_.begin(), group_next_.end(), 0u);
  db_.ForEachLink([this](LinkId, const Link& link) {
    if (link.kind != LinkKind::kUse) return;
    const uint32_t a = FindCompress(block_of_slot_[link.from.value()]);
    const uint32_t b = FindCompress(block_of_slot_[link.to.value()]);
    if (a == b) return;
    parent_[std::max(a, b)] = std::min(a, b);
    SpliceGroups(a, b);
  });
  // Deal roots out round-robin in block-creation order: deterministic
  // and balanced. Id 0 is the interner's reserved empty string.
  shard_of_root_.assign(parent_.size(), kUnassigned);
  next_shard_ = 0;
  for (uint32_t block = 1; block < parent_.size(); ++block) {
    if (FindCompress(block) == block) {
      shard_of_root_[block] = next_shard_++ % num_shards_;
    }
  }
  dirty_ = false;
  ++stats_.rebalances;

  if (listener_ != nullptr) {
    for (uint32_t slot = 0; slot < before.size(); ++slot) {
      if (block_of_slot_[slot] == kUnassigned) continue;
      if (!db_.IsLiveObject(OidId(slot))) continue;  // Nothing to migrate.
      const uint32_t now = ShardOf(OidId(slot));
      if (now != before[slot]) {
        ++stats_.reassignments;
        listener_->OnShardChanged(OidId(slot), before[slot], now);
      }
    }
  }
}

// --- Observer callbacks ------------------------------------------------------

void ShardMap::OnObjectCreated(OidId id, const MetaObject& object) {
  if (id.value() >= block_of_slot_.size()) {
    block_of_slot_.resize(id.value() + 1, kUnassigned);
  }
  const uint32_t block = InternBlock(db_.BlockOf(object));
  block_of_slot_[id.value()] = block;
  slots_of_block_[block].push_back(id.value());
}

void ShardMap::OnLinkAdded(LinkId, const Link& link) {
  if (link.kind != LinkKind::kUse) return;  // Derive links never regroup.
  Union(block_of_slot_[link.from.value()], block_of_slot_[link.to.value()]);
}

void ShardMap::OnLinkRemoved(LinkId, const Link& link) {
  if (link.kind != LinkKind::kUse) return;
  // A union-find cannot split; the next rebalance recomputes the forest.
  dirty_ = true;
  ++stats_.structural_splits;
}

void ShardMap::OnLinkEndpointMoved(LinkId, bool endpoint_from,
                                   OidId old_endpoint, const Link& link) {
  if (link.kind != LinkKind::kUse) return;
  const OidId moved = endpoint_from ? link.from : link.to;
  const uint32_t old_block = block_of_slot_[old_endpoint.value()];
  const uint32_t new_block = block_of_slot_[moved.value()];
  if (old_block == new_block) return;  // Version carry within one block.
  Union(block_of_slot_[link.from.value()], block_of_slot_[link.to.value()]);
  dirty_ = true;  // The old side may have split off.
  ++stats_.structural_splits;
}

void ShardMap::OnLinkPropagatesChanged(LinkId, const std::vector<std::string>&,
                                       const Link&) {
  // PROPAGATE rewrites do not change connectivity.
}

}  // namespace damocles::metadb
