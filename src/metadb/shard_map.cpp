#include "metadb/shard_map.hpp"

#include <algorithm>
#include <numeric>

namespace damocles::metadb {

ShardMap::ShardMap(MetaDatabase& db, uint32_t num_shards)
    : db_(db), num_shards_(num_shards == 0 ? 1 : num_shards) {
  // Seed the forest from the existing meta-data, then let the observer
  // protocol keep it current.
  block_of_slot_.assign(db_.ObjectSlotCount(), kUnassigned);
  db_.ForEachObject([this](OidId id, const MetaObject& object) {
    block_of_slot_[id.value()] = InternBlock(db_.BlockOf(object));
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
  }
  return sym;
}

void ShardMap::Union(uint32_t a, uint32_t b) {
  const uint32_t ra = FindCompress(a);
  const uint32_t rb = FindCompress(b);
  if (ra == rb) return;
  // The earlier-created block survives as root (the hierarchy root is
  // created before its components) and keeps its shard.
  parent_[std::max(ra, rb)] = std::min(ra, rb);
  ++stats_.incremental_unions;
}

void ShardMap::Rebalance() {
  std::iota(parent_.begin(), parent_.end(), 0u);
  db_.ForEachLink([this](LinkId, const Link& link) {
    if (link.kind != LinkKind::kUse) return;
    const uint32_t a = FindCompress(block_of_slot_[link.from.value()]);
    const uint32_t b = FindCompress(block_of_slot_[link.to.value()]);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
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
}

// --- Observer callbacks ------------------------------------------------------

void ShardMap::OnObjectCreated(OidId id, const MetaObject& object) {
  if (id.value() >= block_of_slot_.size()) {
    block_of_slot_.resize(id.value() + 1, kUnassigned);
  }
  block_of_slot_[id.value()] = InternBlock(db_.BlockOf(object));
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
