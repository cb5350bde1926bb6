// Chunked storage for the meta-database: the layout that lets a
// published snapshot share everything a write did not touch.
//
// Every MetaDatabase table lives in fixed-size, refcounted pieces:
//  * ChunkedVector<T> — a dense slot array split into chunks of
//    kChunkSize consecutive slots (objects, links, configurations,
//    adjacency, symbol texts), owned in pages of kChunkSize chunks;
//  * PartitionedIndex<K, V, Hash> — a hash map split into
//    kPartitions independent maps by key hash (the lookup indexes).
//
// Ownership rule: the LIVE database owns its pieces alone and mutates
// them in place; no live piece is ever handed to a frozen version. A
// publish builds the frozen version with Freeze(): it starts from the
// previous frozen version's piece table (plain pointer copies, plus one
// reference per page of chunks) and replaces
// only the pieces the DirtyTracker marked since the previous publish
// with fresh copies of the live pieces. Frozen pieces are therefore
// shared between published versions only, never with the live
// database, so the write path needs no refcount check and no clone —
// which matters because shard workers of disjoint shards write
// properties concurrently.
//
// The object table goes one level deeper: MetaDatabase::FreezeVersion
// hands Freeze() a chunk builder that rebuilds a dirty object chunk
// slot by slot. Every object's plain fields are copied, but an object
// the tracker did not mark since the previous publish shares that
// version's property block (metadb/meta_object.hpp's PropertyList), and
// only the marked ones copy the live block. The same rule holds per
// block: frozen versions share blocks with each other, never with the
// live database.
//
// Element references stay valid across appends (chunks never move),
// unlike a std::vector that reallocates.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "metadb/dirty_tracker.hpp"

namespace damocles::metadb {

inline constexpr size_t kChunkShift = DirtyTracker::kChunkShift;
inline constexpr size_t kChunkSize = size_t{1} << kChunkShift;

/// A dense slot array stored as shared fixed-size chunks.
///
/// Reads go through a flat table of raw chunk pointers. Ownership sits
/// beside it in pages of kChunkSize chunk references, and versions
/// share whole pages: a freeze copies the flat table (plain pointers)
/// and one reference per page, and clones only the pages holding a
/// replaced chunk. Per-chunk references would make every publish touch
/// every chunk's refcount, which grows with the database.
template <typename T>
class ChunkedVector {
 public:
  using Chunk = std::array<T, kChunkSize>;

  size_t size() const noexcept { return size_; }
  size_t chunk_count() const noexcept { return chunks_.size(); }

  T& operator[](size_t index) noexcept {
    return (*chunks_[index >> kChunkShift])[index & (kChunkSize - 1)];
  }
  const T& operator[](size_t index) const noexcept {
    return (*chunks_[index >> kChunkShift])[index & (kChunkSize - 1)];
  }

  /// Appends `value`, opening a new chunk at every kChunkSize boundary.
  void push_back(T value) {
    if ((size_ & (kChunkSize - 1)) == 0) {
      Place(chunks_.size(), std::make_shared<Chunk>(), nullptr);
    }
    (*this)[size_] = std::move(value);
    ++size_;
  }

  /// Replaces the contents with `count` default elements in fresh
  /// chunks.
  void Reset(size_t count) {
    chunks_.clear();
    pages_.clear();
    const size_t chunks = (count + kChunkSize - 1) >> kChunkShift;
    chunks_.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      Place(c, std::make_shared<Chunk>(), nullptr);
    }
    size_ = count;
  }

  /// Calls fn(index, element) for every element in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk& chunk = *chunks_[c];
      const size_t base = c << kChunkShift;
      const size_t end = std::min(kChunkSize, size_ - base);
      for (size_t i = 0; i < end; ++i) fn(base + i, chunk[i]);
    }
  }

  /// Address of chunk `chunk` (nullptr past the end): two versions
  /// share a chunk exactly when the addresses are equal.
  const void* chunk_address(size_t chunk) const noexcept {
    return chunk < chunks_.size() ? chunks_[chunk] : nullptr;
  }

  /// A frozen copy of `live`: `previous`'s chunks (null: none) shared,
  /// except the `dirty` ones (ascending) and any chunk past `previous`'s
  /// end, which are fresh copies of `live`'s.
  static ChunkedVector Freeze(const ChunkedVector* previous,
                              const ChunkedVector& live,
                              const std::vector<uint32_t>& dirty) {
    return Freeze(previous, live, dirty,
                  [&live](size_t c, const Chunk*, size_t) {
                    return std::make_shared<Chunk>(*live.chunks_[c]);
                  });
  }

  /// Freeze() with the replaced chunks built by `build(c, before,
  /// before_used)`: `before` is `previous`'s chunk c (null past its
  /// end) and `before_used` the slots of it in use, so a builder can
  /// reuse what did not change inside a dirty chunk.
  template <typename Build>
  static ChunkedVector Freeze(const ChunkedVector* previous,
                              const ChunkedVector& live,
                              const std::vector<uint32_t>& dirty,
                              Build&& build) {
    ChunkedVector frozen;
    frozen.size_ = live.size_;
    const size_t count = live.chunks_.size();
    const size_t shared =
        previous == nullptr ? 0 : std::min(previous->chunks_.size(), count);
    frozen.chunks_.reserve(count);
    if (previous != nullptr) {
      const auto chunks = previous->chunks_.begin();
      frozen.chunks_.assign(chunks, chunks + static_cast<std::ptrdiff_t>(shared));
      const auto pages = previous->pages_.begin();
      const size_t page_count = (shared + kChunkSize - 1) >> kChunkShift;
      frozen.pages_.assign(pages, pages + static_cast<std::ptrdiff_t>(page_count));
    }
    for (const uint32_t c : dirty) {
      if (c >= shared) break;
      const size_t base = size_t{c} << kChunkShift;
      frozen.Place(c,
                   build(c, previous->chunks_[c],
                         std::min(kChunkSize, previous->size_ - base)),
                   previous);
    }
    for (size_t c = shared; c < count; ++c) {
      frozen.Place(c, build(c, nullptr, 0), previous);
    }
    return frozen;
  }

  /// Chunk `chunk` (which must exist).
  const Chunk& chunk(size_t chunk) const noexcept { return *chunks_[chunk]; }

 private:
  using Page = std::array<std::shared_ptr<Chunk>, kChunkSize>;

  /// Stores `chunk` as chunk `c` (at most one past the end). A page
  /// this version still shares with `previous` is cloned first:
  /// published pages never change.
  void Place(size_t c, std::shared_ptr<Chunk> chunk,
             const ChunkedVector* previous) {
    const size_t p = c >> kChunkShift;
    if (p == pages_.size()) {
      pages_.push_back(std::make_shared<Page>());
    } else if (previous != nullptr && p < previous->pages_.size() &&
               pages_[p] == previous->pages_[p]) {
      pages_[p] = std::make_shared<Page>(*pages_[p]);
    }
    if (c == chunks_.size()) {
      chunks_.push_back(chunk.get());
    } else {
      chunks_[c] = chunk.get();
    }
    (*pages_[p])[c & (kChunkSize - 1)] = std::move(chunk);
  }

  std::vector<Chunk*> chunks_;  ///< Owned through pages_.
  std::vector<std::shared_ptr<Page>> pages_;
  size_t size_ = 0;
};

/// Transparent string hash: string-keyed indexes look up a
/// std::string_view without building a std::string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// A hash map stored as kPartitions shared maps, split by key hash.
/// With a transparent Hash and Equal, Find and PartitionOf accept any
/// key type the two accept.
template <typename Key, typename Value, typename Hash,
          typename Equal = std::equal_to<Key>>
class PartitionedIndex {
 public:
  static constexpr size_t kPartitionShift = 6;
  static constexpr size_t kPartitions = size_t{1} << kPartitionShift;
  using Map = std::unordered_map<Key, Value, Hash, Equal>;

  /// The partition holding `key` (the top bits of a mixed hash, so the
  /// partition choice and the map's own bucket choice stay independent).
  template <typename K>
  static size_t PartitionOf(const K& key) noexcept {
    const uint64_t mixed =
        static_cast<uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(mixed >> (64 - kPartitionShift));
  }

  /// The value stored under `key`, or nullptr.
  template <typename K>
  const Value* Find(const K& key) const {
    const Map* map = partitions_[PartitionOf(key)].get();
    if (map == nullptr) return nullptr;
    const auto it = map->find(key);
    return it == map->end() ? nullptr : &it->second;
  }

  /// The partition map for mutation (created on first use). Callers
  /// mark `partition` dirty.
  Map& Mutable(size_t partition) {
    std::shared_ptr<Map>& map = partitions_[partition];
    if (map == nullptr) map = std::make_shared<Map>();
    return *map;
  }

  /// Calls fn(key, value) for every entry, partition by partition.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& map : partitions_) {
      if (map == nullptr) continue;
      for (const auto& [key, value] : *map) fn(key, value);
    }
  }

  size_t size() const noexcept {
    size_t total = 0;
    for (const auto& map : partitions_) {
      if (map != nullptr) total += map->size();
    }
    return total;
  }

  const void* partition_address(size_t partition) const noexcept {
    return partition < kPartitions ? partitions_[partition].get() : nullptr;
  }

  /// Freeze() with ChunkedVector's contract: `previous`'s partitions
  /// shared except the `dirty` ones, which are copied from `live`.
  static PartitionedIndex Freeze(const PartitionedIndex* previous,
                                 const PartitionedIndex& live,
                                 const std::vector<uint32_t>& dirty) {
    PartitionedIndex frozen;
    if (previous == nullptr) {
      for (size_t p = 0; p < kPartitions; ++p) frozen.CopyFrom(live, p);
      return frozen;
    }
    frozen.partitions_ = previous->partitions_;
    for (const uint32_t p : dirty) frozen.CopyFrom(live, p);
    return frozen;
  }

 private:
  void CopyFrom(const PartitionedIndex& live, size_t partition) {
    const Map* map = live.partitions_[partition].get();
    partitions_[partition] =
        map == nullptr ? nullptr : std::make_shared<Map>(*map);
  }

  std::array<std::shared_ptr<Map>, kPartitions> partitions_;
};

}  // namespace damocles::metadb
