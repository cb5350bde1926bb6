// Dirty-slot tracking: the one record of what mutated in the
// meta-database, read by two consumers.
//
//  * Delta checkpoints. A full checkpoint serializes every slot of the
//    MetaDatabase; under heavy traffic that is an O(total state) stall
//    per checkpoint. The checkpoint consumer collects which object,
//    link and configuration SLOTS mutated since its last cut so the
//    server can write a delta containing only those slots
//    (metadb/persistence's SaveDatabaseDeltaString), chained onto the
//    previous checkpoint by the manifest's base pointer.
//  * Snapshot publish. The database stores every table in fixed-size
//    chunks (metadb/chunked.hpp); the publish consumer collects which
//    CHUNKS of which table mutated since its last cut, so a published
//    version copies only those and shares the rest with the previous
//    version.
//
// Both consumers read the same marks. A mark stores the current
// generation into the slot's stamp and into its chunk's stamp; every
// cut bumps the generation, and each consumer keeps its own cursor (the
// generation right after its previous cut), so a stamp at or above a
// consumer's cursor means "mutated since that consumer last looked".
// Marks check before they store, so shard workers re-marking a hot
// chunk only read its cache line.
//
// Thread contract (the MetaDatabase mutation contract, verbatim):
// structural mutations (slot appends, which grow the stamp arrays, and
// index changes) are single-writer and never concurrent with wave
// workers; property writes from workers of disjoint shards may mark
// concurrently, so stamps are relaxed atomics. Cuts and MergeBack() are
// writer-side and quiescent-only, exactly like
// MetaDatabase::PublishSnapshot().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace damocles::metadb {

/// The chunked tables of a MetaDatabase, as the tracker and the publish
/// path name them. Objects, links and configurations are slot tables
/// (chunks of consecutive slots); adjacency is chunked like objects;
/// symbol texts are chunked by id; the four lookup indexes are hash
/// partitions.
enum class DirtyTable : uint8_t {
  kObjects,
  kLinks,
  kConfigs,
  kAdjacency,
  kOidIndex,
  kChainIndex,
  kConfigIndex,
  kSymbols,
  kSymbolIndex,
};
inline constexpr size_t kDirtyTableCount = 9;

/// The slots that mutated between two checkpoint cuts, per kind,
/// ascending. Returned by DirtyTracker::Cut(); consumed by
/// SaveDatabaseDeltaString and (on checkpoint failure) MergeBack.
struct DirtySet {
  std::vector<uint32_t> objects;
  std::vector<uint32_t> links;
  std::vector<uint32_t> configs;

  bool empty() const noexcept {
    return objects.empty() && links.empty() && configs.empty();
  }
  size_t size() const noexcept {
    return objects.size() + links.size() + configs.size();
  }
};

/// The chunks (partitions, for index tables) that mutated between two
/// publish cuts, per table, ascending.
struct DirtyChunks {
  std::array<std::vector<uint32_t>, kDirtyTableCount> tables;

  const std::vector<uint32_t>& of(DirtyTable table) const noexcept {
    return tables[static_cast<size_t>(table)];
  }

  bool empty() const noexcept {
    for (const std::vector<uint32_t>& chunks : tables) {
      if (!chunks.empty()) return false;
    }
    return true;
  }
};

/// Per-slot and per-chunk dirty stamps with one cursor per consumer.
class DirtyTracker {
 public:
  /// log2 of the slots per chunk; shared with the chunked tables so a
  /// slot's chunk is the same number in the tracker and the storage.
  static constexpr size_t kChunkShift = 6;

  void MarkObject(size_t slot) noexcept {
    MarkSlot(DirtyTable::kObjects, slot);
  }
  void MarkLink(size_t slot) noexcept { MarkSlot(DirtyTable::kLinks, slot); }
  void MarkConfig(size_t slot) noexcept {
    MarkSlot(DirtyTable::kConfigs, slot);
  }

  /// Marks chunk (or index partition) `chunk` of `table` without a
  /// slot: adjacency and index changes, which checkpoints do not
  /// serialize slot by slot.
  void MarkChunk(DirtyTable table, size_t chunk) noexcept {
    Mark(chunks_[static_cast<size_t>(table)], chunk);
  }

  /// Checkpoint consumer: collects every slot marked since its previous
  /// cut and moves its cursor past them. Quiescent callers only.
  DirtySet Cut();

  /// Re-marks `set`'s slots under the current generation so a failed
  /// checkpoint's dirty set is carried into the next cut instead of
  /// being lost. Quiescent callers only.
  void MergeBack(const DirtySet& set) noexcept;

  /// Publish consumer: collects every chunk marked since its previous
  /// cut and moves its cursor past them. Quiescent callers only.
  DirtyChunks CutChunks();

 private:
  enum Consumer : size_t { kCheckpoint, kPublish, kConsumerCount };

  struct StampArray {
    std::unique_ptr<std::atomic<uint64_t>[]> stamps;
    size_t size = 0;
    size_t capacity = 0;
  };

  void MarkSlot(DirtyTable table, size_t slot) noexcept {
    Mark(slots_[static_cast<size_t>(table)], slot);
    MarkChunk(table, slot >> kChunkShift);
  }
  void Mark(StampArray& array, size_t index) noexcept;
  /// Returns `consumer`'s cursor and moves it (and the generation) past
  /// every mark made so far.
  uint64_t Advance(Consumer consumer) noexcept;
  static void Grow(StampArray& array, size_t needed);
  void CollectSlots(DirtyTable table, uint64_t since,
                    std::vector<uint32_t>& out) const;
  static void Collect(const StampArray& array, uint64_t since, size_t begin,
                      size_t end, std::vector<uint32_t>& out);
  void Restamp(DirtyTable table, const std::vector<uint32_t>& slots,
               uint64_t generation) noexcept;

  /// Relaxed: marks read it mid-mutation, cuts write it only at
  /// quiescent points.
  std::atomic<uint64_t> generation_{1};
  /// Writer-side only (cuts are quiescent).
  std::array<uint64_t, kConsumerCount> cursor_{1, 1};
  /// Slot stamps; only the three slot tables use theirs.
  std::array<StampArray, kDirtyTableCount> slots_;
  std::array<StampArray, kDirtyTableCount> chunks_;
};

}  // namespace damocles::metadb
