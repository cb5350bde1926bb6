// Dirty-slot tracking: the one record of what mutated in the
// meta-database, read by two consumers.
//
//  * Delta checkpoints. A full checkpoint serializes every slot of the
//    MetaDatabase; under heavy traffic that is an O(total state) stall
//    per checkpoint. A checkpoint cut collects which object, link and
//    configuration SLOTS mutated since the last COMMITTED checkpoint so
//    the server can write a delta containing only those slots
//    (metadb/persistence's SaveDatabaseDeltaString), chained onto that
//    checkpoint by the manifest's base pointer.
//  * Snapshot publish. The database stores every table in fixed-size
//    chunks (metadb/chunked.hpp); the publish consumer collects which
//    CHUNKS of which table mutated since its last cut, so a published
//    version copies only those and shares the rest with the previous
//    version. Inside each dirty object chunk it also reads the 64 slot
//    stamps, so the frozen chunk copies the property blocks of the
//    marked objects only and shares the others' with that version.
//
// Both consumers read the same marks. A mark stores the current
// generation into the slot's stamp and into its chunk's stamp, and
// every cut bumps the generation, so a stamp at or above a generation
// means "mutated since the cut that moved the generation there". The
// tracker keeps one cursor, the publish one. A checkpoint cut takes its
// starting generation from the caller, which stores the cut's
// `next_since` only once the checkpoint commits: a cut whose write
// fails leaves it where it was, so the next cut covers the failed one's
// slots too. Marks check before they store, so shard workers re-marking
// a hot chunk only read its cache line.
//
// Thread contract (the MetaDatabase mutation contract, verbatim):
// structural mutations (slot appends, which grow the stamp arrays, and
// index changes) are single-writer and never concurrent with wave
// workers; property writes from workers of disjoint shards may mark
// concurrently, so stamps are relaxed atomics. Cuts are writer-side and
// quiescent-only, exactly like MetaDatabase::PublishSnapshot().
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

/// The slots that mutated since a checkpoint cut's starting
/// generation, per kind, ascending. Returned by DirtyTracker::Cut();
/// consumed by SaveDatabaseDeltaString.
struct DirtySet {
  std::vector<uint32_t> objects;
  std::vector<uint32_t> links;
  std::vector<uint32_t> configs;
  /// The generation right after this cut: every later mark stamps it
  /// or a newer one. A committed checkpoint's `next_since` is where the
  /// next cut starts.
  uint64_t next_since = 0;

  bool empty() const noexcept {
    return objects.empty() && links.empty() && configs.empty();
  }
  size_t size() const noexcept {
    return objects.size() + links.size() + configs.size();
  }
};

/// The chunks (partitions, for index tables) that mutated between two
/// publish cuts, per table, ascending, plus which object slots inside
/// the dirty object chunks were marked.
struct DirtyChunks {
  std::array<std::vector<uint32_t>, kDirtyTableCount> tables;
  /// Parallel to of(DirtyTable::kObjects): bit i of entry k is set when
  /// slot i of that chunk was marked since the previous publish cut.
  std::vector<uint64_t> object_slots;

  const std::vector<uint32_t>& of(DirtyTable table) const noexcept {
    return tables[static_cast<size_t>(table)];
  }

  /// The marked-slot mask of object chunk `chunk` (0 when the chunk is
  /// not dirty).
  uint64_t ObjectSlotMask(uint32_t chunk) const noexcept;

  bool empty() const noexcept {
    for (const std::vector<uint32_t>& chunks : tables) {
      if (!chunks.empty()) return false;
    }
    return true;
  }
};

/// Per-slot and per-chunk dirty stamps with the publish cursor.
class DirtyTracker {
 public:
  /// log2 of the slots per chunk; shared with the chunked tables so a
  /// slot's chunk is the same number in the tracker and the storage.
  static constexpr size_t kChunkShift = 6;
  static_assert((size_t{1} << kChunkShift) == 64,
                "DirtyChunks::object_slots holds a chunk's slots in 64 bits");

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

  /// Checkpoint consumer: collects every slot stamped at generation
  /// `since` or later (0 collects every slot ever marked) and moves the
  /// generation on. Quiescent callers only.
  DirtySet Cut(uint64_t since);

  /// Publish consumer: collects every chunk marked since its previous
  /// cut, and the object slots marked inside the dirty object chunks
  /// (a scan of each such chunk's 64 slot stamps), and moves its cursor
  /// past them. Quiescent callers only.
  DirtyChunks CutChunks();

 private:
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
  /// Moves the generation past every mark made so far and returns the
  /// new one.
  uint64_t Advance() noexcept;
  static void Grow(StampArray& array, size_t needed);
  void CollectSlots(DirtyTable table, uint64_t since,
                    std::vector<uint32_t>& out) const;
  static void Collect(const StampArray& array, uint64_t since, size_t begin,
                      size_t end, std::vector<uint32_t>& out);

  /// Relaxed: marks read it mid-mutation, cuts write it only at
  /// quiescent points.
  std::atomic<uint64_t> generation_{1};
  /// The publish cursor: the generation right after the previous
  /// publish cut. Writer-side only (cuts are quiescent).
  uint64_t publish_since_ = 1;
  /// Slot stamps; only the three slot tables use theirs.
  std::array<StampArray, kDirtyTableCount> slots_;
  std::array<StampArray, kDirtyTableCount> chunks_;
};

}  // namespace damocles::metadb
