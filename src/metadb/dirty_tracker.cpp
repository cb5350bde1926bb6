#include "metadb/dirty_tracker.hpp"

#include <algorithm>

namespace damocles::metadb {

void DirtyTracker::Mark(StampArray& array, size_t index) noexcept {
  if (index >= array.size) {
    // Only slot appends and index changes reach here, and both are
    // single-writer and never concurrent with marking workers (the same
    // contract that makes the database's own appends safe).
    Grow(array, index + 1);
  }
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  std::atomic<uint64_t>& stamp = array.stamps[index];
  if (stamp.load(std::memory_order_relaxed) != generation) {
    stamp.store(generation, std::memory_order_relaxed);
  }
}

void DirtyTracker::Grow(StampArray& array, size_t needed) {
  if (needed > array.capacity) {
    size_t capacity = std::max<size_t>(array.capacity * 2, 64);
    capacity = std::max(capacity, needed);
    auto stamps = std::make_unique<std::atomic<uint64_t>[]>(capacity);
    for (size_t i = 0; i < array.size; ++i) {
      stamps[i].store(array.stamps[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    for (size_t i = array.size; i < capacity; ++i) {
      stamps[i].store(0, std::memory_order_relaxed);
    }
    array.stamps = std::move(stamps);
    array.capacity = capacity;
  }
  array.size = std::max(array.size, needed);
}

uint64_t DirtyTracker::Advance() noexcept {
  const uint64_t next = generation_.load(std::memory_order_relaxed) + 1;
  generation_.store(next, std::memory_order_relaxed);
  return next;
}

void DirtyTracker::Collect(const StampArray& array, uint64_t since,
                           size_t begin, size_t end,
                           std::vector<uint32_t>& out) {
  end = std::min(end, array.size);
  for (size_t i = begin; i < end; ++i) {
    if (array.stamps[i].load(std::memory_order_relaxed) >= since) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
}

void DirtyTracker::CollectSlots(DirtyTable table, uint64_t since,
                                std::vector<uint32_t>& out) const {
  // Every slot mark also stamps its chunk, so only chunks stamped since
  // `since` need a slot scan.
  const StampArray& chunks = chunks_[static_cast<size_t>(table)];
  const StampArray& slots = slots_[static_cast<size_t>(table)];
  for (size_t chunk = 0; chunk < chunks.size; ++chunk) {
    if (chunks.stamps[chunk].load(std::memory_order_relaxed) < since) continue;
    const size_t begin = chunk << kChunkShift;
    Collect(slots, since, begin, begin + (size_t{1} << kChunkShift), out);
  }
}

DirtySet DirtyTracker::Cut(uint64_t since) {
  DirtySet set;
  CollectSlots(DirtyTable::kObjects, since, set.objects);
  CollectSlots(DirtyTable::kLinks, since, set.links);
  CollectSlots(DirtyTable::kConfigs, since, set.configs);
  set.next_since = Advance();
  return set;
}

DirtyChunks DirtyTracker::CutChunks() {
  const uint64_t since = publish_since_;
  publish_since_ = Advance();
  DirtyChunks dirty;
  for (size_t table = 0; table < kDirtyTableCount; ++table) {
    const StampArray& chunks = chunks_[table];
    Collect(chunks, since, 0, chunks.size, dirty.tables[table]);
  }
  const StampArray& slots = slots_[static_cast<size_t>(DirtyTable::kObjects)];
  const std::vector<uint32_t>& chunks = dirty.of(DirtyTable::kObjects);
  dirty.object_slots.reserve(chunks.size());
  for (const uint32_t chunk : chunks) {
    const size_t begin = size_t{chunk} << kChunkShift;
    const size_t end = std::min(begin + (size_t{1} << kChunkShift), slots.size);
    uint64_t mask = 0;
    for (size_t slot = begin; slot < end; ++slot) {
      if (slots.stamps[slot].load(std::memory_order_relaxed) >= since) {
        mask |= uint64_t{1} << (slot - begin);
      }
    }
    dirty.object_slots.push_back(mask);
  }
  return dirty;
}

uint64_t DirtyChunks::ObjectSlotMask(uint32_t chunk) const noexcept {
  const std::vector<uint32_t>& chunks = of(DirtyTable::kObjects);
  const auto it = std::lower_bound(chunks.begin(), chunks.end(), chunk);
  if (it == chunks.end() || *it != chunk) return 0;
  return object_slots[static_cast<size_t>(it - chunks.begin())];
}

}  // namespace damocles::metadb
