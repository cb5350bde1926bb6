#include "metadb/meta_object.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

namespace damocles::metadb {

PropertyList PropertyList::Share(const PropertyList& frozen) noexcept {
  PropertyList shared;
  shared.block_ = frozen.block_;
  if (shared.block_ != nullptr) {
    shared.block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  return shared;
}

PropertyList::Block* PropertyList::Allocate(uint32_t capacity) {
  void* raw = ::operator new(sizeof(Block) + capacity * sizeof(Property));
  Block* block = new (raw) Block;
  block->capacity = capacity;
  return block;
}

void PropertyList::Destroy(Block* block) noexcept {
  std::destroy_n(Items(block), block->size);
  block->~Block();
  ::operator delete(block);
}

void PropertyList::Release(Block* block) noexcept {
  // Frozen versions drop their last reference on whichever reader
  // thread unpins them last: acq_rel orders every earlier use of the
  // block before the free.
  if (block != nullptr &&
      block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Destroy(block);
  }
}

PropertyList::Block* PropertyList::Copy(const Block* block) {
  if (block == nullptr || block->size == 0) return nullptr;
  Block* copy = Allocate(block->size);
  try {
    std::uninitialized_copy_n(Items(block), block->size, Items(copy));
  } catch (...) {
    Destroy(copy);  // Still empty: uninitialized_copy_n cleaned up.
    throw;
  }
  copy->size = block->size;
  return copy;
}

void PropertyList::Insert(size_t index, Property property) {
  const size_t count = size();
  if (block_ != nullptr && count < block_->capacity) {
    Property* items = Items(block_);
    if (index == count) {
      new (items + count) Property(std::move(property));
    } else {
      new (items + count) Property(std::move(items[count - 1]));
      std::move_backward(items + index, items + count - 1, items + count);
      items[index] = std::move(property);
    }
    ++block_->size;
    return;
  }
  // Full: move everything into a block twice the size. The old block
  // is this list's alone, so it is destroyed without a refcount read.
  const auto capacity = static_cast<uint32_t>(std::max<size_t>(1, count * 2));
  Block* grown = Allocate(capacity);
  Property* from = Items(block_);
  Property* to = Items(grown);
  std::uninitialized_move_n(from, index, to);
  new (to + index) Property(std::move(property));
  std::uninitialized_move_n(from + index, count - index, to + index + 1);
  grown->size = static_cast<uint32_t>(count + 1);
  if (block_ != nullptr) Destroy(block_);
  block_ = grown;
}

void PropertyList::Erase(size_t index) {
  Property* items = Items(block_);
  const size_t count = size();
  std::move(items + index + 1, items + count, items + index);
  std::destroy_at(items + count - 1);
  --block_->size;
}

}  // namespace damocles::metadb
