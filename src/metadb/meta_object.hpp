// The meta-data object: everything the tracking system knows about one
// version of one view of one block.
//
// The object is flat. Its names — block, view, creating user and every
// property name — are SymbolIds of the owning MetaDatabase's symbol
// table, and its properties live in one heap property block (refcount,
// count and the Property array in a single allocation). A delivery then
// reads and writes a few adjacent cache lines, and a snapshot publish
// copies a chunk of trivially copyable bytes plus the blocks of the
// objects written since the previous publish; every other object shares
// its block with the previous frozen version (MetaDatabase::
// FreezeVersion). Resolve ids to text through the database (SymbolText,
// OidOf, BlockOf, ViewOf); an id means nothing outside its database.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>

#include "common/symbol.hpp"

namespace damocles::metadb {

class MetaDatabase;

/// One property annotation: an interned name and its value.
struct Property {
  SymbolId name = 0;
  std::string value;
};

/// A MetaObject's properties: a pointer to one heap block holding an
/// intrusive refcount, the count and the Property array inline, so a
/// read follows one pointer, as a std::vector's would. Empty lists
/// hold no block.
///
/// Ownership rule (metadb/chunked.hpp's, applied per object): a list
/// the live database or any caller can mutate owns its block alone.
/// Copying a list copies the block; only the private Share() — called
/// by a publish on a frozen version's list — makes two lists point at
/// one block, so frozen versions share blocks with each other and never
/// with the live database. Insert, Erase and the mutable iterators
/// therefore write in place and never read the refcount.
class PropertyList {
 public:
  PropertyList() noexcept = default;
  PropertyList(const PropertyList& other) : block_(Copy(other.block_)) {}
  PropertyList(PropertyList&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  PropertyList& operator=(const PropertyList& other) {
    if (this != &other) Reset(Copy(other.block_));
    return *this;
  }
  PropertyList& operator=(PropertyList&& other) noexcept {
    if (this != &other) {
      Reset(other.block_);
      other.block_ = nullptr;
    }
    return *this;
  }
  ~PropertyList() { Release(block_); }

  size_t size() const noexcept { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const noexcept { return size() == 0; }

  const Property* begin() const noexcept { return Items(block_); }
  const Property* end() const noexcept { return begin() + size(); }
  Property* begin() noexcept { return Items(block_); }
  Property* end() noexcept { return begin() + size(); }

  /// Inserts `property` before position `index`, growing the block
  /// (doubling, like a vector) when it is full.
  void Insert(size_t index, Property property);
  /// Removes the property at `index`.
  void Erase(size_t index);

 private:
  friend class MetaDatabase;

  /// A list sharing `frozen`'s block: a refcount bump, no copy. Only
  /// MetaDatabase::FreezeVersion calls it, on a list of the previous
  /// frozen version.
  static PropertyList Share(const PropertyList& frozen) noexcept;

  struct alignas(Property) Block {
    std::atomic<uint32_t> refs{1};
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  static_assert(sizeof(Block) % alignof(Property) == 0);

  static Property* Items(Block* block) noexcept {
    return block == nullptr
               ? nullptr
               : std::launder(reinterpret_cast<Property*>(block + 1));
  }
  static const Property* Items(const Block* block) noexcept {
    return Items(const_cast<Block*>(block));
  }
  static Block* Allocate(uint32_t capacity);
  /// Destroys the properties and frees the block, refcount unread.
  static void Destroy(Block* block) noexcept;
  /// Drops one reference; the last frees the block.
  static void Release(Block* block) noexcept;
  /// A fresh, unshared block holding `block`'s properties (nullptr when
  /// there are none).
  static Block* Copy(const Block* block);
  void Reset(Block* block) noexcept {
    Release(block_);
    block_ = block;
  }

  Block* block_ = nullptr;
};

/// A meta-data object. Created once per design-object version; never
/// mutated structurally (only its properties change), and tombstoned
/// rather than erased so handles stay stable.
struct MetaObject {
  // MetaDatabase::FreezeVersion copies the plain fields one by one: a
  // new field is copied there too.
  SymbolId block = 0;       ///< Block name, e.g. "cpu".
  SymbolId view = 0;        ///< View type, e.g. "schematic".
  SymbolId created_by = 0;  ///< User that created this version.
  int version = 1;          ///< Version number, starting at 1.
  int64_t created_at = 0;   ///< SimClock seconds at creation.
  /// Property/value annotations, sorted by name TEXT (not by id), so
  /// iteration order — and every dump, journal line and query reply
  /// built from it — does not depend on the order names were interned.
  /// MetaDatabase::PutProperty keeps the order. Copying a MetaObject
  /// copies the block.
  PropertyList properties;
  /// Bumped by every property change (SetProperty, RemoveProperty,
  /// GetObjectMutable) and kept monotone across a slot replacement
  /// (ApplyObjectSlot). In-memory only: never persisted or dumped. The
  /// run-time engine compares it to skip re-evaluating continuous
  /// assignments of an object whose properties did not change.
  uint32_t revision = 0;
  bool alive = true;  ///< False once deleted.

  /// The value of property `name`, or nullptr. A linear scan: objects
  /// carry a handful of properties.
  const std::string* FindProperty(SymbolId name) const noexcept {
    for (const Property& property : properties) {
      if (property.name == name) return &property.value;
    }
    return nullptr;
  }
};

// A chunk of 64 objects is what a publish copies per dirtied chunk.
static_assert(sizeof(MetaObject) <= 64);

}  // namespace damocles::metadb
