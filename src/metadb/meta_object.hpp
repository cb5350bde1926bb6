// The meta-data object: everything the tracking system knows about one
// version of one view of one block.
//
// The object is flat. Its names — block, view, creating user and every
// property name — are SymbolIds of the owning MetaDatabase's symbol
// table, and its properties are one contiguous vector. A delivery then
// reads and writes a few adjacent cache lines, and a snapshot publish
// copies a chunk of mostly trivially copyable bytes instead of walking
// map nodes. Resolve ids to text through the database (SymbolText,
// OidOf, BlockOf, ViewOf); an id means nothing outside its database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/symbol.hpp"

namespace damocles::metadb {

/// One property annotation: an interned name and its value.
struct Property {
  SymbolId name = 0;
  std::string value;
};

/// A meta-data object. Created once per design-object version; never
/// mutated structurally (only its properties change), and tombstoned
/// rather than erased so handles stay stable.
struct MetaObject {
  SymbolId block = 0;       ///< Block name, e.g. "cpu".
  SymbolId view = 0;        ///< View type, e.g. "schematic".
  SymbolId created_by = 0;  ///< User that created this version.
  int version = 1;          ///< Version number, starting at 1.
  int64_t created_at = 0;   ///< SimClock seconds at creation.
  /// Property/value annotations, sorted by name TEXT (not by id), so
  /// iteration order — and every dump, journal line and query reply
  /// built from it — does not depend on the order names were interned.
  /// MetaDatabase::PutProperty keeps the order.
  std::vector<Property> properties;
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
