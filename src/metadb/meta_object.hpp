// The meta-data object: everything the tracking system knows about one
// version of one view of one block.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "metadb/ids.hpp"
#include "metadb/oid.hpp"

namespace damocles::metadb {

/// Property map. std::map keeps dumps and iteration deterministic,
/// which the persistence layer and the test suite rely on.
using PropertyMap = std::map<std::string, std::string>;

/// A meta-data object. Created once per design-object version; never
/// mutated structurally (only its properties change), and tombstoned
/// rather than erased so handles stay stable.
struct MetaObject {
  Oid oid;                 ///< The <block, view, version> triplet.
  PropertyMap properties;  ///< Property/value annotations.
  int64_t created_at = 0;  ///< SimClock seconds at creation.
  std::string created_by;  ///< User that created this version.
  bool alive = true;       ///< False once deleted.
  /// Bumped by every property change (SetProperty, RemoveProperty,
  /// GetObjectMutable) and kept monotone across a slot replacement
  /// (ApplyObjectSlot). In-memory only: never persisted or dumped. The
  /// run-time engine compares it to skip re-evaluating continuous
  /// assignments of an object whose properties did not change. 32 bits
  /// fill the padding after `alive`, so the object does not grow (a
  /// 64-bit field added 8 bytes to every object and measurably slowed
  /// snapshot reads); it repeats a value only after 2^32 changes of one
  /// object.
  uint32_t revision = 0;

  /// Returns the property value or `fallback` when absent.
  const std::string& PropertyOr(const std::string& name,
                                const std::string& fallback) const {
    const auto it = properties.find(name);
    return it == properties.end() ? fallback : it->second;
  }

  bool HasProperty(const std::string& name) const {
    return properties.find(name) != properties.end();
  }
};

}  // namespace damocles::metadb
