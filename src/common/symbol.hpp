// Interned symbols for hot-path name comparisons.
//
// Event names, view names and property names are compared constantly in
// the propagation inner loop. Interning maps each distinct string to a
// dense integer id so the engine compares integers instead of strings
// and can index side tables by symbol id.
//
// Lookups are heterogeneous (C++20 transparent hashing): Intern and
// Find accept a string_view and never allocate on the hit path, which
// is what lets the run-time engine call them from per-event code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace damocles {

/// Dense id for an interned string. Id 0 is reserved for the empty string.
using SymbolId = uint32_t;

/// A string interner. Not thread-safe. Wave execution uses the
/// meta-database's own table (metadb/meta_database.hpp); this class
/// serves private name spaces such as the shard map's block ids and the
/// event journal's strings.
class SymbolTable {
 public:
  SymbolTable();

  // texts_ points into ids_'s nodes; a memberwise copy would alias the
  // source table's storage. Moves are safe (map nodes are stable).
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&&) = default;
  SymbolTable& operator=(SymbolTable&&) = default;

  /// Returns the id for `text`, interning it on first use. Allocates
  /// only when `text` is new.
  SymbolId Intern(std::string_view text);

  /// Returns the id for `text` if already interned, or kNoSymbol.
  /// Never allocates.
  SymbolId Find(std::string_view text) const;

  /// The text for an id. Throws NotFoundError on an unknown id.
  const std::string& Text(SymbolId id) const;

  /// Number of interned symbols (including the reserved empty string).
  size_t size() const noexcept { return texts_.size(); }

  static constexpr SymbolId kNoSymbol = ~SymbolId{0};

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  // The map owns the interned strings; texts_ points into its nodes
  // (stable across rehashing — unordered_map never moves its nodes), so
  // each symbol's text is stored exactly once.
  std::unordered_map<std::string, SymbolId, TransparentHash, std::equal_to<>>
      ids_;
  std::vector<const std::string*> texts_;
};

}  // namespace damocles
