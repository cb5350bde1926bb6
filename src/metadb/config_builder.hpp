// Builders for Configuration snapshots.
//
// Paper §2: configurations "can be built by traversing a hierarchy while
// following certain rules, or can be made as a result of a query, in
// which case they will be a non-hierarchical set of data."
#pragma once

#include <functional>
#include <string>

#include "metadb/configuration.hpp"
#include "metadb/meta_database.hpp"

namespace damocles::metadb {

/// Rules steering the hierarchy traversal of BuildHierarchyConfiguration.
struct TraversalRules {
  bool follow_use_links = true;     ///< Descend through hierarchy links.
  bool follow_derive_links = false; ///< Also cross derive links.
  /// Only cross derive links whose TYPE is in this list (empty = all).
  std::vector<std::string> derive_types;
  /// Include the traversed links in the configuration.
  bool include_links = true;
  /// Stop descending below this depth (root = 0; negative = unlimited).
  int max_depth = -1;
};

/// Builds a configuration by depth-first traversal from `root`,
/// following links in their source->target orientation under `rules`.
/// Cycles are tolerated (each object is recorded once).
Configuration BuildHierarchyConfiguration(const MetaDatabase& db, OidId root,
                                          std::string name,
                                          const TraversalRules& rules,
                                          int64_t timestamp);

/// Builds a non-hierarchical configuration from a predicate over all
/// live objects (the "result of a query" form).
Configuration BuildQueryConfiguration(
    const MetaDatabase& db, std::string name,
    const std::function<bool(OidId, const MetaObject&)>& predicate,
    int64_t timestamp);

/// Checkpoint of every live object and link — "the state of the design
/// hierarchy in a snapshot at each step of the design cycle". Named
/// "checkpoint" to keep persistent Configuration captures distinct from
/// the in-memory epoch-versioned read snapshots of metadb/snapshot.hpp.
Configuration BuildFullCheckpoint(const MetaDatabase& db, std::string name,
                                  int64_t timestamp);

/// Returns the objects of `config` whose given property differs from the
/// current database value recorded in `other`, i.e. the drift between
/// two snapshots of the same scope. Objects present in only one of the
/// two configurations are also reported.
std::vector<OidId> ConfigurationDiff(const Configuration& older,
                                     const Configuration& newer);

}  // namespace damocles::metadb
