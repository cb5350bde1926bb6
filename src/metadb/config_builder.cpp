#include "metadb/config_builder.hpp"

#include <algorithm>
#include <unordered_set>

namespace damocles::metadb {

namespace {

struct TraversalState {
  const MetaDatabase& db;
  const TraversalRules& rules;
  Configuration& config;
  std::unordered_set<uint32_t> visited_objects;
  std::unordered_set<uint32_t> visited_links;
};

bool ShouldFollow(const Link& link, const TraversalRules& rules) {
  if (link.kind == LinkKind::kUse) return rules.follow_use_links;
  if (!rules.follow_derive_links) return false;
  if (rules.derive_types.empty()) return true;
  return std::find(rules.derive_types.begin(), rules.derive_types.end(),
                   link.type) != rules.derive_types.end();
}

void Visit(TraversalState& state, OidId id, int depth) {
  if (!state.visited_objects.insert(id.value()).second) return;
  state.config.oids.push_back(id);
  if (state.rules.max_depth >= 0 && depth >= state.rules.max_depth) return;
  for (const LinkId link_id : state.db.OutLinks(id)) {
    const Link& link = state.db.GetLink(link_id);
    if (!ShouldFollow(link, state.rules)) continue;
    if (state.rules.include_links &&
        state.visited_links.insert(link_id.value()).second) {
      state.config.links.push_back(link_id);
    }
    Visit(state, link.to, depth + 1);
  }
}

}  // namespace

Configuration BuildHierarchyConfiguration(const MetaDatabase& db, OidId root,
                                          std::string name,
                                          const TraversalRules& rules,
                                          int64_t timestamp) {
  Configuration config;
  config.name = std::move(name);
  config.built_from = "hierarchy of " + FormatOid(db.OidOf(root));
  config.created_at = timestamp;
  TraversalState state{db, rules, config, {}, {}};
  Visit(state, root, 0);
  return config;
}

Configuration BuildQueryConfiguration(
    const MetaDatabase& db, std::string name,
    const std::function<bool(OidId, const MetaObject&)>& predicate,
    int64_t timestamp) {
  Configuration config;
  config.name = std::move(name);
  config.built_from = "query";
  config.created_at = timestamp;
  db.ForEachObject([&](OidId id, const MetaObject& object) {
    if (predicate(id, object)) config.oids.push_back(id);
  });
  return config;
}

Configuration BuildFullCheckpoint(const MetaDatabase& db, std::string name,
                                int64_t timestamp) {
  Configuration config;
  config.name = std::move(name);
  config.built_from = "full snapshot";
  config.created_at = timestamp;
  db.ForEachObject(
      [&](OidId id, const MetaObject&) { config.oids.push_back(id); });
  db.ForEachLink(
      [&](LinkId id, const Link&) { config.links.push_back(id); });
  return config;
}

std::vector<OidId> ConfigurationDiff(const Configuration& older,
                                     const Configuration& newer) {
  std::unordered_set<uint32_t> old_set;
  old_set.reserve(older.oids.size());
  for (const OidId id : older.oids) old_set.insert(id.value());
  std::unordered_set<uint32_t> new_set;
  new_set.reserve(newer.oids.size());
  for (const OidId id : newer.oids) new_set.insert(id.value());

  std::vector<OidId> diff;
  for (const OidId id : newer.oids) {
    if (old_set.find(id.value()) == old_set.end()) diff.push_back(id);
  }
  for (const OidId id : older.oids) {
    if (new_set.find(id.value()) == new_set.end()) diff.push_back(id);
  }
  return diff;
}

}  // namespace damocles::metadb
