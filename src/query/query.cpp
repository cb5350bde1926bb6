#include "query/query.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/error.hpp"

namespace damocles::query {

using metadb::Link;
using metadb::LinkId;
using metadb::LinkKind;
using metadb::MetaObject;
using metadb::Oid;
using metadb::OidId;

namespace {

void SortMatches(std::vector<Match>& matches) {
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) { return a.oid < b.oid; });
}

}  // namespace

std::vector<Match> ProjectQuery::FindByView(std::string_view view) const {
  // A name the database never interned matches nothing.
  const SymbolId symbol = db_->FindSymbol(view);
  return FindWhere(
      [symbol](const MetaObject& object) { return object.view == symbol; });
}

std::vector<Match> ProjectQuery::FindByBlock(std::string_view block) const {
  const SymbolId symbol = db_->FindSymbol(block);
  return FindWhere(
      [symbol](const MetaObject& object) { return object.block == symbol; });
}

std::vector<Match> ProjectQuery::FindByProperty(std::string_view name,
                                                std::string_view value) const {
  const SymbolId symbol = db_->FindSymbol(name);
  return FindWhere([symbol, value](const MetaObject& object) {
    const std::string* found = object.FindProperty(symbol);
    return found != nullptr && *found == value;
  });
}

std::vector<Match> ProjectQuery::FindWhere(
    const std::function<bool(const MetaObject&)>& predicate) const {
  std::vector<Match> matches;
  db_->ForEachObject([&](OidId id, const MetaObject& object) {
    if (predicate(object)) matches.push_back(Match{id, db_->OidOf(object)});
  });
  SortMatches(matches);
  return matches;
}

std::vector<Match> ProjectQuery::FindMatching(
    const blueprint::Expr& expr) const {
  return FindWhere([&](const MetaObject& object) {
    return expr.EvaluateBool(ResolverFor(object));
  });
}

std::vector<Match> ProjectQuery::LatestVersions(
    const std::function<bool(const MetaObject&)>& predicate) const {
  // Collect the latest live version per (block, view).
  std::vector<Match> matches;
  std::unordered_set<std::string> seen;
  std::vector<Match> all;
  db_->ForEachObject([&](OidId id, const MetaObject& object) {
    all.push_back(Match{id, db_->OidOf(object)});
  });
  // Visit newest versions first so the first (block, view) hit wins.
  std::sort(all.begin(), all.end(), [](const Match& a, const Match& b) {
    if (a.oid.block != b.oid.block) return a.oid.block < b.oid.block;
    if (a.oid.view != b.oid.view) return a.oid.view < b.oid.view;
    return a.oid.version > b.oid.version;
  });
  for (const Match& match : all) {
    std::string key = match.oid.block;
    key.push_back('\0');
    key += match.oid.view;
    if (!seen.insert(std::move(key)).second) continue;
    if (predicate == nullptr || predicate(db_->GetObject(match.id))) {
      matches.push_back(match);
    }
  }
  SortMatches(matches);
  return matches;
}

std::vector<Match> ProjectQuery::OutOfDate() const {
  return FindByProperty("uptodate", "false");
}

std::optional<std::string> ProjectQuery::StateOf(const Oid& oid) const {
  const auto id = db_->FindObject(oid);
  if (!id.has_value()) {
    throw NotFoundError("StateOf: unknown OID " + FormatOid(oid));
  }
  const std::string* state = db_->GetProperty(*id, "state");
  if (state == nullptr) return std::nullopt;
  return *state;
}

std::vector<Blocker> ProjectQuery::DistanceToPlannedState(
    const std::vector<PlannedProperty>& plan,
    const std::vector<std::string>& views) const {
  const auto in_scope = [&](const MetaObject& object) {
    if (views.empty()) return true;
    return std::find(views.begin(), views.end(), db_->ViewOf(object)) !=
           views.end();
  };
  const std::vector<Match> scope = LatestVersions(in_scope);

  std::vector<Blocker> blockers;
  for (const Match& match : scope) {
    const MetaObject& object = db_->GetObject(match.id);
    for (const PlannedProperty& planned : plan) {
      const std::string* value = db_->FindProperty(object, planned.property);
      if (value == nullptr) continue;  // Not tracked here.
      if (*value != planned.required_value) {
        blockers.push_back(Blocker{match.oid, planned.property, *value,
                                   planned.required_value});
      }
    }
  }
  return blockers;
}

std::vector<Match> ProjectQuery::HierarchyMembers(const Oid& root) const {
  const auto root_id = db_->FindObject(root);
  if (!root_id.has_value()) {
    throw NotFoundError("HierarchyMembers: unknown OID " + FormatOid(root));
  }
  std::vector<Match> matches;
  std::deque<OidId> frontier{*root_id};
  std::unordered_set<uint32_t> visited{root_id->value()};
  while (!frontier.empty()) {
    const OidId current = frontier.front();
    frontier.pop_front();
    matches.push_back(Match{current, db_->OidOf(current)});
    for (const LinkId link_id : db_->OutLinks(current)) {
      const Link& link = db_->GetLink(link_id);
      if (link.kind != LinkKind::kUse) continue;
      if (visited.insert(link.to.value()).second) {
        frontier.push_back(link.to);
      }
    }
  }
  return matches;
}

std::vector<Match> ProjectQuery::DerivationSources(const Oid& oid) const {
  const auto start = db_->FindObject(oid);
  if (!start.has_value()) {
    throw NotFoundError("DerivationSources: unknown OID " + FormatOid(oid));
  }
  std::vector<Match> matches;
  std::deque<OidId> frontier{*start};
  std::unordered_set<uint32_t> visited{start->value()};
  while (!frontier.empty()) {
    const OidId current = frontier.front();
    frontier.pop_front();
    for (const LinkId link_id : db_->InLinks(current)) {
      const Link& link = db_->GetLink(link_id);
      if (link.kind != LinkKind::kDerive) continue;
      if (visited.insert(link.from.value()).second) {
        matches.push_back(Match{link.from, db_->OidOf(link.from)});
        frontier.push_back(link.from);
      }
    }
  }
  SortMatches(matches);
  return matches;
}

metadb::Configuration ProjectQuery::ToConfiguration(
    std::string name, const std::vector<Match>& matches,
    int64_t timestamp) const {
  metadb::Configuration config;
  config.name = std::move(name);
  config.built_from = "query";
  config.created_at = timestamp;
  config.oids.reserve(matches.size());
  for (const Match& match : matches) config.oids.push_back(match.id);
  return config;
}

blueprint::VariableResolver ProjectQuery::ResolverFor(
    const MetaObject& object) const {
  return [this, &object](std::string_view name) -> std::string {
    if (name == "block") return db_->BlockOf(object);
    if (name == "view") return db_->ViewOf(object);
    if (name == "version") return std::to_string(object.version);
    return db_->PropertyOr(object, name, std::string());
  };
}

}  // namespace damocles::query
