#include "policy/shadow_wave.hpp"

#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace damocles::policy {

namespace {

using blueprint::Blueprint;
using blueprint::LinkTemplate;
using blueprint::RuntimeRule;
using blueprint::ViewTemplate;
using events::Direction;
using metadb::Link;
using metadb::LinkId;
using metadb::MetaDatabase;
using metadb::Oid;
using metadb::OidId;

/// Would `link` propagate `event_name` if the proposed version were
/// promoted and RetemplateLinks re-derived its PROPAGATE list?
bool WouldPropagate(const MetaDatabase& db, const Blueprint& proposed,
                    const Link& link, std::string_view event_name) {
  const LinkTemplate* match = proposed.FindLinkTemplate(
      link.kind, db.ViewOf(db.GetObject(link.from)),
      db.ViewOf(db.GetObject(link.to)));
  if (match == nullptr) return false;
  for (const std::string& event : match->propagates) {
    if (event == event_name) return true;
  }
  return false;
}

/// Rules matching the event at a view, default view included (the
/// rules CompiledRules would merge into the view's rule set).
size_t CountMatchingRules(const Blueprint& proposed, std::string_view view,
                          std::string_view event_name) {
  size_t count = 0;
  const ViewTemplate* sources[2] = {proposed.DefaultView(),
                                    proposed.FindView(view)};
  for (const ViewTemplate* source : sources) {
    if (source == nullptr) continue;
    for (const RuntimeRule& rule : source->rules) {
      if (rule.event == event_name) ++count;
    }
  }
  return count;
}

}  // namespace

ShadowWaveReport TraceShadowWave(const MetaDatabase& db,
                                 const Blueprint& proposed,
                                 uint64_t version_id,
                                 std::string_view event_name,
                                 Direction direction, const Oid& start,
                                 const ShadowWaveOptions& options) {
  const std::optional<OidId> start_id = db.FindObject(start);
  if (!start_id.has_value()) {
    throw NotFoundError("shadow-wave: unknown start object " +
                        metadb::FormatOid(start));
  }

  ShadowWaveReport report;
  report.version_id = version_id;
  report.event = std::string(event_name);
  report.direction = direction;
  report.start = start;
  report.depth_cap = options.depth_cap;

  // Batched BFS, one generation per depth — the same expansion order
  // the engine's ProcessWaveSeeded uses, so the reached set matches a
  // real wave under the promoted templates (modulo rule-posted
  // follow-on events, which a static trace intentionally excludes).
  std::unordered_set<uint32_t> visited;
  std::unordered_map<uint32_t, uint32_t> parent;  // child -> predecessor
  visited.insert(start_id->value());
  std::vector<OidId> batch{*start_id};
  std::vector<OidId> next;

  const auto chain_of = [&](OidId target) {
    std::vector<Oid> chain;
    for (uint32_t at = target.value();;) {
      chain.push_back(db.OidOf(OidId(at)));
      if (at == start_id->value()) break;
      at = parent.at(at);
    }
    return std::vector<Oid>(chain.rbegin(), chain.rend());
  };

  const auto admit = [&](OidId source, OidId receiver) {
    if (!visited.insert(receiver.value()).second) return;
    parent.emplace(receiver.value(), source.value());
    next.push_back(receiver);
  };

  for (size_t depth = 1; depth <= options.depth_cap && !batch.empty();
       ++depth) {
    next.clear();
    for (const OidId source : batch) {
      if (direction == Direction::kDown) {
        for (const LinkId link_id : db.OutLinks(source)) {
          const Link& link = db.GetLink(link_id);
          if (WouldPropagate(db, proposed, link, event_name)) {
            admit(source, link.to);
          }
        }
      } else {
        for (const LinkId link_id : db.InLinks(source)) {
          const Link& link = db.GetLink(link_id);
          if (WouldPropagate(db, proposed, link, event_name)) {
            admit(source, link.from);
          }
        }
      }
    }
    for (const OidId receiver : next) {
      if (report.paths.size() >= options.max_targets) {
        report.truncated = true;
        break;
      }
      ShadowWavePath path;
      path.target = db.OidOf(receiver);
      path.depth = depth;
      path.direct = depth == 1;
      path.chain = chain_of(receiver);
      path.matched_rules =
          CountMatchingRules(proposed, path.target.view, event_name);
      if (path.direct) {
        ++report.direct_count;
      } else {
        ++report.transitive_count;
      }
      report.paths.push_back(std::move(path));
    }
    if (report.truncated) break;
    batch.swap(next);
  }
  if (!report.truncated && !batch.empty() &&
      report.depth_cap > 0) {
    // The cap ended expansion while receivers were still being found:
    // probe one more generation to report truncation honestly.
    for (const OidId source : batch) {
      const std::vector<LinkId>& links = direction == Direction::kDown
                                             ? db.OutLinks(source)
                                             : db.InLinks(source);
      for (const LinkId link_id : links) {
        const Link& link = db.GetLink(link_id);
        const OidId receiver =
            direction == Direction::kDown ? link.to : link.from;
        if (visited.count(receiver.value()) != 0) continue;
        if (WouldPropagate(db, proposed, link, event_name)) {
          report.truncated = true;
          break;
        }
      }
      if (report.truncated) break;
    }
  }
  return report;
}

}  // namespace damocles::policy
