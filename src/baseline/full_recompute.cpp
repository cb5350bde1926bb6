#include "baseline/full_recompute.hpp"

#include <algorithm>
#include <vector>

namespace damocles::baseline {

using metadb::Link;
using metadb::LinkId;
using metadb::MetaObject;
using metadb::OidId;

void FullRecomputeTracker::RecomputeAll() {
  ++stats_.sweeps;

  // newest_upstream[slot] = newest creation timestamp among all
  // transitive in-link sources of the object in that slot (or a
  // sentinel when none). Computed with an iterative relaxation over the
  // link set: O(V + E) per pass, passes bounded by graph depth; cyclic
  // graphs (legal but unusual) settle because timestamps only grow.
  constexpr int64_t kNone = INT64_MIN;
  const size_t slots = db_.ObjectSlotCount();
  std::vector<int64_t> newest_upstream(slots, kNone);

  // Collect live links once per sweep.
  std::vector<const Link*> links;
  db_.ForEachLink([&](LinkId, const Link& link) {
    links.push_back(&link);
    ++stats_.links_visited;
  });

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Link* link : links) {
      const MetaObject& source = db_.GetObject(link->from);
      const int64_t through =
          std::max(source.created_at, newest_upstream[link->from.value()]);
      int64_t& slot = newest_upstream[link->to.value()];
      if (through > slot) {
        slot = through;
        changed = true;
      }
    }
  }

  db_.ForEachObject([&](OidId id, const MetaObject& object) {
    ++stats_.objects_visited;
    const bool stale = newest_upstream[id.value()] > object.created_at;
    const char* value = stale ? "false" : "true";
    if (db_.SetProperty(id, "uptodate", value)) ++stats_.property_writes;
  });
}

}  // namespace damocles::baseline
