#include "engine/propagation_index.hpp"

#include <algorithm>

#include "metadb/meta_database.hpp"

namespace damocles::engine {

using events::Direction;
using metadb::Link;
using metadb::LinkId;
using metadb::MetaDatabase;
using metadb::OidId;

namespace {

/// Calls `fn` once per distinct event name, in first-occurrence order.
/// PROPAGATE lists are tiny (a handful of names), so the quadratic
/// distinct scan beats building a set.
template <typename Fn>
void ForEachDistinct(const std::vector<std::string>& events, Fn&& fn) {
  for (size_t i = 0; i < events.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (events[j] == events[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) fn(events[i]);
  }
}

/// Calls `fn(symbol)` once per name of `events`, duplicates included. A
/// name the database never interned cannot be looked up, so it indexes
/// nothing (structural paths intern every PROPAGATE name first).
template <typename Fn>
void ForEachSymbol(const MetaDatabase& db,
                   const std::vector<std::string>& events, Fn&& fn) {
  for (const std::string& event : events) {
    const SymbolId sym = db.FindSymbol(event);
    if (sym != SymbolTable::kNoSymbol) fn(sym);
  }
}

/// ForEachSymbol, once per distinct name.
template <typename Fn>
void ForEachDistinctSymbol(const MetaDatabase& db,
                           const std::vector<std::string>& events, Fn&& fn) {
  ForEachDistinct(events, [&](const std::string& event) {
    const SymbolId sym = db.FindSymbol(event);
    if (sym != SymbolTable::kNoSymbol) fn(sym);
  });
}

/// Occurrences of `event` in a PROPAGATE list (duplicates are legal and
/// mirrored one-to-one into bucket entries).
size_t CountOccurrences(const std::vector<std::string>& events,
                        const std::string& event) {
  return static_cast<size_t>(std::count(events.begin(), events.end(), event));
}

OidId UnpackSource(uint64_t key) noexcept {
  return OidId(static_cast<uint32_t>(key >> 33));
}

Direction UnpackDirection(uint64_t key) noexcept {
  return ((key >> 32) & 1u) != 0 ? Direction::kDown : Direction::kUp;
}

SymbolId UnpackEvent(uint64_t key) noexcept {
  return static_cast<SymbolId>(key & 0xffffffffu);
}

}  // namespace

void PropagationIndex::Clear() {
  buckets_.clear();
  entries_ = 0;
}

void PropagationIndex::Rebuild() {
  Clear();
  // Walk adjacency lists (not link slots): endpoint moves re-append
  // links, so adjacency order — the order a scan delivers in — can
  // differ from slot order.
  db_.ForEachObject([&](OidId id, const metadb::MetaObject&) {
    for (const LinkId link_id : db_.OutLinks(id)) {
      const Link& link = db_.GetLink(link_id);
      AppendEntriesAt(id, Direction::kDown, link.propagates, link_id, link.to);
    }
    for (const LinkId link_id : db_.InLinks(id)) {
      const Link& link = db_.GetLink(link_id);
      AppendEntriesAt(id, Direction::kUp, link.propagates, link_id,
                      link.from);
    }
  });
}

const PropagationIndex::Bucket* PropagationIndex::Receivers(
    OidId source, Direction direction, SymbolId event) const {
  const auto it = buckets_.find(PackKey(source, direction, event));
  if (it == buckets_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

void PropagationIndex::EraseLinkEntries(OidId source, Direction direction,
                                        SymbolId event, LinkId link) {
  const auto it = buckets_.find(PackKey(source, direction, event));
  if (it == buckets_.end()) return;
  Bucket& bucket = it->second;
  // Ordered erase: surviving entries keep their adjacency-scan order.
  const auto new_end =
      std::remove_if(bucket.begin(), bucket.end(),
                     [link](const Entry& entry) { return entry.link == link; });
  entries_ -= static_cast<size_t>(bucket.end() - new_end);
  bucket.erase(new_end, bucket.end());
  if (bucket.empty()) buckets_.erase(it);
}

void PropagationIndex::EraseEntriesAt(OidId source, Direction direction,
                                      const std::vector<std::string>& events,
                                      LinkId link) {
  ForEachDistinctSymbol(db_, events, [&](SymbolId sym) {
    EraseLinkEntries(source, direction, sym, link);
  });
}

void PropagationIndex::AppendEntriesAt(OidId source, Direction direction,
                                       const std::vector<std::string>& events,
                                       LinkId link, OidId neighbor) {
  ForEachSymbol(db_, events, [&](SymbolId sym) {
    buckets_[PackKey(source, direction, sym)].push_back(Entry{link, neighbor});
    ++entries_;
  });
}

void PropagationIndex::AddLink(LinkId id, const Link& link) {
  AppendEntriesAt(link.from, Direction::kDown, link.propagates, id, link.to);
  AppendEntriesAt(link.to, Direction::kUp, link.propagates, id, link.from);
}

void PropagationIndex::RemoveLink(LinkId id, const Link& link) {
  EraseEntriesAt(link.from, Direction::kDown, link.propagates, id);
  EraseEntriesAt(link.to, Direction::kUp, link.propagates, id);
}

void PropagationIndex::MoveLinkEndpoint(LinkId id, bool endpoint_from,
                                        OidId old_endpoint, const Link& link) {
  // The moved side loses its buckets on the old endpoint and gains them
  // on the new one (appended, mirroring the adjacency push_back). The
  // unmoved side keeps its bucket positions; only the neighbour field
  // changes.
  const Direction moved_side =
      endpoint_from ? Direction::kDown : Direction::kUp;
  const Direction fixed_side =
      endpoint_from ? Direction::kUp : Direction::kDown;
  const OidId moved = endpoint_from ? link.from : link.to;
  const OidId fixed = endpoint_from ? link.to : link.from;
  EraseEntriesAt(old_endpoint, moved_side, link.propagates, id);
  AppendEntriesAt(moved, moved_side, link.propagates, id, fixed);
  ForEachDistinctSymbol(db_, link.propagates, [&](SymbolId sym) {
    const auto it = buckets_.find(PackKey(fixed, fixed_side, sym));
    if (it == buckets_.end()) return;
    for (Entry& entry : it->second) {
      if (entry.link == id) entry.neighbor = moved;
    }
  });
}

void PropagationIndex::RebuildBucket(OidId source, Direction direction,
                                     const std::string& event) {
  const SymbolId sym = db_.FindSymbol(event);
  if (sym == SymbolTable::kNoSymbol) return;
  const uint64_t key = PackKey(source, direction, sym);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    entries_ -= it->second.size();
    buckets_.erase(it);
  }
  Bucket bucket;
  const std::vector<LinkId>& adjacency = direction == Direction::kDown
                                             ? db_.OutLinks(source)
                                             : db_.InLinks(source);
  for (const LinkId link_id : adjacency) {
    const Link& link = db_.GetLink(link_id);
    const OidId neighbor = direction == Direction::kDown ? link.to : link.from;
    for (size_t i = 0; i < CountOccurrences(link.propagates, event); ++i) {
      bucket.push_back(Entry{link_id, neighbor});
    }
  }
  if (!bucket.empty()) {
    entries_ += bucket.size();
    buckets_.emplace(key, std::move(bucket));
  }
}

void PropagationIndex::SetLinkPropagates(
    const std::vector<std::string>& old_propagates, const Link& link) {
  // Rebuild every affected bucket from adjacency rather than
  // remove-and-append: the rewritten link keeps its adjacency position,
  // so its entries must keep their bucket position too. The affected
  // events are the union of the two lists, each rebuilt once per side.
  const auto rebuild = [&](const std::string& event) {
    RebuildBucket(link.from, Direction::kDown, event);
    RebuildBucket(link.to, Direction::kUp, event);
  };
  ForEachDistinct(old_propagates, rebuild);
  ForEachDistinct(link.propagates, [&](const std::string& event) {
    if (std::find(old_propagates.begin(), old_propagates.end(), event) ==
        old_propagates.end()) {
      rebuild(event);
    }
  });
}

bool PropagationIndex::ConsistentWith(const MetaDatabase& db,
                                      std::string* diff) const {
  PropagationIndex fresh(db);  // Same symbol space: compared by key.
  fresh.Rebuild();

  const auto describe = [diff](const std::string& what) {
    if (diff != nullptr) *diff = what;
    return false;
  };
  if (entries_ != fresh.entries_) {
    return describe("entry count: index has " + std::to_string(entries_) +
                    ", rescan has " + std::to_string(fresh.entries_));
  }

  const auto sorted = [](Bucket bucket) {
    std::sort(bucket.begin(), bucket.end(),
              [](const Entry& a, const Entry& b) {
                return a.link.value() != b.link.value()
                           ? a.link.value() < b.link.value()
                           : a.neighbor.value() < b.neighbor.value();
              });
    return bucket;
  };
  const auto mismatch = [&](uint64_t key, size_t mine, size_t theirs) {
    const bool down = UnpackDirection(key) == Direction::kDown;
    return describe("oid " + std::to_string(UnpackSource(key).value()) + " " +
                    (down ? "down" : "up") + " '" +
                    db_.SymbolText(UnpackEvent(key)) + "': index has " +
                    std::to_string(mine) + " entries, rescan has " +
                    std::to_string(theirs));
  };

  // Every bucket of mine must match the rescan's bucket under the same
  // key, and the rescan must hold nothing this index lacks; empty
  // buckets count as absent.
  for (const auto& [key, bucket] : buckets_) {
    if (bucket.empty()) continue;
    const Bucket* theirs =
        fresh.Receivers(UnpackSource(key), UnpackDirection(key),
                        UnpackEvent(key));
    if (theirs == nullptr) return mismatch(key, bucket.size(), 0);
    if (sorted(bucket) != sorted(*theirs)) {
      return mismatch(key, bucket.size(), theirs->size());
    }
  }
  for (const auto& [key, bucket] : fresh.buckets_) {
    if (!bucket.empty() && Receivers(UnpackSource(key), UnpackDirection(key),
                                     UnpackEvent(key)) == nullptr) {
      return mismatch(key, 0, bucket.size());
    }
  }
  return true;
}

}  // namespace damocles::engine
