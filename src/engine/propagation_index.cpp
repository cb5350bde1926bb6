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

PropagationIndex::PropagationIndex()
    : symbols_(nullptr), owned_(std::make_unique<SymbolTable>()) {
  symbols_ = owned_.get();
}

PropagationIndex::PropagationIndex(SymbolTable& symbols)
    : symbols_(&symbols) {}

void PropagationIndex::Clear() {
  buckets_.clear();
  entries_ = 0;
}

void PropagationIndex::Rebuild(const MetaDatabase& db) {
  Clear();
  // Walk adjacency lists (not link slots): endpoint moves re-append
  // links, so adjacency order — the order a scan delivers in — can
  // differ from slot order. A source filter scopes the walk to this
  // index's own sources (one filter probe per object, not per link).
  db.ForEachObject([&](OidId id, const metadb::MetaObject&) {
    if (!OwnsSource(id)) return;
    for (const LinkId link_id : db.OutLinks(id)) {
      const Link& link = db.GetLink(link_id);
      for (const std::string& event : link.propagates) {
        buckets_[PackKey(id, Direction::kDown, symbols_->Intern(event))]
            .push_back(Entry{link_id, link.to});
        ++entries_;
      }
    }
    for (const LinkId link_id : db.InLinks(id)) {
      const Link& link = db.GetLink(link_id);
      for (const std::string& event : link.propagates) {
        buckets_[PackKey(id, Direction::kUp, symbols_->Intern(event))]
            .push_back(Entry{link_id, link.from});
        ++entries_;
      }
    }
  });
}

const PropagationIndex::Bucket* PropagationIndex::Receivers(
    OidId source, Direction direction, SymbolId event) const {
  const auto it = buckets_.find(PackKey(source, direction, event));
  if (it == buckets_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

void PropagationIndex::AddEntries(LinkId id,
                                  const std::vector<std::string>& events,
                                  OidId from, OidId to) {
  const bool down = OwnsSource(from);
  const bool up = OwnsSource(to);
  if (!down && !up) return;
  for (const std::string& event : events) {
    const SymbolId sym = symbols_->Intern(event);
    if (down) {
      buckets_[PackKey(from, Direction::kDown, sym)].push_back(Entry{id, to});
      ++entries_;
    }
    if (up) {
      buckets_[PackKey(to, Direction::kUp, sym)].push_back(Entry{id, from});
      ++entries_;
    }
  }
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

void PropagationIndex::RemoveEntries(LinkId id,
                                     const std::vector<std::string>& events,
                                     OidId from, OidId to) {
  ForEachDistinct(events, [&](const std::string& event) {
    // A removed event name was necessarily interned when it was added.
    const SymbolId sym = symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return;
    EraseLinkEntries(from, Direction::kDown, sym, id);
    EraseLinkEntries(to, Direction::kUp, sym, id);
  });
}

// --- Single-side maintenance -------------------------------------------------

void PropagationIndex::AddLinkSide(LinkId id, const Link& link,
                                   bool down_side) {
  const OidId source = down_side ? link.from : link.to;
  const OidId neighbor = down_side ? link.to : link.from;
  if (!OwnsSource(source)) return;
  const Direction direction = down_side ? Direction::kDown : Direction::kUp;
  for (const std::string& event : link.propagates) {
    buckets_[PackKey(source, direction, symbols_->Intern(event))].push_back(
        Entry{id, neighbor});
    ++entries_;
  }
}

void PropagationIndex::RemoveLinkSide(LinkId id, const Link& link,
                                      bool down_side) {
  const OidId source = down_side ? link.from : link.to;
  const Direction direction = down_side ? Direction::kDown : Direction::kUp;
  ForEachDistinct(link.propagates, [&](const std::string& event) {
    const SymbolId sym = symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return;
    EraseLinkEntries(source, direction, sym, id);
  });
}

void PropagationIndex::EraseEntriesAt(OidId source, Direction direction,
                                      const std::vector<std::string>& events,
                                      LinkId link) {
  ForEachDistinct(events, [&](const std::string& event) {
    const SymbolId sym = symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return;
    EraseLinkEntries(source, direction, sym, link);
  });
}

void PropagationIndex::AppendEntriesAt(OidId source, Direction direction,
                                       const std::vector<std::string>& events,
                                       LinkId link, OidId neighbor) {
  if (!OwnsSource(source)) return;
  for (const std::string& event : events) {
    buckets_[PackKey(source, direction, symbols_->Intern(event))].push_back(
        Entry{link, neighbor});
    ++entries_;
  }
}

void PropagationIndex::PatchNeighborAt(OidId source, Direction direction,
                                       const std::vector<std::string>& events,
                                       LinkId link, OidId neighbor) {
  ForEachDistinct(events, [&](const std::string& event) {
    const SymbolId sym = symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return;
    const auto it = buckets_.find(PackKey(source, direction, sym));
    if (it == buckets_.end()) return;
    for (Entry& entry : it->second) {
      if (entry.link == link) entry.neighbor = neighbor;
    }
  });
}

void PropagationIndex::RebuildBucketsAt(
    const MetaDatabase& db, OidId source, Direction direction,
    const std::vector<std::string>& old_events,
    const std::vector<std::string>& new_events) {
  if (!OwnsSource(source)) return;
  ForEachDistinct(old_events, [&](const std::string& event) {
    RebuildBucket(db, source, direction, event);
  });
  ForEachDistinct(new_events, [&](const std::string& event) {
    if (std::find(old_events.begin(), old_events.end(), event) !=
        old_events.end()) {
      return;  // Already rebuilt through the old list.
    }
    RebuildBucket(db, source, direction, event);
  });
}

// --- Bucket migration --------------------------------------------------------

void PropagationIndex::RemoveSourceBuckets(const MetaDatabase& db,
                                           OidId source) {
  // The affected (direction, event) keys are derived from the current
  // adjacency: a bucket under `source` holds only entries of `source`'s
  // own links, so dropping whole buckets is exact.
  const auto drop = [&](Direction direction, const std::string& event) {
    const SymbolId sym = symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return;
    const auto it = buckets_.find(PackKey(source, direction, sym));
    if (it == buckets_.end()) return;
    entries_ -= it->second.size();
    buckets_.erase(it);
  };
  for (const LinkId link_id : db.OutLinks(source)) {
    for (const std::string& event : db.GetLink(link_id).propagates) {
      drop(Direction::kDown, event);
    }
  }
  for (const LinkId link_id : db.InLinks(source)) {
    for (const std::string& event : db.GetLink(link_id).propagates) {
      drop(Direction::kUp, event);
    }
  }
}

void PropagationIndex::AddSourceBuckets(const MetaDatabase& db, OidId source) {
  // No filter probe: the caller routed the source here deliberately
  // (assignment changes land before the migration notification fires).
  for (const LinkId link_id : db.OutLinks(source)) {
    const Link& link = db.GetLink(link_id);
    for (const std::string& event : link.propagates) {
      buckets_[PackKey(source, Direction::kDown, symbols_->Intern(event))]
          .push_back(Entry{link_id, link.to});
      ++entries_;
    }
  }
  for (const LinkId link_id : db.InLinks(source)) {
    const Link& link = db.GetLink(link_id);
    for (const std::string& event : link.propagates) {
      buckets_[PackKey(source, Direction::kUp, symbols_->Intern(event))]
          .push_back(Entry{link_id, link.from});
      ++entries_;
    }
  }
}

void PropagationIndex::AddLink(LinkId id, const Link& link) {
  AddEntries(id, link.propagates, link.from, link.to);
}

void PropagationIndex::RemoveLink(LinkId id, const Link& link) {
  RemoveEntries(id, link.propagates, link.from, link.to);
}

void PropagationIndex::MoveLinkEndpoint(LinkId id, bool endpoint_from,
                                        OidId old_endpoint, const Link& link) {
  // The moved side loses its buckets on the old endpoint and gains them
  // on the new one (appended, mirroring the adjacency push_back). The
  // unmoved side keeps its bucket positions; only the neighbour field
  // changes.
  const auto patch_neighbor = [this](OidId source, Direction direction,
                                     SymbolId event, LinkId link_id,
                                     OidId neighbor) {
    const auto it = buckets_.find(PackKey(source, direction, event));
    if (it == buckets_.end()) return;
    for (Entry& entry : it->second) {
      if (entry.link == link_id) entry.neighbor = neighbor;
    }
  };

  ForEachDistinct(link.propagates, [&](const std::string& event) {
    const SymbolId sym = symbols_->Intern(event);
    const size_t multiplicity = CountOccurrences(link.propagates, event);
    if (endpoint_from) {
      EraseLinkEntries(old_endpoint, Direction::kDown, sym, id);
      if (OwnsSource(link.from)) {
        Bucket& bucket = buckets_[PackKey(link.from, Direction::kDown, sym)];
        for (size_t i = 0; i < multiplicity; ++i) {
          bucket.push_back(Entry{id, link.to});
          ++entries_;
        }
      }
      patch_neighbor(link.to, Direction::kUp, sym, id, link.from);
    } else {
      EraseLinkEntries(old_endpoint, Direction::kUp, sym, id);
      if (OwnsSource(link.to)) {
        Bucket& bucket = buckets_[PackKey(link.to, Direction::kUp, sym)];
        for (size_t i = 0; i < multiplicity; ++i) {
          bucket.push_back(Entry{id, link.from});
          ++entries_;
        }
      }
      patch_neighbor(link.from, Direction::kDown, sym, id, link.to);
    }
  });
}

void PropagationIndex::RebuildBucket(const MetaDatabase& db, OidId source,
                                     Direction direction,
                                     const std::string& event) {
  if (!OwnsSource(source)) return;  // Foreign sources hold no buckets.
  const SymbolId sym = symbols_->Intern(event);
  const uint64_t key = PackKey(source, direction, sym);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    entries_ -= it->second.size();
    buckets_.erase(it);
  }
  Bucket bucket;
  const std::vector<LinkId>& adjacency = direction == Direction::kDown
                                             ? db.OutLinks(source)
                                             : db.InLinks(source);
  for (const LinkId link_id : adjacency) {
    const Link& link = db.GetLink(link_id);
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
    const MetaDatabase& db, LinkId /*id*/,
    const std::vector<std::string>& old_propagates, const Link& link) {
  // Rebuild every affected bucket from adjacency rather than
  // remove-and-append: the rewritten link keeps its adjacency position,
  // so its entries must keep their bucket position too.
  ForEachDistinct(old_propagates, [&](const std::string& event) {
    RebuildBucket(db, link.from, Direction::kDown, event);
    RebuildBucket(db, link.to, Direction::kUp, event);
  });
  // Skip events already rebuilt through the old list.
  ForEachDistinct(link.propagates, [&](const std::string& event) {
    if (std::find(old_propagates.begin(), old_propagates.end(), event) !=
        old_propagates.end()) {
      return;
    }
    RebuildBucket(db, link.from, Direction::kDown, event);
    RebuildBucket(db, link.to, Direction::kUp, event);
  });
}

bool PropagationIndex::ConsistentWith(const MetaDatabase& db,
                                      std::string* diff) const {
  PropagationIndex fresh;  // Private symbol table; compared by text.
  fresh.filter_ = filter_;  // Same scope: shard-local indexes compare
                            // against a rescan of their own subtree.
  fresh.Rebuild(db);

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
  const auto mismatch = [&](uint64_t key, const std::string& event,
                            size_t mine, size_t theirs) {
    const OidId source = UnpackSource(key);
    const bool down = UnpackDirection(key) == Direction::kDown;
    return describe("oid " + std::to_string(source.value()) + " " +
                    (down ? "down" : "up") + " '" + event + "': index has " +
                    std::to_string(mine) + " entries, rescan has " +
                    std::to_string(theirs));
  };

  // `index`'s bucket for `key`'s (source, direction) and `event` text:
  // the two indexes intern through different tables.
  const auto bucket_of = [](const PropagationIndex& index, uint64_t key,
                            const std::string& event) -> const Bucket* {
    const SymbolId sym = index.symbols_->Find(event);
    if (sym == SymbolTable::kNoSymbol) return nullptr;
    return index.Receivers(UnpackSource(key), UnpackDirection(key), sym);
  };

  // Every bucket of mine must match the rescan's bucket for the same
  // (source, direction, event text); empty buckets count as absent.
  for (const auto& [key, bucket] : buckets_) {
    if (bucket.empty()) continue;
    const std::string& event = symbols_->Text(UnpackEvent(key));
    const Bucket* theirs = bucket_of(fresh, key, event);
    if (theirs == nullptr) return mismatch(key, event, bucket.size(), 0);
    if (sorted(bucket) != sorted(*theirs)) {
      return mismatch(key, event, bucket.size(), theirs->size());
    }
  }
  // And the rescan must hold nothing this index lacks.
  for (const auto& [key, bucket] : fresh.buckets_) {
    if (bucket.empty()) continue;
    const std::string& event = fresh.symbols_->Text(UnpackEvent(key));
    if (bucket_of(*this, key, event) == nullptr) {
      return mismatch(key, event, 0, bucket.size());
    }
  }
  return true;
}

}  // namespace damocles::engine
