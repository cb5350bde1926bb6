#include "metadb/meta_database.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace damocles::metadb {

namespace {

uint64_t ChainKey(SymbolId block, SymbolId view) {
  return (static_cast<uint64_t>(block) << 32) | view;
}

/// Set on wave executor threads (MetaDatabase::DenyInterning).
thread_local bool tls_interning_denied = false;

}  // namespace

// --- Meta-object lifecycle ---------------------------------------------------

OidId MetaDatabase::CreateObject(const Oid& oid, std::string_view user,
                                 int64_t timestamp) {
  if (oid.block.empty() || oid.view.empty()) {
    throw IntegrityError("CreateObject: empty block or view name");
  }
  if (by_oid_.Find(oid) != nullptr) {
    throw IntegrityError("CreateObject: duplicate OID " + FormatOid(oid));
  }
  const std::vector<OidId>* existing = FindChain(oid.block, oid.view);
  const int expected = existing == nullptr || existing->empty()
                           ? 1
                           : objects_[existing->back().value()].version + 1;
  if (oid.version != expected) {
    throw IntegrityError("CreateObject: version " +
                         std::to_string(oid.version) + " of " +
                         FormatOid(oid) + " out of sequence (expected " +
                         std::to_string(expected) + ")");
  }

  const OidId id(static_cast<uint32_t>(objects_.size()));
  MetaObject object;
  object.block = Intern(oid.block);
  object.view = Intern(oid.view);
  object.created_by = Intern(user);
  object.version = oid.version;
  object.created_at = timestamp;
  auto& chain = MutableChain(object);
  objects_.push_back(std::move(object));
  // No adjacency mark: a fresh slot's link lists are the default value
  // every chunk already holds past its last slot.
  adjacency_.push_back({});

  IndexOid(oid, id);
  chain.push_back(id);
  MarkObjectDirty(id.value());
  for (LinkObserver* observer : link_observers_) {
    observer->OnObjectCreated(id, objects_[id.value()]);
  }
  return id;
}

OidId MetaDatabase::CreateNextVersion(std::string_view block,
                                      std::string_view view,
                                      std::string_view user,
                                      int64_t timestamp) {
  const std::vector<OidId>* chain = FindChain(block, view);
  int next = 1;
  if (chain != nullptr && !chain->empty()) {
    next = objects_[chain->back().value()].version + 1;
  }
  return CreateObject(Oid{std::string(block), std::string(view), next}, user,
                      timestamp);
}

void MetaDatabase::DeleteObject(OidId id) {
  CheckObjectHandle(id);
  MetaObject& object = objects_[id.value()];
  object.alive = false;
  // Copy: DeleteLink mutates the adjacency vectors we are iterating.
  const std::vector<LinkId> out = adjacency_[id.value()].out;
  for (const LinkId link : out) DeleteLink(link);
  const std::vector<LinkId> in = adjacency_[id.value()].in;
  for (const LinkId link : in) DeleteLink(link);
  UnindexOid(OidOf(object));
  MarkObjectDirty(id.value());
}

// --- Lookup --------------------------------------------------------------------

std::optional<OidId> MetaDatabase::FindObject(const Oid& oid) const {
  const OidId* id = by_oid_.Find(oid);
  if (id == nullptr) return std::nullopt;
  return *id;
}

std::optional<OidId> MetaDatabase::FindLatest(std::string_view block,
                                              std::string_view view) const {
  const std::vector<OidId>* chain = FindChain(block, view);
  if (chain == nullptr) return std::nullopt;
  // Walk backwards past deleted versions.
  for (auto rit = chain->rbegin(); rit != chain->rend(); ++rit) {
    if (objects_[rit->value()].alive) return *rit;
  }
  return std::nullopt;
}

std::vector<OidId> MetaDatabase::VersionChain(std::string_view block,
                                              std::string_view view) const {
  const std::vector<OidId>* chain = FindChain(block, view);
  if (chain == nullptr) return {};
  return *chain;
}

std::optional<OidId> MetaDatabase::PreviousVersion(OidId id) const {
  CheckObjectHandle(id);
  const MetaObject& object = objects_[id.value()];
  const std::vector<OidId>* found =
      chains_.Find(ChainKey(object.block, object.view));
  if (found == nullptr) return std::nullopt;
  const std::vector<OidId>& chain = *found;
  // Chains are ordered by strictly increasing version: binary search.
  const auto pos = std::lower_bound(
      chain.begin(), chain.end(), object.version,
      [this](OidId entry, int version) {
        return objects_[entry.value()].version < version;
      });
  if (pos == chain.end() || *pos != id || pos == chain.begin()) {
    return std::nullopt;
  }
  return *(pos - 1);
}

const MetaObject& MetaDatabase::GetObject(OidId id) const {
  CheckObjectHandle(id);
  return objects_[id.value()];
}

MetaObject& MetaDatabase::GetObjectMutable(OidId id) {
  CheckObjectHandle(id);
  // Conservative: the caller holds a mutable reference.
  MarkObjectDirty(id.value());
  MetaObject& object = objects_[id.value()];
  ++object.revision;
  return object;
}

// --- Properties -------------------------------------------------------------------

bool MetaDatabase::SetProperty(OidId id, std::string_view name,
                               std::string_view value) {
  return SetProperty(id, Intern(name), value);
}

bool MetaDatabase::SetProperty(OidId id, SymbolId name,
                               std::string_view value) {
  CheckObjectHandle(id);
  MetaObject& object = objects_[id.value()];
  if (!PutProperty(object, name, value)) return false;
  ++object.revision;
  MarkObjectDirty(id.value());
  return true;
}

bool MetaDatabase::PutProperty(MetaObject& object, SymbolId name,
                               std::string_view value) const {
  PropertyList& properties = object.properties;
  for (Property& property : properties) {
    if (property.name != name) continue;
    if (property.value == value) return false;
    property.value.assign(value);
    return true;
  }
  // New name: insert at its place in name-text order.
  const std::string& text = SymbolText(name);
  const Property* pos = std::find_if(
      properties.begin(), properties.end(),
      [&](const Property& property) { return text < symbols_[property.name]; });
  properties.Insert(static_cast<size_t>(pos - properties.begin()),
                    Property{name, std::string(value)});
  return true;
}

const std::string* MetaDatabase::GetProperty(OidId id,
                                             std::string_view name) const {
  CheckObjectHandle(id);
  return FindProperty(objects_[id.value()], name);
}

bool MetaDatabase::RemoveProperty(OidId id, std::string_view name) {
  CheckObjectHandle(id);
  const SymbolId symbol = FindSymbol(name);
  PropertyList& properties = objects_[id.value()].properties;
  const Property* it = std::find_if(
      properties.begin(), properties.end(),
      [&](const Property& property) { return property.name == symbol; });
  if (it == properties.end()) return false;
  properties.Erase(static_cast<size_t>(it - properties.begin()));
  ++objects_[id.value()].revision;
  MarkObjectDirty(id.value());
  return true;
}

// --- Symbols ----------------------------------------------------------------------

SymbolId MetaDatabase::Intern(std::string_view text) {
  const SymbolId found = FindSymbol(text);
  if (found != SymbolTable::kNoSymbol) return found;
  if (tls_interning_denied) {
    throw IntegrityError("MetaDatabase::Intern: new name '" +
                         std::string(text) +
                         "' on a wave worker thread (names are interned "
                         "only on structural paths)");
  }
  const auto id = static_cast<SymbolId>(symbols_.size());
  symbols_.push_back(std::string(text));
  dirty_->MarkChunk(DirtyTable::kSymbols, id >> kChunkShift);
  const size_t partition = SymbolIndex::PartitionOf(text);
  symbol_ids_.Mutable(partition).emplace(std::string(text), id);
  dirty_->MarkChunk(DirtyTable::kSymbolIndex, partition);
  return id;
}

const std::string& MetaDatabase::SymbolText(SymbolId id) const {
  if (id >= symbols_.size()) {
    throw NotFoundError("MetaDatabase::SymbolText: unknown symbol id " +
                        std::to_string(id));
  }
  return symbols_[id];
}

void MetaDatabase::InternAll(const std::vector<std::string>& names) {
  for (const std::string& name : names) Intern(name);
}

bool MetaDatabase::DenyInterning(bool deny) noexcept {
  return std::exchange(tls_interning_denied, deny);
}

// --- Links -----------------------------------------------------------------------

LinkId MetaDatabase::CreateLink(LinkKind kind, OidId from, OidId to,
                                std::vector<std::string> propagates,
                                std::string type, CarryPolicy carry) {
  CheckObjectHandle(from);
  CheckObjectHandle(to);
  if (from == to) {
    throw IntegrityError("CreateLink: self-link on " + FormatOid(OidOf(from)));
  }
  if (!objects_[from.value()].alive || !objects_[to.value()].alive) {
    throw IntegrityError("CreateLink: endpoint is deleted");
  }
  if (kind == LinkKind::kUse &&
      objects_[from.value()].view != objects_[to.value()].view) {
    throw IntegrityError(
        "CreateLink: use link endpoints must share a view type (" +
        FormatOid(OidOf(from)) + " vs " + FormatOid(OidOf(to)) + ")");
  }

  InternAll(propagates);
  const LinkId id(static_cast<uint32_t>(links_.size()));
  Link link;
  link.kind = kind;
  link.from = from;
  link.to = to;
  link.propagates = std::move(propagates);
  link.type = std::move(type);
  link.carry = carry;
  links_.push_back(std::move(link));

  adjacency_[from.value()].out.push_back(id);
  adjacency_[to.value()].in.push_back(id);
  MarkAdjacencyDirty(from);
  MarkAdjacencyDirty(to);
  MarkLinkDirty(id.value());
  for (LinkObserver* observer : link_observers_) {
    observer->OnLinkAdded(id, links_[id.value()]);
  }
  return id;
}

void MetaDatabase::DeleteLink(LinkId id) {
  CheckLinkHandle(id);
  Link& link = links_[id.value()];
  if (!link.alive) return;
  for (LinkObserver* observer : link_observers_) {
    observer->OnLinkRemoved(id, link);
  }
  DetachLinkFromAdjacency(id);
  link.alive = false;
  MarkLinkDirty(id.value());
}

const Link& MetaDatabase::GetLink(LinkId id) const {
  CheckLinkHandle(id);
  return links_[id.value()];
}

Link& MetaDatabase::GetLinkMutable(LinkId id) {
  CheckLinkHandle(id);
  // Conservative: the caller holds a mutable reference.
  MarkLinkDirty(id.value());
  return links_[id.value()];
}

void MetaDatabase::MoveLinkEndpoint(LinkId id, bool endpoint_from,
                                    OidId new_endpoint) {
  CheckLinkHandle(id);
  CheckObjectHandle(new_endpoint);
  Link& link = links_[id.value()];
  if (!link.alive) {
    throw IntegrityError("MoveLinkEndpoint: link is deleted");
  }
  if (!objects_[new_endpoint.value()].alive) {
    throw IntegrityError("MoveLinkEndpoint: new endpoint is deleted");
  }
  OidId& endpoint = endpoint_from ? link.from : link.to;
  const OidId other = endpoint_from ? link.to : link.from;
  if (new_endpoint == other) {
    throw IntegrityError("MoveLinkEndpoint: would create a self-link");
  }
  if (endpoint == new_endpoint) return;
  if (link.kind == LinkKind::kUse &&
      objects_[new_endpoint.value()].view != objects_[other.value()].view) {
    throw IntegrityError(
        "MoveLinkEndpoint: use link endpoints must share a view type");
  }

  Adjacency& old_adjacency = adjacency_[endpoint.value()];
  auto& old_list = endpoint_from ? old_adjacency.out : old_adjacency.in;
  old_list.erase(std::remove(old_list.begin(), old_list.end(), id),
                 old_list.end());
  const OidId old_endpoint = endpoint;
  endpoint = new_endpoint;
  Adjacency& new_adjacency = adjacency_[new_endpoint.value()];
  auto& new_list = endpoint_from ? new_adjacency.out : new_adjacency.in;
  new_list.push_back(id);
  MarkAdjacencyDirty(old_endpoint);
  MarkAdjacencyDirty(new_endpoint);
  MarkLinkDirty(id.value());
  for (LinkObserver* observer : link_observers_) {
    observer->OnLinkEndpointMoved(id, endpoint_from, old_endpoint, link);
  }
}

void MetaDatabase::SetLinkPropagates(LinkId id,
                                     std::vector<std::string> propagates) {
  CheckLinkHandle(id);
  Link& link = links_[id.value()];
  if (!link.alive) {
    throw IntegrityError("SetLinkPropagates: link is deleted");
  }
  if (link.propagates == propagates) return;
  InternAll(propagates);
  std::vector<std::string> old_propagates = std::move(link.propagates);
  link.propagates = std::move(propagates);
  MarkLinkDirty(id.value());
  for (LinkObserver* observer : link_observers_) {
    observer->OnLinkPropagatesChanged(id, old_propagates, link);
  }
}

void MetaDatabase::AddLinkObserver(LinkObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(link_observers_.begin(), link_observers_.end(), observer) ==
      link_observers_.end()) {
    link_observers_.push_back(observer);
  }
}

void MetaDatabase::RemoveLinkObserver(LinkObserver* observer) {
  link_observers_.erase(
      std::remove(link_observers_.begin(), link_observers_.end(), observer),
      link_observers_.end());
}

const std::vector<LinkId>& MetaDatabase::OutLinks(OidId id) const {
  CheckObjectHandle(id);
  return adjacency_[id.value()].out;
}

const std::vector<LinkId>& MetaDatabase::InLinks(OidId id) const {
  CheckObjectHandle(id);
  return adjacency_[id.value()].in;
}

// --- Configurations ------------------------------------------------------------

ConfigId MetaDatabase::SaveConfiguration(Configuration config) {
  if (config.name.empty()) {
    throw IntegrityError("SaveConfiguration: configuration needs a name");
  }
  for (const OidId oid : config.oids) CheckObjectHandle(oid);
  for (const LinkId link : config.links) CheckLinkHandle(link);

  if (const ConfigId* existing = config_by_name_.Find(config.name)) {
    const ConfigId id = *existing;
    configurations_[id.value()] = std::move(config);
    MarkConfigDirty(id.value());
    return id;
  }
  const ConfigId id(static_cast<uint32_t>(configurations_.size()));
  IndexConfig(config.name, id);
  configurations_.push_back(std::move(config));
  MarkConfigDirty(id.value());
  return id;
}

std::optional<ConfigId> MetaDatabase::FindConfiguration(
    std::string_view name) const {
  const ConfigId* id = config_by_name_.Find(std::string(name));
  if (id == nullptr) return std::nullopt;
  return *id;
}

const Configuration& MetaDatabase::GetConfiguration(ConfigId id) const {
  if (!id.valid() || id.value() >= configurations_.size()) {
    throw NotFoundError("GetConfiguration: invalid configuration handle");
  }
  return configurations_[id.value()];
}

std::vector<std::string> MetaDatabase::ConfigurationNames() const {
  std::vector<std::string> names;
  names.reserve(config_by_name_.size());
  config_by_name_.ForEach(
      [&](const std::string& name, ConfigId) { names.push_back(name); });
  std::sort(names.begin(), names.end());
  return names;
}

// --- Enumeration ---------------------------------------------------------------

void MetaDatabase::ForEachObject(
    const std::function<void(OidId, const MetaObject&)>& fn) const {
  objects_.ForEach([&](size_t i, const MetaObject& object) {
    if (object.alive) fn(OidId(static_cast<uint32_t>(i)), object);
  });
}

void MetaDatabase::ForEachLink(
    const std::function<void(LinkId, const Link&)>& fn) const {
  links_.ForEach([&](size_t i, const Link& link) {
    if (link.alive) fn(LinkId(static_cast<uint32_t>(i)), link);
  });
}

DatabaseStats MetaDatabase::Stats() const {
  DatabaseStats stats;
  objects_.ForEach([&](size_t, const MetaObject& object) {
    if (object.alive) {
      ++stats.live_objects;
      stats.property_values += object.properties.size();
    } else {
      ++stats.dead_objects;
    }
  });
  links_.ForEach([&](size_t, const Link& link) {
    if (link.alive) {
      ++stats.live_links;
    } else {
      ++stats.dead_links;
    }
  });
  stats.configurations = configurations_.size();
  return stats;
}

// --- Persistence support -----------------------------------------------------

OidId MetaDatabase::RestoreObjectSlot(MetaObject object) {
  const OidId id(static_cast<uint32_t>(objects_.size()));
  const Oid oid = OidOf(object);
  auto& chain = MutableChain(object);
  if (!chain.empty()) {
    const int previous = objects_[chain.back().value()].version;
    if (object.version <= previous) {
      throw IntegrityError("RestoreObjectSlot: version order violated for " +
                           FormatOid(oid));
    }
  }
  if (object.alive && by_oid_.Find(oid) != nullptr) {
    throw IntegrityError("RestoreObjectSlot: duplicate live OID " +
                         FormatOid(oid));
  }
  if (object.alive) IndexOid(oid, id);
  chain.push_back(id);
  objects_.push_back(std::move(object));
  adjacency_.push_back({});
  MarkObjectDirty(id.value());
  for (LinkObserver* observer : link_observers_) {
    observer->OnObjectCreated(id, objects_[id.value()]);
  }
  return id;
}

LinkId MetaDatabase::RestoreLinkSlot(Link link) {
  InternAll(link.propagates);
  const LinkId id(static_cast<uint32_t>(links_.size()));
  const bool alive = link.alive;
  if (alive) {
    CheckObjectHandle(link.from);
    CheckObjectHandle(link.to);
    adjacency_[link.from.value()].out.push_back(id);
    adjacency_[link.to.value()].in.push_back(id);
    MarkAdjacencyDirty(link.from);
    MarkAdjacencyDirty(link.to);
  }
  links_.push_back(std::move(link));
  MarkLinkDirty(id.value());
  if (alive) {
    for (LinkObserver* observer : link_observers_) {
      observer->OnLinkAdded(id, links_[id.value()]);
    }
  }
  return id;
}

ConfigId MetaDatabase::RestoreConfigurationSlot(Configuration config) {
  const ConfigId id(static_cast<uint32_t>(configurations_.size()));
  if (!config.name.empty() && config_by_name_.Find(config.name) == nullptr) {
    IndexConfig(config.name, id);
  }
  configurations_.push_back(std::move(config));
  MarkConfigDirty(id.value());
  return id;
}

// --- Delta-checkpoint support ------------------------------------------------

void MetaDatabase::ApplyObjectSlot(size_t slot, MetaObject object) {
  if (slot > objects_.size()) {
    throw IntegrityError("ApplyObjectSlot: slot " + std::to_string(slot) +
                         " past the end (" + std::to_string(objects_.size()) +
                         " slots)");
  }
  if (slot == objects_.size()) {
    RestoreObjectSlot(std::move(object));
    return;
  }
  MetaObject& existing = objects_[slot];
  const Oid oid = OidOf(object);
  if (existing.block != object.block || existing.view != object.view ||
      existing.version != object.version) {
    throw IntegrityError("ApplyObjectSlot: delta rewrites slot " +
                         std::to_string(slot) + " from " +
                         FormatOid(OidOf(existing)) + " to " +
                         FormatOid(oid) + " (OIDs are immutable)");
  }
  if (existing.alive && !object.alive) {
    UnindexOid(oid);
  } else if (!existing.alive && object.alive && by_oid_.Find(oid) == nullptr) {
    IndexOid(oid, OidId(static_cast<uint32_t>(slot)));
  }
  // The slot's revision stays monotone across the replacement, so an
  // engine that cached "settled at revision r" for it re-evaluates.
  const uint32_t revision = std::max(existing.revision, object.revision) + 1;
  existing = std::move(object);
  existing.revision = revision;
  MarkObjectDirty(slot);
}

void MetaDatabase::ApplyLinkSlot(size_t slot, Link link) {
  if (slot > links_.size()) {
    throw IntegrityError("ApplyLinkSlot: slot " + std::to_string(slot) +
                         " past the end (" + std::to_string(links_.size()) +
                         " slots)");
  }
  if (link.alive) {
    CheckObjectHandle(link.from);
    CheckObjectHandle(link.to);
  }
  InternAll(link.propagates);
  if (slot == links_.size()) {
    links_.push_back(std::move(link));
  } else {
    links_[slot] = std::move(link);
  }
  MarkLinkDirty(slot);
}

void MetaDatabase::ApplyConfigurationSlot(size_t slot, Configuration config) {
  if (slot > configurations_.size()) {
    throw IntegrityError("ApplyConfigurationSlot: slot " +
                         std::to_string(slot) + " past the end (" +
                         std::to_string(configurations_.size()) + " slots)");
  }
  for (const OidId oid : config.oids) CheckObjectHandle(oid);
  for (const LinkId link : config.links) CheckLinkHandle(link);
  const ConfigId id(static_cast<uint32_t>(slot));
  if (slot == configurations_.size()) {
    configurations_.push_back(std::move(config));
  } else {
    Configuration& existing = configurations_[slot];
    if (existing.name != config.name && !existing.name.empty()) {
      UnindexConfig(existing.name);
    }
    existing = std::move(config);
  }
  if (!configurations_[slot].name.empty()) {
    IndexConfig(configurations_[slot].name, id);
  }
  MarkConfigDirty(slot);
}

void MetaDatabase::RebuildLinkAdjacency() {
  adjacency_.Reset(objects_.size());
  for (size_t c = 0; c < adjacency_.chunk_count(); ++c) {
    dirty_->MarkChunk(DirtyTable::kAdjacency, c);
  }
  links_.ForEach([&](size_t i, const Link& link) {
    if (!link.alive) return;
    const LinkId id(static_cast<uint32_t>(i));
    adjacency_[link.from.value()].out.push_back(id);
    adjacency_[link.to.value()].in.push_back(id);
  });
}

// --- Snapshot reads ----------------------------------------------------------

std::shared_ptr<const MetaDatabase> MetaDatabase::FreezeVersion(
    const MetaDatabase* previous, const DirtyChunks& dirty) const {
  auto frozen = std::make_shared<MetaDatabase>();
  // Each table starts from the previous version's pieces and replaces
  // the dirty ones with copies of the live pieces. Observers are not
  // carried over (a frozen version has nothing to observe), and the
  // frozen version's own snapshot store starts empty.
  const MetaDatabase* p = previous;
  // A dirty object chunk is rebuilt slot by slot: plain fields copied,
  // and the property block shared with the previous version unless the
  // slot was marked since then or is new (then copied from live).
  using ObjectChunk = ChunkedVector<MetaObject>::Chunk;
  frozen->objects_ = ChunkedVector<MetaObject>::Freeze(
      p ? &p->objects_ : nullptr, objects_, dirty.of(DirtyTable::kObjects),
      [&](size_t c, const ObjectChunk* before, size_t before_used) {
        const uint64_t marked = dirty.ObjectSlotMask(static_cast<uint32_t>(c));
        const ObjectChunk& live = objects_.chunk(c);
        auto chunk = std::make_shared<ObjectChunk>();
        for (size_t i = 0; i < kChunkSize; ++i) {
          const MetaObject& in = live[i];
          MetaObject& out = (*chunk)[i];
          out.block = in.block;
          out.view = in.view;
          out.created_by = in.created_by;
          out.version = in.version;
          out.created_at = in.created_at;
          out.revision = in.revision;
          out.alive = in.alive;
          if (i < before_used && (marked >> i & 1) == 0) {
            out.properties = PropertyList::Share((*before)[i].properties);
          } else {
            out.properties = in.properties;
          }
        }
        return chunk;
      });
  frozen->links_ = ChunkedVector<Link>::Freeze(
      p ? &p->links_ : nullptr, links_, dirty.of(DirtyTable::kLinks));
  frozen->configurations_ = ChunkedVector<Configuration>::Freeze(
      p ? &p->configurations_ : nullptr, configurations_,
      dirty.of(DirtyTable::kConfigs));
  frozen->adjacency_ = ChunkedVector<Adjacency>::Freeze(
      p ? &p->adjacency_ : nullptr, adjacency_,
      dirty.of(DirtyTable::kAdjacency));
  frozen->by_oid_ = OidIndex::Freeze(p ? &p->by_oid_ : nullptr, by_oid_,
                                     dirty.of(DirtyTable::kOidIndex));
  frozen->chains_ = ChainIndex::Freeze(p ? &p->chains_ : nullptr, chains_,
                                       dirty.of(DirtyTable::kChainIndex));
  frozen->config_by_name_ = ConfigIndex::Freeze(
      p ? &p->config_by_name_ : nullptr, config_by_name_,
      dirty.of(DirtyTable::kConfigIndex));
  frozen->symbols_ = ChunkedVector<std::string>::Freeze(
      p ? &p->symbols_ : nullptr, symbols_, dirty.of(DirtyTable::kSymbols));
  frozen->symbol_ids_ = SymbolIndex::Freeze(
      p ? &p->symbol_ids_ : nullptr, symbol_ids_,
      dirty.of(DirtyTable::kSymbolIndex));
  return frozen;
}

size_t MetaDatabase::ChunkCount(DirtyTable table) const noexcept {
  switch (table) {
    case DirtyTable::kObjects:
      return objects_.chunk_count();
    case DirtyTable::kLinks:
      return links_.chunk_count();
    case DirtyTable::kConfigs:
      return configurations_.chunk_count();
    case DirtyTable::kAdjacency:
      return adjacency_.chunk_count();
    case DirtyTable::kSymbols:
      return symbols_.chunk_count();
    case DirtyTable::kOidIndex:
    case DirtyTable::kChainIndex:
    case DirtyTable::kConfigIndex:
    case DirtyTable::kSymbolIndex:
      return OidIndex::kPartitions;
  }
  return 0;
}

const void* MetaDatabase::ChunkAddress(DirtyTable table,
                                       size_t index) const noexcept {
  switch (table) {
    case DirtyTable::kObjects:
      return objects_.chunk_address(index);
    case DirtyTable::kLinks:
      return links_.chunk_address(index);
    case DirtyTable::kConfigs:
      return configurations_.chunk_address(index);
    case DirtyTable::kAdjacency:
      return adjacency_.chunk_address(index);
    case DirtyTable::kOidIndex:
      return by_oid_.partition_address(index);
    case DirtyTable::kChainIndex:
      return chains_.partition_address(index);
    case DirtyTable::kConfigIndex:
      return config_by_name_.partition_address(index);
    case DirtyTable::kSymbols:
      return symbols_.chunk_address(index);
    case DirtyTable::kSymbolIndex:
      return symbol_ids_.partition_address(index);
  }
  return nullptr;
}

// --- Internal -------------------------------------------------------------------

void MetaDatabase::CheckObjectHandle(OidId id) const {
  if (!id.valid() || id.value() >= objects_.size()) {
    throw NotFoundError("invalid OID handle");
  }
}

void MetaDatabase::CheckLinkHandle(LinkId id) const {
  if (!id.valid() || id.value() >= links_.size()) {
    throw NotFoundError("invalid link handle");
  }
}

void MetaDatabase::DetachLinkFromAdjacency(LinkId id) {
  const Link& link = links_[id.value()];
  auto& out = adjacency_[link.from.value()].out;
  out.erase(std::remove(out.begin(), out.end(), id), out.end());
  auto& in = adjacency_[link.to.value()].in;
  in.erase(std::remove(in.begin(), in.end(), id), in.end());
  MarkAdjacencyDirty(link.from);
  MarkAdjacencyDirty(link.to);
}

void MetaDatabase::IndexOid(const Oid& oid, OidId id) {
  const size_t partition = OidIndex::PartitionOf(oid);
  by_oid_.Mutable(partition).emplace(oid, id);
  dirty_->MarkChunk(DirtyTable::kOidIndex, partition);
}

void MetaDatabase::UnindexOid(const Oid& oid) {
  const size_t partition = OidIndex::PartitionOf(oid);
  by_oid_.Mutable(partition).erase(oid);
  dirty_->MarkChunk(DirtyTable::kOidIndex, partition);
}

const std::vector<OidId>* MetaDatabase::FindChain(
    std::string_view block, std::string_view view) const {
  const SymbolId block_symbol = FindSymbol(block);
  const SymbolId view_symbol = FindSymbol(view);
  if (block_symbol == SymbolTable::kNoSymbol ||
      view_symbol == SymbolTable::kNoSymbol) {
    return nullptr;
  }
  return chains_.Find(ChainKey(block_symbol, view_symbol));
}

std::vector<OidId>& MetaDatabase::MutableChain(const MetaObject& object) {
  const uint64_t key = ChainKey(object.block, object.view);
  const size_t partition = ChainIndex::PartitionOf(key);
  dirty_->MarkChunk(DirtyTable::kChainIndex, partition);
  return chains_.Mutable(partition)[key];
}

void MetaDatabase::IndexConfig(const std::string& name, ConfigId id) {
  const size_t partition = ConfigIndex::PartitionOf(name);
  config_by_name_.Mutable(partition)[name] = id;
  dirty_->MarkChunk(DirtyTable::kConfigIndex, partition);
}

void MetaDatabase::UnindexConfig(const std::string& name) {
  const size_t partition = ConfigIndex::PartitionOf(name);
  config_by_name_.Mutable(partition).erase(name);
  dirty_->MarkChunk(DirtyTable::kConfigIndex, partition);
}

}  // namespace damocles::metadb
