#include "events/journal.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "metadb/oid.hpp"

namespace damocles::events {

EventJournal::PayloadKey EventJournal::MakePayloadKey(
    const EventMessage& event) {
  PayloadKey key;
  key.name = strings_.Intern(event.name);
  key.arg = strings_.Intern(event.arg);
  key.user = strings_.Intern(event.user);
  key.timestamp = event.timestamp;
  key.epoch = event.wave_epoch;
  key.direction = static_cast<uint8_t>(event.direction);
  if (!event.extra_args.empty()) {
    if (event.extra_args.size() > 0xFFFF) {
      throw Error("EventJournal: more than 65535 extra args on event '" +
                  event.name + "'");
    }
    key.extra_begin = static_cast<uint32_t>(extra_pool_.size());
    key.extra_count = static_cast<uint16_t>(event.extra_args.size());
    for (const std::string& extra : event.extra_args) {
      extra_pool_.push_back(strings_.Intern(extra));
    }
  }
  return key;
}

EventJournal::TargetSymbols EventJournal::InternTarget(std::string_view block,
                                                      std::string_view view) {
  TargetSymbols symbols;
  symbols.block = strings_.Intern(block);
  symbols.view = strings_.Intern(view);
  return symbols;
}

EventJournal::Row EventJournal::RowFromKey(const PayloadKey& key,
                                           TargetSymbols target,
                                           int32_t version) {
  Row row;
  row.name = key.name;
  row.block = target.block;
  row.view = target.view;
  row.arg = key.arg;
  row.user = key.user;
  row.version = version;
  row.timestamp = key.timestamp;
  row.epoch = key.epoch;
  row.extra_begin = key.extra_begin;
  row.extra_count = key.extra_count;
  row.direction = key.direction;
  return row;
}

EventJournal::Row EventJournal::MakeRow(const EventMessage& event,
                                        const metadb::Oid& target) {
  // The per-event form keys the payload, then assembles the row
  // exactly like the seed-batch path does.
  const PayloadKey key = MakePayloadKey(event);
  Row row = RowFromKey(key, InternTarget(target.block, target.view),
                       target.version);
  row.origin = static_cast<uint8_t>(event.origin);
  return row;
}

void EventJournal::Record(const EventMessage& event) {
  rows_.push_back(MakeRow(event, event.target));
}

void EventJournal::RecordPropagated(const EventMessage& event,
                                    const metadb::Oid& target) {
  // The substitute target is interned directly — the shared payload's
  // own target (the wave origin) never touches the side table here.
  Row row = MakeRow(event, target);
  row.origin = static_cast<uint8_t>(EventOrigin::kPropagated);
  rows_.push_back(row);
}

void EventJournal::RecordPropagated(const PayloadKey& key, metadb::OidId slot,
                                    std::string_view block,
                                    std::string_view view, int32_t version) {
  if (slot.value() >= target_symbols_.size()) {
    target_symbols_.resize(slot.value() + 1);
  }
  TargetSymbols& symbols = target_symbols_[slot.value()];
  if (symbols.block == SymbolTable::kNoSymbol) {
    symbols = InternTarget(block, view);
  }
  Row row = RowFromKey(key, symbols, version);
  row.origin = static_cast<uint8_t>(EventOrigin::kPropagated);
  rows_.push_back(row);
}

EventMessage EventJournal::Materialize(const Row& row) const {
  EventMessage event;
  event.name = strings_.Text(row.name);
  event.direction = static_cast<Direction>(row.direction);
  event.target.block = strings_.Text(row.block);
  event.target.view = strings_.Text(row.view);
  event.target.version = row.version;
  event.arg = strings_.Text(row.arg);
  event.user = strings_.Text(row.user);
  event.timestamp = row.timestamp;
  event.wave_epoch = row.epoch;
  event.origin = static_cast<EventOrigin>(row.origin);
  event.extra_args.reserve(row.extra_count);
  for (uint16_t i = 0; i < row.extra_count; ++i) {
    event.extra_args.push_back(strings_.Text(extra_pool_[row.extra_begin + i]));
  }
  return event;
}

JournalRecord EventJournal::At(size_t index) const {
  if (index >= rows_.size()) {
    throw NotFoundError("EventJournal::At: index " + std::to_string(index) +
                        " out of range (size " + std::to_string(rows_.size()) +
                        ")");
  }
  return JournalRecord{index, Materialize(rows_[index])};
}

void EventJournal::Clear() {
  rows_.clear();
  extra_pool_.clear();
  target_symbols_.clear();
  strings_ = SymbolTable();
  ++clears_;
}

std::vector<EventMessage> EventJournal::ExternalTrace() const {
  std::vector<EventMessage> trace;
  for (const Row& row : rows_) {
    const auto origin = static_cast<EventOrigin>(row.origin);
    if (origin == EventOrigin::kExternal || origin == EventOrigin::kSystem) {
      trace.push_back(Materialize(row));
    }
  }
  return trace;
}

std::string EventJournal::Dump() const {
  std::string text;
  for (size_t i = 0; i < rows_.size(); ++i) {
    text += std::to_string(i);
    text += ": [";
    text += EventOriginName(static_cast<EventOrigin>(rows_[i].origin));
    text += "] ";
    text += FormatEvent(Materialize(rows_[i]));
    text += "\n";
  }
  return text;
}

}  // namespace damocles::events
