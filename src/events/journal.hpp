// Append-only journal of design events.
//
// Keeps the full audit trail the tracking system needs: every event the
// engine processed, in order, with its origin. Supports replay — feeding
// a recorded trace back through a fresh engine must reproduce identical
// meta-data, which the determinism tests rely on.
//
// Storage is allocation-free on the hot path: records are packed
// integer rows whose string fields (event name, target block/view, arg,
// user, extra args) are interned through a journal-owned side table, so
// recording a delivery costs a few transparent string_view hash probes
// and one vector push — no string copies. Propagated deliveries use
// RecordPropagated, which journals the shared wave payload with a
// per-delivery target without ever materializing an EventMessage, and
// caches each target slot's interned block/view.
// Accessors (At / ExternalTrace / Dump) rebuild full messages from the
// side table on demand; their output is byte-identical to the
// historical string-storing journal.
//
// The journal knows nothing of durability: a durable server's checkpoint
// cut copies the rows added since the last cut into the WAL
// (events/wal.hpp, WalWriter::SyncJournal), on the applying thread while
// the engine is drained.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol.hpp"
#include "events/event.hpp"
#include "metadb/ids.hpp"

namespace damocles::events {

/// One materialized journal record: an event plus its position in
/// processing order.
struct JournalRecord {
  size_t sequence = 0;
  EventMessage event;
};

/// In-memory audit journal over interned compact rows.
class EventJournal {
 public:
  /// Appends a record; sequence numbers are assigned densely from 0.
  void Record(const EventMessage& event);

  /// Move overload kept for API continuity; interning never steals the
  /// strings, so it simply forwards to the const-ref form.
  void Record(EventMessage&& event) { Record(event); }

  /// Journals one propagated delivery of a shared wave payload:
  /// `event`'s fields with `target` substituted and the origin forced
  /// to kPropagated. The wave hot path calls this once per delivery;
  /// no EventMessage is constructed.
  void RecordPropagated(const EventMessage& event, const metadb::Oid& target);

  /// A wave payload's shared row fields, interned once. The wave engine
  /// builds one key per wave (seed batch) and journals every delivery
  /// through it, so the per-delivery cost drops to interning the target
  /// block/view — the payload's name/arg/user/extra args never re-hash.
  /// Keys index this journal's side table and are invalidated by
  /// Clear(); they are wave-scoped scratch, never stored.
  struct PayloadKey {
    SymbolId name = 0;
    SymbolId arg = 0;
    SymbolId user = 0;
    int64_t timestamp = 0;
    uint64_t epoch = 0;
    uint32_t extra_begin = 0;
    uint16_t extra_count = 0;
    uint8_t direction = 0;
  };

  /// Interns `event`'s shared fields (extra args included) into this
  /// journal and returns the reusable key.
  PayloadKey MakePayloadKey(const EventMessage& event);

  /// Seed-batch row append: journals one propagated delivery of the
  /// payload behind `key` at the OID <block.view.version>, whose
  /// meta-database slot is `slot`. The target's interned (block, view)
  /// pair is cached per slot until Clear(), so a repeat delivery
  /// interns nothing. A slot must always name the same OID
  /// (meta-database slots are never reused).
  void RecordPropagated(const PayloadKey& key, metadb::OidId slot,
                        std::string_view block, std::string_view view,
                        int32_t version);

  /// Materializes record `index` (bounds-checked; throws NotFoundError).
  JournalRecord At(size_t index) const;

  size_t Size() const noexcept { return rows_.size(); }
  bool Empty() const noexcept { return rows_.empty(); }

  /// Drops all records, the side string table and the per-slot target
  /// symbol cache, and bumps clears().
  void Clear();

  /// How many times Clear() ran. A reader that copied rows out (the
  /// WAL's row streams) compares it to tell "rows were added" from
  /// "the journal restarted".
  uint64_t clears() const noexcept { return clears_; }

  /// Returns only the externally originated events — the trace to feed a
  /// fresh engine for replay (rule/propagation events are re-derived).
  std::vector<EventMessage> ExternalTrace() const;

  /// Multi-line dump for diagnostics, one record per line.
  std::string Dump() const;

  /// The side string table (gauge: distinct strings across all records).
  const SymbolTable& strings() const noexcept { return strings_; }

  /// One packed record row. 48 bytes vs. the 4 strings + vector an
  /// EventMessage carries; extra args overflow into a shared pool.
  /// Public (read-only, via RawRow) so the WAL can encode rows without
  /// materializing an EventMessage per row.
  struct Row {
    SymbolId name = 0;
    SymbolId block = 0;
    SymbolId view = 0;
    SymbolId arg = 0;
    SymbolId user = 0;
    int32_t version = 0;
    int64_t timestamp = 0;
    uint64_t epoch = 0;  ///< Wave scope (EventMessage::wave_epoch).
    uint32_t extra_begin = 0;
    uint16_t extra_count = 0;
    uint8_t direction = 0;
    uint8_t origin = 0;
  };

  // --- Raw access (durability layer) --------------------------------------

  /// Raw row access (no bounds check; callers index < Size()).
  const Row& RawRow(size_t index) const noexcept { return rows_[index]; }

  /// Text behind an interned id (throws NotFoundError on unknown ids).
  const std::string& SymbolText(SymbolId id) const { return strings_.Text(id); }

  /// Extra-arg pool access (no bounds check).
  SymbolId ExtraPoolAt(uint32_t index) const noexcept {
    return extra_pool_[index];
  }

 private:
  /// A delivery target's interned block and view.
  struct TargetSymbols {
    SymbolId block = SymbolTable::kNoSymbol;
    SymbolId view = SymbolTable::kNoSymbol;
  };

  /// Interns a target's block, then its view.
  TargetSymbols InternTarget(std::string_view block, std::string_view view);

  /// The one row-assembly path: fills a row from an interned payload
  /// key plus the delivery target's interned block/view and version.
  /// Origin is left at the caller's discretion.
  static Row RowFromKey(const PayloadKey& key, TargetSymbols target,
                        int32_t version);

  /// Builds a row for `event` delivered at `target` (the caller picks
  /// the payload's own target or a per-delivery substitute, so no field
  /// is interned twice). Throws Error past 65535 extra args — the row's
  /// count field is 16-bit and truncating an audit record is worse.
  Row MakeRow(const EventMessage& event, const metadb::Oid& target);
  EventMessage Materialize(const Row& row) const;

  SymbolTable strings_;
  std::vector<Row> rows_;
  std::vector<SymbolId> extra_pool_;
  /// RecordPropagated's target symbols by meta-database slot.
  std::vector<TargetSymbols> target_symbols_;
  uint64_t clears_ = 0;
};

}  // namespace damocles::events
