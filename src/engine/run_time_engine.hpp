// The BluePrint run-time engine (paper §3.2) — the event-driven machine
// that is the paper's primary contribution.
//
// Responsibilities:
//  * template application: when the tracking system is informed of a new
//    OID or Link, attach the properties/links the blueprint prescribes
//    and carry values across versions (copy/move);
//  * event processing, strictly FIFO, with the paper's phase order:
//      1. assign rules           (property updates)
//      2. continuous assignments (re-evaluated)
//      3. exec rules             (wrapper scripts / notify)
//      4. post rules             (new events)
//      5. propagation            (event X plus direction-posted events)
//  * propagation: an event crosses a link iff the link's PROPAGATE list
//    names it and the link orientation matches the event direction; each
//    receiving OID runs its own rules and propagates further.
//
// Propagation fast path: wave expansion is served by a per-OID
// PropagationIndex keyed by (event, direction). An engine builds its own
// index when it is created and when a blueprint is installed, and keeps
// it current through MetaDatabase link-observer notifications (link add
// / delete / endpoint move / PROPAGATE change), so phase 5 asks one hash
// lookup per OID instead of scanning its adjacency and every link's
// PROPAGATE list. An engine can instead borrow another engine's index
// (the sharded engine's other lanes all borrow lane 0's).
// Waves are processed in batches (BFS generations): all receivers of a
// generation are collected and de-duplicated before any of their rules
// run, which keeps delivery order identical to the naive scan and lets
// stats report deliveries and batches per wave.
//
// Interned hot path: after intake the engine never hashes or compares a
// string. Names are ids of the meta-database's symbol table, the only
// symbol space: objects store view ids, blueprint install interns every
// rule and link-template name, and a queue event's name is looked up
// once per wave with FindSymbol, which never grows the table — a name
// no blueprint or link mentions matches no rule and no receiver. The
// propagation index is keyed by packed (OID, direction, SymbolId)
// integers; rule matching is served by per-(view, event) tables compiled
// at LoadBlueprint (blueprint/compiled_rules.hpp); the wave's visited set
// is an epoch-stamped vector pooled across waves; and one immutable
// event payload is shared across every delivery of a wave instead of
// being copied per OID. One option swaps the expansion step for testing:
// use_propagation_index = false scans adjacency lists instead of the
// index — the differential suites' reference oracle. Delivery order,
// and thus the journal, is byte-identical either way.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blueprint/ast.hpp"
#include "blueprint/compiled_rules.hpp"
#include "common/clock.hpp"
#include "common/symbol.hpp"
#include "engine/propagation_index.hpp"
#include "engine/script_executor.hpp"
#include "engine/stats.hpp"
#include "events/event.hpp"
#include "events/event_queue.hpp"
#include "events/journal.hpp"
#include "metadb/meta_database.hpp"

namespace damocles::engine {

/// Engine tuning knobs.
struct EngineOptions {
  /// Safety cap on deliveries within one propagation wave. A healthy
  /// blueprint never approaches this; a cyclic propagate-everything
  /// blueprint is stopped and counted in stats().waves_truncated.
  size_t max_wave_deliveries = 1u << 20;

  /// Record propagated deliveries in the journal (besides queue events).
  bool journal_propagated = true;

  /// Throw NotFoundError on events targeting unknown OIDs instead of
  /// counting them as dangling and moving on.
  bool strict_targets = false;

  /// Serve wave expansion from the per-OID propagation index instead of
  /// scanning adjacency lists. Off is the scan oracle the differential
  /// tests compare against; delivery order is identical either way.
  bool use_propagation_index = true;
};

/// Routes propagation receivers that live outside this engine's shard
/// and arbitrates exactly-once delivery across shards. The sharded
/// engine installs one per shard engine; unsharded engines run without
/// (every receiver is owned, the wave's own visited set suffices). See
/// sharded_engine.hpp.
class WaveRouter {
 public:
  virtual ~WaveRouter() = default;

  /// True when `receiver` is delivered by this engine.
  virtual bool Owns(metadb::OidId receiver) = 0;

  /// Takes over delivery of `event` to the foreign `receiver`. Called at
  /// most once per (sub-wave, receiver) — the sub-wave's local visited
  /// set already marked it — but sub-waves of one wave running on
  /// different shards may each hand the same receiver off; the target
  /// shard's (epoch, OID) claim collapses those to one delivery.
  /// `event` is only borrowed for the duration of the call.
  virtual void Handoff(metadb::OidId receiver,
                       const events::EventMessage& event) = 0;

  /// Mints a fresh wave-scope epoch. The engine opens a new scope for
  /// every direction-posted sub-wave (its own visited universe, exactly
  /// like the fresh visited set of the unsharded engine).
  virtual uint64_t MintEpoch() = 0;

  /// Claims a whole BFS generation for exactly-once delivery: removes
  /// from `seeds` every receiver another sub-wave of `epoch` already
  /// claimed (preserving order) and returns the number removed. Called
  /// only for receivers this engine owns. The batch is the claim
  /// primitive — the engine claims once per generation, so a router
  /// backed by a shared claim store pays one synchronization round per
  /// generation, not one per receiver.
  virtual size_t ClaimSeedBatch(uint64_t epoch,
                                std::vector<metadb::OidId>& seeds) = 0;
};

/// The run-time engine. Owns the FIFO queue and the journal; operates on
/// an externally owned meta-database (several engines can be pointed at
/// snapshots of the same project in tests).
class RunTimeEngine : private metadb::LinkObserver {
 public:
  using NotificationSink = std::function<void(const Notification&)>;

  /// With `index` null the engine builds and maintains its own
  /// propagation index. Otherwise it expands waves through `index`, a
  /// lent index over `db` that another engine maintains (the sharded
  /// engine lends lane 0's) and that must outlive this engine.
  RunTimeEngine(metadb::MetaDatabase& db, SimClock& clock,
                EngineOptions options = {},
                const PropagationIndex* index = nullptr);
  ~RunTimeEngine() override;

  RunTimeEngine(const RunTimeEngine&) = delete;
  RunTimeEngine& operator=(const RunTimeEngine&) = delete;

  // --- BluePrint lifecycle -------------------------------------------

  /// Installs (or replaces) the blueprint. Replacing rules mid-project
  /// is how the paper "loosens" tracking between phases; meta-data is
  /// untouched, only future events see the new rules. Call
  /// RetemplateLinks() afterwards to also refresh link annotations.
  /// Rule tables are recompiled and the propagation index rebuilt here.
  /// `policy_version` stamps the PolicyStore commit the blueprint came
  /// from (0 = direct/unversioned install); it travels with the
  /// compiled generation, so cached per-OID bindings rebind lazily to
  /// the new version without a stop-the-world reload.
  void LoadBlueprint(blueprint::Blueprint blueprint,
                     uint64_t policy_version = 0);

  /// Re-applies the current blueprint's link templates to every live
  /// link: PROPAGATE, TYPE and the carry policy are refreshed (links
  /// with no matching template keep their endpoints but propagate
  /// nothing). This is the meta-data half of "re-initializing the
  /// BluePrint mechanism" between project phases (paper §3.2). Returns
  /// the number of links touched.
  size_t RetemplateLinks();

  bool HasBlueprint() const noexcept { return blueprint_ != nullptr; }
  const blueprint::Blueprint& Current() const;

  /// Wires the script executor used by exec rules (may be null: exec
  /// actions are then counted but skipped).
  void SetScriptExecutor(ScriptExecutor* executor) noexcept {
    executor_ = executor;
  }

  /// Receives notify-action output (defaults to discarding).
  void SetNotificationSink(NotificationSink sink) {
    notification_sink_ = std::move(sink);
  }

  // --- Creation notifications (template rules) --------------------------

  /// Informs the engine that a design activity created a new version of
  /// (block, view). Creates the meta-object, applies property templates
  /// (default / copy / move), carries move/copy links over from the
  /// previous version and refreshes continuous assignments.
  metadb::OidId OnCreateObject(std::string_view block, std::string_view view,
                               std::string_view user);

  /// Informs the engine that a design activity created a link. The
  /// matching link template (looked up in the target's view, then the
  /// default view) supplies PROPAGATE / TYPE / carry.
  metadb::LinkId OnCreateLink(metadb::LinkKind kind, metadb::OidId from,
                              metadb::OidId to);

  // --- Event intake -----------------------------------------------------

  /// Queues an event (FIFO). Never grows the symbol table: the wave
  /// looks the name up when it runs.
  void PostEvent(events::EventMessage event);

  /// Processes the head event; returns false when the queue is empty.
  bool ProcessOne();

  /// Drains the queue; returns the number of queue events processed.
  size_t ProcessAll();

  /// Delivers `event` to `seeds` as a propagated sub-wave (the
  /// cross-shard handoff entry point): the seeds' rules run and the
  /// wave expands onward, but no queue record is written — each
  /// delivery journals as a propagated record, exactly as it would have
  /// inside the originating wave. No-op on empty seeds.
  void DeliverSeededWave(std::vector<metadb::OidId> seeds,
                         events::EventMessage event);

  /// Installs (or clears, with nullptr) the shard router consulted for
  /// every propagation receiver. The router must outlive the engine or
  /// be cleared before destruction.
  void SetWaveRouter(WaveRouter* router) noexcept { router_ = router; }

  // --- State access ------------------------------------------------------

  /// Re-evaluates all continuous assignments of one OID (exposed for
  /// callers that mutate properties directly, e.g. the query layer's
  /// what-if analysis). Skipped, and counted in
  /// EngineStats::settled_refreshes, when the OID is settled: an
  /// earlier refresh under the same blueprint reached a fixed point and
  /// the OID's properties have not changed since (same
  /// MetaObject::revision). Assignments read only their own OID's
  /// properties, builtins fixed per OID and the empty event's fields,
  /// so re-evaluating a settled OID would write nothing. OIDs whose
  /// assignments read $date never settle.
  void RefreshComputedProperties(metadb::OidId id);

  /// True when the next RefreshComputedProperties(id) would be skipped
  /// by the settled rule (test oracles read this).
  bool IsSettled(metadb::OidId id) const;

  metadb::MetaDatabase& database() noexcept { return db_; }
  const metadb::MetaDatabase& database() const noexcept { return db_; }
  events::EventQueue& queue() noexcept { return queue_; }
  const events::EventJournal& journal() const noexcept { return journal_; }
  /// Mutable journal access for the durability layer (events/wal.hpp):
  /// sink attachment and crash-recovery row restore. Engine code itself
  /// never mutates the journal through this.
  events::EventJournal& mutable_journal() noexcept { return journal_; }
  const EngineStats& stats() const noexcept { return stats_; }
  SimClock& clock() noexcept { return clock_; }
  const PropagationIndex& propagation_index() const noexcept {
    return *index_;
  }

  /// Oracle check of the propagation index against a snapshot of the
  /// database (primary form — published versions are handle-identical,
  /// so the index's buckets apply verbatim) or against the live
  /// database (compat overload).
  bool ConsistentWith(const metadb::Snapshot& snapshot,
                      std::string* diff = nullptr) const {
    return index_->ConsistentWith(snapshot, diff);
  }
  bool ConsistentWith(const metadb::MetaDatabase& db,
                      std::string* diff = nullptr) const {
    return index_->ConsistentWith(db, diff);
  }

  /// The rule tables compiled from the current blueprint.
  const blueprint::CompiledRules& compiled_rules() const noexcept {
    return compiled_;
  }

  /// PolicyStore version id the installed blueprint was compiled from
  /// (0 = unversioned).
  uint64_t policy_version() const noexcept {
    return compiled_.source_version();
  }

  /// Zeroes the statistics (benchmark warm-up support).
  void ResetStats() noexcept { stats_ = EngineStats{}; }

  /// Drops the audit journal (benchmark support: long measurement loops
  /// would otherwise accumulate unbounded records).
  void ClearJournal() { journal_.Clear(); }

 private:
  /// Epoch-stamped visited set: clearing between waves is one counter
  /// bump, not a hash-set teardown, and membership is one array probe.
  class WaveVisited {
   public:
    /// Starts a fresh wave over `slots` object slots.
    void Begin(size_t slots) {
      if (stamps_.size() < slots) stamps_.resize(slots, 0);
      if (++epoch_ == 0) {  // Epoch wrapped: stale stamps must die.
        std::fill(stamps_.begin(), stamps_.end(), 0u);
        epoch_ = 1;
      }
    }

    /// True when `slot` was not yet visited this wave (and marks it).
    bool Insert(uint32_t slot) {
      if (slot >= stamps_.size()) stamps_.resize(slot + 1, 0);
      if (stamps_[slot] == epoch_) return false;
      stamps_[slot] = epoch_;
      return true;
    }

   private:
    std::vector<uint32_t> stamps_;  ///< Epoch of last visit, by OID slot.
    uint32_t epoch_ = 0;
  };

  /// Direction-posted sub-waves nest (a post rule fires mid-wave), so
  /// visited sets are pooled by nesting depth; a lease hands out the
  /// set for the current depth and returns it on scope exit.
  struct VisitedLease {
    explicit VisitedLease(RunTimeEngine& owner)
        : engine(owner), set(owner.AcquireVisited()) {}
    ~VisitedLease() { --engine.visited_depth_; }
    VisitedLease(const VisitedLease&) = delete;
    VisitedLease& operator=(const VisitedLease&) = delete;

    RunTimeEngine& engine;
    WaveVisited& set;
  };

  /// A direction-posted event plus its pre-interned name, ready to seed
  /// a sub-wave without further string work.
  struct DirectionPost {
    events::EventMessage event;
    SymbolId name_sym = SymbolTable::kNoSymbol;
  };

  /// Per-OID engine state: its rule-table binding for the current
  /// compiled generation, and where its continuous assignments last
  /// reached a fixed point.
  struct OidBinding {
    uint32_t generation = 0;  ///< compiled_.generation() when resolved.
    blueprint::CompiledRules::Binding rules;
    /// compiled_.generation() and MetaObject::revision when a refresh
    /// last reached a fixed point (generation 0 = never).
    uint32_t settled_generation = 0;
    uint32_t settled_revision = 0;
  };

  // --- metadb::LinkObserver (propagation index maintenance) -------------
  void OnLinkAdded(metadb::LinkId id, const metadb::Link& link) override;
  void OnLinkRemoved(metadb::LinkId id, const metadb::Link& link) override;
  void OnLinkEndpointMoved(metadb::LinkId id, bool endpoint_from,
                           metadb::OidId old_endpoint,
                           const metadb::Link& link) override;
  void OnLinkPropagatesChanged(metadb::LinkId id,
                               const std::vector<std::string>& old_propagates,
                               const metadb::Link& link) override;

  WaveVisited& AcquireVisited();

  /// Launches the wrapper scripts collected during the wave that just
  /// completed (ProcessOne / DeliverSeededWave tails).
  void DispatchPendingExecs();

  /// Admits one propagation receiver: deduplicates against `visited`,
  /// then either appends it to `out` or hands it to the shard router
  /// when a router is installed and disowns it.
  void AdmitReceiver(metadb::OidId receiver, const events::EventMessage& event,
                     WaveVisited& visited, std::vector<metadb::OidId>& out);

  /// The slot's binding entry, unresolved (grows the cache on demand).
  OidBinding& SlotOf(metadb::OidId id);

  /// The rule-table binding of one OID's view, resolved lazily and
  /// cached by slot (re-resolved after blueprint reloads).
  const OidBinding& BindingOf(metadb::OidId id);

  /// Rule phases executed at one OID for one event, from the compiled
  /// tables (none without a blueprint). `event_sym` is the event name's
  /// database symbol. The event payload is shared — per-delivery fields
  /// ($oid, $block, ...) resolve from `target`, not the message.
  void RunRulesAt(metadb::OidId target, const events::EventMessage& event,
                  SymbolId event_sym,
                  std::vector<DirectionPost>& direction_posts);

  void ExecuteAssign(metadb::OidId target,
                     const blueprint::CompiledRules::CompiledAssign& assign,
                     const events::EventMessage& event);
  void ExecuteExec(metadb::OidId target, const blueprint::ActionExec& act,
                   const events::EventMessage& event);
  void ExecuteNotify(metadb::OidId target, const blueprint::ActionNotify& act,
                     const events::EventMessage& event);
  void ExecutePost(metadb::OidId target, const blueprint::ActionPost& act,
                   SymbolId posted_sym, const events::EventMessage& event,
                   std::vector<DirectionPost>& direction_posts);

  /// Wave engine: delivers `event` to every seed (and onward through
  /// qualifying links) with one shared visited set. `seeds_are_origin`
  /// marks seeds as queue-event targets (not propagated deliveries).
  /// Under a router every generation — the seed batch included — is run
  /// through one batched (epoch, OID) claim before any of its rules
  /// execute, so exactly-once holds across sub-waves with one claim
  /// round per generation. Processing is batched: each BFS generation's
  /// receivers are fully collected (and de-duplicated) before any of
  /// their rules run. The payload is borrowed for the whole wave, never
  /// copied per delivery.
  void ProcessWaveSeeded(std::vector<metadb::OidId> seeds,
                         bool seeds_are_origin,
                         const events::EventMessage& event,
                         SymbolId event_sym);

  /// Appends the receivers of `event` leaving `source` to `out`,
  /// skipping OIDs already in `visited` (which is updated). Served by
  /// the propagation index (keyed by `event_sym`) when enabled, by an
  /// adjacency scan otherwise; both produce the same order.
  void CollectReceivers(metadb::OidId source,
                        const events::EventMessage& event, SymbolId event_sym,
                        WaveVisited& visited, std::vector<metadb::OidId>& out);

  /// Variable resolver bound to one OID + one event. Borrows `event`
  /// (callers use the resolver synchronously); per-delivery fields
  /// resolve from `target`'s meta-object.
  blueprint::VariableResolver MakeResolver(
      metadb::OidId target, const events::EventMessage& event) const;

  /// Finds the nearest OIDs of `view` reachable from `start` in
  /// `direction` (BFS over links regardless of PROPAGATE).
  std::vector<metadb::OidId> FindNearestOfView(metadb::OidId start,
                                               events::Direction direction,
                                               std::string_view view);

  /// Mirrors a link's PROPAGATE list and TYPE into its queryable
  /// properties.
  static void AnnotateLink(metadb::Link& link);

  /// Writes `value` to the property named by database symbol `name`
  /// unless it already holds it; returns whether it wrote.
  bool SetPropertyCounted(metadb::OidId id, SymbolId name,
                          std::string_view value);

  metadb::MetaDatabase& db_;
  SimClock& clock_;
  EngineOptions options_;
  std::unique_ptr<blueprint::Blueprint> blueprint_;
  ScriptExecutor* executor_ = nullptr;
  WaveRouter* router_ = nullptr;
  NotificationSink notification_sink_;

  events::EventQueue queue_;
  events::EventJournal journal_;
  EngineStats stats_;

  /// Rule tables compiled from blueprint_. Its generation() bumps on
  /// every LoadBlueprint, which invalidates cached bindings and settled
  /// state alike.
  blueprint::CompiledRules compiled_;

  /// Per-OID-slot binding cache (rule tables and settled state).
  std::vector<OidBinding> bindings_;

  /// Visited-set pool, indexed by sub-wave nesting depth.
  std::vector<std::unique_ptr<WaveVisited>> visited_pool_;
  size_t visited_depth_ = 0;

  /// The engine's own receiver index for phase-5 wave expansion, when
  /// no index was lent: maintained via the LinkObserver callbacks above
  /// while options_.use_propagation_index is set (and rebuilt wholesale
  /// on LoadBlueprint).
  PropagationIndex own_index_;
  /// The index waves expand through: &own_index_ or the lent one.
  const PropagationIndex* index_;

  // Wrapper scripts are *launched* in rule phase 3 but their effects
  // arrive asynchronously (they are shell scripts talking back over the
  // network). We model that by collecting requests during the wave and
  // dispatching them once the wave has fully propagated; anything the
  // scripts post goes through the FIFO queue like any other activity.
  std::vector<ExecRequest> pending_execs_;
  // Re-entrancy guard: scripts invoked by the engine may call back into
  // ProcessAll (e.g. a wrapper checking data in); the nested call is a
  // no-op and the outer loop drains the queue.
  bool processing_ = false;
};

}  // namespace damocles::engine
