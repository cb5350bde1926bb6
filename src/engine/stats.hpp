// Counters the run-time engine maintains while processing events.
//
// These feed the benchmark harness: the paper's "non-obstructive /
// light-weight" claim is quantified as per-activity tracking cost, and
// the selective-propagation claim as deliveries per wave.
#pragma once

#include <cstddef>

namespace damocles::engine {

struct EngineStats {
  // Event traffic.
  size_t events_processed = 0;      ///< Queue events fully processed.
  size_t external_events = 0;       ///< Of those, posted by wrappers.
  size_t rule_posted_events = 0;    ///< Events enqueued by post actions.
  size_t propagated_deliveries = 0; ///< OIDs reached by propagation waves.
  size_t dangling_events = 0;       ///< Events whose target OID is unknown.

  // Rule execution.
  size_t assign_actions = 0;
  size_t exec_actions = 0;
  size_t notify_actions = 0;
  size_t post_actions = 0;
  size_t reevaluations = 0;         ///< Continuous-assignment evaluations
                                    ///< actually performed.
  size_t settled_refreshes = 0;     ///< Refreshes skipped because the OID
                                    ///< was settled (RunTimeEngine::
                                    ///< RefreshComputedProperties).
  size_t property_writes = 0;       ///< Property values actually changed.

  // Template application.
  size_t objects_templated = 0;
  size_t links_templated = 0;
  size_t links_untemplated = 0;     ///< Created with no matching template.
  size_t links_carried = 0;         ///< Moved/copied to a new version.
  size_t properties_carried = 0;    ///< Copied/moved from previous version.

  // Propagation health.
  size_t waves_started = 0;
  size_t waves_truncated = 0;       ///< Hit the max-delivery safety cap.
  size_t max_wave_extent = 0;       ///< Largest single wave observed.
  size_t post_to_misses = 0;        ///< 'post ... to <View>' found no OID.

  // Wave expansion fast path.
  size_t wave_deliveries = 0;       ///< All deliveries (origin + propagated).
  size_t wave_batches = 0;          ///< BFS generations processed.
  size_t index_lookups = 0;         ///< Receiver sets served by the index.
  size_t links_scanned = 0;         ///< Links examined by fallback scans.

  // Interned hot path (symbol-keyed rule tables; see compiled_rules.hpp).
  size_t rule_table_hits = 0;       ///< Deliveries served a compiled rule set.
  size_t rule_table_misses = 0;     ///< Deliveries with no rules for the event.

  // Sharded execution (see sharded_engine.hpp; zero on unsharded engines).
  size_t handoff_receivers = 0;     ///< Receivers routed to another shard.
  size_t seeded_handoff_waves = 0;  ///< Cross-shard sub-waves delivered here.
  size_t dedup_suppressed = 0;      ///< Deliveries dropped by the per-wave
                                    ///< (epoch, OID) exactly-once claim: the
                                    ///< OID was already delivered to by
                                    ///< another sub-wave of the same wave.
  size_t claim_batches = 0;         ///< Batched (epoch, OID) claim calls: one
                                    ///< per BFS generation instead of one per
                                    ///< receiver, amortizing the claim-store
                                    ///< synchronization.

  /// Mean OIDs delivered to per propagation wave.
  double DeliveriesPerWave() const {
    return waves_started == 0
               ? 0.0
               : static_cast<double>(wave_deliveries) /
                     static_cast<double>(waves_started);
  }

  /// Folds another engine's counters into this one (the sharded engine
  /// aggregates its per-shard engines this way). Kept beside the field
  /// list so new counters get added here in the same edit; all counters
  /// sum except max_wave_extent, which takes the max.
  void Accumulate(const EngineStats& other) {
    events_processed += other.events_processed;
    external_events += other.external_events;
    rule_posted_events += other.rule_posted_events;
    propagated_deliveries += other.propagated_deliveries;
    dangling_events += other.dangling_events;
    assign_actions += other.assign_actions;
    exec_actions += other.exec_actions;
    notify_actions += other.notify_actions;
    post_actions += other.post_actions;
    reevaluations += other.reevaluations;
    settled_refreshes += other.settled_refreshes;
    property_writes += other.property_writes;
    objects_templated += other.objects_templated;
    links_templated += other.links_templated;
    links_untemplated += other.links_untemplated;
    links_carried += other.links_carried;
    properties_carried += other.properties_carried;
    waves_started += other.waves_started;
    waves_truncated += other.waves_truncated;
    if (other.max_wave_extent > max_wave_extent) {
      max_wave_extent = other.max_wave_extent;
    }
    post_to_misses += other.post_to_misses;
    wave_deliveries += other.wave_deliveries;
    wave_batches += other.wave_batches;
    index_lookups += other.index_lookups;
    links_scanned += other.links_scanned;
    rule_table_hits += other.rule_table_hits;
    rule_table_misses += other.rule_table_misses;
    handoff_receivers += other.handoff_receivers;
    seeded_handoff_waves += other.seeded_handoff_waves;
    dedup_suppressed += other.dedup_suppressed;
    claim_batches += other.claim_batches;
  }
};

}  // namespace damocles::engine
