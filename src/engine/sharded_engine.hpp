// The sharded wave engine: parallel change propagation over
// block-subtree shards.
//
// The run-time engine keeps per-delivery cost flat (integer-keyed
// receiver lookups, compiled rule tables, copy-free payloads); what is
// left is single-threaded wave throughput. The paper's propagation
// model is naturally partitionable: a wave confined to one block
// subtree never touches another, so independent subtrees can process
// waves concurrently. This layer owns N per-shard RunTimeEngines over
// ONE shared meta-database and
//  * routes intake: PostEvent resolves the target's shard through the
//    metadb::ShardMap (use-link subtree roots, dealt round-robin) and
//    enqueues the event on that shard's bounded lock-free MPSC ring —
//    intake never blocks on wave execution;
//  * runs executors (worker threads, and any thread inside Drain) that
//    occupy one lane at a time and drain its ring FIFO through its shard
//    engine, so delivery order *within a shard* is byte-identical to the
//    unsharded engine;
//  * hands cross-shard waves off BATCHED: when a delivery's receiver
//    set spans shards (a derive link between blocks of different
//    subtrees — the PropagationIndex surfaces the receiver, the
//    WaveRouter detects the foreign shard), the foreign receivers
//    aggregate per (wave epoch, target shard) — however they interleave
//    — and re-enter the target shard as ONE seeded sub-wave per shard
//    (RunTimeEngine::DeliverSeededWave), split into FIFO chunks above
//    max_batch_seeds; epochs identify wave payloads, so no payload
//    comparison is ever needed;
//  * re-routes rule-posted events ('post ... to <View>') from each
//    shard engine's local queue back through sharded intake after every
//    task, preserving the relative order a single queue would produce.
//
// Exactly-once waves. Every top-level wave gets a global WaveEpoch
// ticket minted at intake (and every direction-posted sub-wave its own
// — it opens a fresh visited universe in the unsharded engine too); all
// cross-shard sub-waves of a wave carry the epoch in their payload.
// Delivery is arbitrated per (epoch, OID) by the receiver's OWNING
// shard, one batched claim round per BFS generation: the claims live
// in per-shard ClaimStores, which only the executor occupying the
// owning shard's lane writes. A store keeps one open-addressed OID-slot
// set per epoch, taken from a per-store pool, so a warm claim round
// allocates nothing.
// Foreign receivers are handed off unclaimed, and the claim at the
// target collapses however many sub-waves reach an OID into one
// delivery. Retired epochs are merged out lazily: claim sets below the
// globally lowest in-flight epoch drop back into their store's pool on
// a later claim round. Epochs are pinned per task in a dense table,
// and minting an epoch pins it in the same critical section, so every
// epoch below the lowest pinned one has completed and no live epoch's
// claims are purged. The hop cap is thereby a backstop against runaway
// chains of *distinct* OIDs, not a termination patch — cross-shard
// cycles terminate through the claims exactly like the single visited
// set of an unsharded wave.
//
// One executor per lane. Top-level events and sub-waves queue
// separately — an occupant runs sub-waves first — but both queues are
// single-consumer under the lane's busy flag: every task of a shard
// runs on the one executor occupying its lane, through the lane's
// engine, so per-shard FIFO for top-level waves is structural. Each OID
// belongs to one shard, so two executors never deliver to the same OID
// at once and rule execution needs no per-OID lock.
//
// One propagation index. A wave's receivers follow from the link graph
// alone, whichever shard runs the wave, so every lane's engine expands
// through ONE PropagationIndex (1× the link graph for any shard count).
// Lane 0's engine owns it and keeps it current exactly as a plain
// engine does: its link-observer callbacks maintain it and its
// LoadBlueprint rebuilds it. The other engines borrow it. Sharing is
// safe because the index is keyed by the database's one symbol table,
// which executors only look up, and because only structural calls,
// which first wait for quiescence, change links: during a drain the
// index is read-only. A shard-map union or rebalance never touches it.
//
// The journal is the synchronization point: each shard engine journals
// its own deliveries under dense per-shard sequence numbers, and the
// merged views below stitch them together. Differential guarantees:
//  * num_shards = 1 is journal-byte-identical to a plain RunTimeEngine
//    (no router is installed, so not even the Owns() probe is paid, and
//    intake skips the shard lookup). ProjectServer runs every server on
//    this class and runs one shard deterministically: a single lane
//    has one possible order, so it needs no ring and no worker thread;
//  * for N > 1 the multiset of journal records equals the 1-shard run
//    — including reconvergent topologies where one wave reaches an OID
//    through two shards (the epoch claim delivers it once); only the
//    interleaving *across* shards differs.
// ShardedEngineOptions::deterministic = true disables the worker pool:
// tasks execute on the calling thread ordered by (wave epoch, intake
// ticket) — all of a wave's reachable work completes before the next
// wave's, mirroring the wave atomicity of the single FIFO queue — so
// differential tests get a reproducible schedule.
//
// Threading contract: PostEvent may be called from any thread (intake
// is lock-free until a ring overflows); Drain and AwaitQuiescence from
// one coordinating thread at a time, holding no lock a task could need.
// Everything structural — LoadBlueprint, OnCreateObject / OnCreateLink,
// direct MetaDatabase mutations, Rebalance, journal/stat accessors —
// needs a quiescent engine. This class's structural entry points call
// AwaitQuiescence first, so batch-mode callers may check in or link
// right after posting; direct database mutators call it themselves.
// Waiting is executing: AwaitQuiescence runs free lanes' tasks on the
// calling thread, and once every remaining task is held by another
// executor it sleeps until none is pending. While it helps, the thread
// is a wave executor like a worker: a structural call from inside a
// task returns without waiting, a new symbol cannot be interned, and a
// task exception terminates. Executors write only per-shard engine
// state and the properties of OIDs in the waves of the lane they occupy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "engine/run_time_engine.hpp"
#include "metadb/shard_map.hpp"

namespace damocles::engine {

/// Tuning knobs for the sharded engine.
struct ShardedEngineOptions {
  /// Number of shards (and worker threads). 1 reproduces a plain
  /// RunTimeEngine's journal exactly.
  uint32_t num_shards = 1;

  /// Execute tasks on the calling thread in global intake-ticket order
  /// instead of on the worker pool (differential testing; fully
  /// reproducible schedules).
  bool deterministic = false;

  /// Per-shard ring capacity (rounded up to a power of two). Overflow
  /// falls back to a locked deque so producers never deadlock.
  size_t queue_capacity = 1024;

  /// Worker threads servicing the shard lanes. 0 = auto:
  /// min(num_shards, hardware cores). Executors occupy one lane at a
  /// time (per-shard FIFO holds with any count), so fewer workers than
  /// shards degrades gracefully; a draining thread executes besides.
  size_t worker_threads = 0;

  /// Backstop cap on cross-shard handoff chains. Cycles terminate
  /// through the per-wave (epoch, OID) claims — an OID is delivered
  /// once per wave no matter how often the wave re-enters its shard —
  /// so this only stops pathological chains of *distinct* OIDs
  /// snaking across shards; a wave that exceeds this many hops is
  /// dropped and counted (stats().handoff_waves_truncated — the
  /// sharded analogue of max_wave_deliveries). Legitimate chains are
  /// bounded by the number of subtree crossings, far below this.
  uint32_t max_handoff_hops = 64;

  /// Upper bound on seeds per handoff task (0 = unbounded). Handoff
  /// seeds aggregate per (wave epoch, target shard), so a wave whose
  /// foreign receivers interleave across shards posts ONE seeded
  /// sub-wave per target shard; a batch larger than this is split into
  /// consecutive FIFO chunks, which bounds task granularity so a batch
  /// larger than the intake ring spills cleanly instead of wedging one
  /// giant task.
  size_t max_batch_seeds = 1024;

  /// Options forwarded to every per-shard engine.
  EngineOptions engine;
};

/// Counters the sharded layer maintains (per-shard engine counters live
/// in each shard's EngineStats; AggregateEngineStats sums them).
struct ShardedStats {
  size_t events_posted = 0;    ///< External events routed through intake.
  size_t tasks_processed = 0;  ///< Queue events + handoff waves executed.
  size_t handoff_waves = 0;    ///< Cross-shard sub-wave tasks enqueued.
  size_t handoff_seeds = 0;    ///< Receivers carried by those tasks (the
                               ///< batching win: seeds per task).
  size_t seed_batch_splits = 0;  ///< Extra chunks created when a batch
                                 ///< exceeded max_batch_seeds.
  size_t stolen_subwaves = 0;  ///< Always 0: every sub-wave runs on its
                               ///< lane's occupant. Kept for readers of
                               ///< the old counter.
  size_t inline_tasks = 0;  ///< Tasks a draining thread ran itself.
  uint64_t claim_purge_floor = 0;  ///< Gauge: highest epoch below which
                                   ///< some shard's ClaimStore has
                                   ///< merged out completed waves (the
                                   ///< epoch-versioned read path's
                                   ///< published version; 0 with one
                                   ///< shard or before the first
                                   ///< merge-out).
  size_t handoff_waves_truncated = 0;  ///< Dropped at max_handoff_hops.
  size_t reposted_events = 0;  ///< Rule-posted events re-routed at intake.
  size_t ring_overflows = 0;   ///< Pushes that took the fallback deque.
  size_t rebalances = 0;       ///< Shard-map rebalance passes (from the
                               ///< map's own stats; survives ResetStats).
  size_t wave_epochs = 0;      ///< Wave scopes minted (top-level waves +
                               ///< direction-posted sub-waves).
  size_t index_entries = 0;    ///< Gauge: live entries of the shared
                               ///< propagation index (1× the link graph).
  size_t claim_sets_live = 0;  ///< Gauge: per-epoch claim sets the claim
                               ///< stores hold, in use or pooled (0 with
                               ///< one shard). Bounded by the purge cadence
                               ///< and pool cap, not by waves run.
};

/// N per-shard engines + shard map + intake queues + worker pool.
class ShardedEngine {
 public:
  ShardedEngine(metadb::MetaDatabase& db, SimClock& clock,
                ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Structural operations (quiescent engine only) --------------------
  // Each of these first waits for every queued task to finish.

  /// Runs queued tasks on the calling thread until none is queued or
  /// running (threaded mode), without counting as a Drain. No-op in
  /// deterministic mode and inside a task. The coordinating thread only;
  /// a task exception terminates, as on a worker.
  void AwaitQuiescence() noexcept;

  /// Installs the blueprint on every shard engine (deep copies; each
  /// engine compiles its own rule tables, all keyed by the database's
  /// symbols); lane 0's engine rebuilds the shared index.
  /// `policy_version` stamps the PolicyStore commit the blueprint came
  /// from (0 = direct install); every shard's compiled generation
  /// carries it, so live rebinds stay version-traceable per shard.
  void LoadBlueprint(const blueprint::Blueprint& blueprint,
                     uint64_t policy_version = 0);

  /// Parses rule-file text and installs it. Throws ParseError.
  void LoadBlueprintText(std::string_view text, uint64_t policy_version = 0);

  /// PolicyStore version id the installed blueprint was compiled from
  /// (0 = unversioned); identical across shards by construction.
  uint64_t policy_version() const;

  /// Creation notifications, template application included. Delegated
  /// to shard 0's engine: template application only mutates the shared
  /// meta-database, so any engine produces identical meta-data.
  metadb::OidId OnCreateObject(std::string_view block, std::string_view view,
                               std::string_view user);
  metadb::LinkId OnCreateLink(metadb::LinkKind kind, metadb::OidId from,
                              metadb::OidId to);

  // --- Intake and execution ---------------------------------------------

  /// Routes an event to its target's shard and enqueues it. Lock-free
  /// until the ring overflows. Safe from multiple threads.
  void PostEvent(events::EventMessage event);

  /// Processes every queued event (and every task it spawned), helping
  /// the workers like AwaitQuiescence. Returns the number of tasks this
  /// drain processed. One drainer at a time (the coordinating thread);
  /// PostEvent from other threads stays safe during a drain.
  size_t Drain();

  /// Rebalances the shard map if a use-link removal/move dirtied it
  /// (subtree re-parenting). Structural: call only while quiescent. A
  /// stale map never loses events — waves crossing a stale boundary
  /// ride the handoff path — it only costs locality until rebalanced.
  /// The shared propagation index does not depend on shard assignment,
  /// so a rebalance leaves it untouched.
  void RebalanceShards();

  // --- Introspection -----------------------------------------------------

  uint32_t num_shards() const noexcept { return num_shards_; }
  /// Worker threads (0 in deterministic mode).
  size_t worker_threads() const noexcept { return workers_.size(); }
  RunTimeEngine& shard(uint32_t index);
  const RunTimeEngine& shard(uint32_t index) const;
  metadb::ShardMap& shard_map() noexcept { return shard_map_; }
  const metadb::ShardMap& shard_map() const noexcept { return shard_map_; }

  ShardedStats stats() const;

  /// Sums every shard engine's counters (max_wave_extent is the max).
  EngineStats AggregateEngineStats() const;

  /// Calls `fn` for every shard engine, in shard order.
  void ForEachEngine(const std::function<void(const RunTimeEngine&)>& fn) const;

  /// Every journal record across all shards as "[origin] <event>"
  /// lines (no sequence numbers), shard by shard. Sorting the result
  /// gives the multiset differential tests compare.
  std::vector<std::string> JournalLines() const;

  void ClearJournals();
  void ResetStats();

  // --- Durability hooks (events/wal.hpp, metadb/recovery.hpp) ------------

  /// Last minted wave epoch (0 when none yet): the value a checkpoint
  /// records so a recovered engine keeps minting past every epoch the
  /// crashed process ever issued.
  uint64_t epoch_ceiling() const noexcept;

  /// Restores the epoch counters from a checkpoint manifest. Call only
  /// while quiescent, before any post-recovery event is posted; throws
  /// Error while a deterministic engine still holds queued waves.
  void RestoreEpochCeiling(uint64_t next_epoch, size_t wave_epochs);

 private:
  struct Task;
  class TaskRing;
  struct Lane;
  class LaneRouter;
  class ClaimStore;

  uint32_t ShardOfTarget(const metadb::Oid& target) const;
  /// The one propagation index, owned by lane 0's engine.
  const PropagationIndex& SharedIndex() const;
  void Route(events::EventMessage event);
  void Enqueue(uint32_t shard, Task&& task);
  /// Runs `task` on `lane`'s engine, flushes its handoffs and reposted
  /// events into intake, then releases its epoch pin and pending count.
  void RunTask(Lane& lane, Task&& task);
  void DrainDeterministic();

  /// A worker: sweeps the lanes from its home lane, yields through a few
  /// empty sweeps, then parks.
  void WorkerLoop(size_t worker_index);

  /// Occupies `lane` if it has work and is free, runs a burst of its
  /// tasks (sub-waves first) and frees it; returns the tasks run. A
  /// searching worker stops searching when it takes one.
  size_t RunLaneBurst(Lane& lane, bool& searching);

  /// Worker parking, one atomic word per worker (Counters::searching).
  /// Park returns whether the worker is counted as searching again.
  bool AnyLaneHasWork();
  void WakeOneWorker();
  void StopSearching(bool& searching);
  bool Park(size_t worker_index, bool searching);

  /// The shared (epoch, OID) claim store arbitrating shard `shard`'s
  /// deliveries.
  ClaimStore& StoreOf(uint32_t shard);

  /// Mints the next wave-scope epoch (monotone from 1; 0 is reserved
  /// for "no scope") and pins it in the same critical section, so no
  /// claim round can read a purge horizon above an unpinned live epoch.
  /// Route hands the pin to the epoch's first task; a mid-task mint
  /// holds it until the task's handoffs are enqueued.
  uint64_t MintPinnedEpoch();

  /// Per-epoch in-flight pins: one per queued/executing task of the
  /// epoch plus one per mid-task mint. When an epoch's count drops to
  /// zero its wave is complete and every store may purge its claim set
  /// ("merged lazily"). Acquire only pins an epoch that is still live
  /// (the caller holds a pin on it).
  void AcquireEpochRef(uint64_t epoch);
  void ReleaseEpochRef(uint64_t epoch);

  /// Lowest epoch still in flight (UINT64_MAX when none): the lanes'
  /// lock-free purge horizon.
  uint64_t MinLiveEpoch() const noexcept;

  metadb::MetaDatabase& db_;
  SimClock& clock_;
  ShardedEngineOptions options_;
  uint32_t num_shards_;
  metadb::ShardMap shard_map_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Per-shard claim stores (N > 1 only: one shard needs no router).
  std::vector<std::unique_ptr<ClaimStore>> claim_stores_;
  std::vector<std::thread> workers_;

  // Threading state lives behind the Lane pimpl plus these counters;
  // see sharded_engine.cpp.
  struct Counters;
  std::unique_ptr<Counters> counters_;
  size_t last_drain_processed_ = 0;
};

}  // namespace damocles::engine
