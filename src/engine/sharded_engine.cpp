#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/log.hpp"

namespace damocles::engine {

using events::EventMessage;
using metadb::Oid;
using metadb::OidId;

namespace {

/// True while the thread executes wave tasks (a worker, or a drainer
/// helping). A structural call made from inside a task (an exec rule's
/// tool checking in) must not wait for the task it runs in.
thread_local bool tls_on_worker = false;

/// Makes the calling thread a wave executor while alive: tls_on_worker
/// set and interning denied (executors read the database's symbol table
/// concurrently; only structural paths may grow it).
struct ExecutorScope {
  bool was_executor = std::exchange(tls_on_worker, true);
  bool was_denied = metadb::MetaDatabase::DenyInterning(true);
  ~ExecutorScope() {
    metadb::MetaDatabase::DenyInterning(was_denied);
    tls_on_worker = was_executor;
  }
};

constexpr size_t kLaneBurst = 64;  ///< Tasks per lane claim.
/// Empty sweeps a worker yields through before it parks: intake usually
/// refills within a scheduling quantum, and a yield is far cheaper than
/// a park/wake round trip.
constexpr int kIdleSweeps = 16;
constexpr uint32_t kAwake = 0;  ///< Worker parking word states.
constexpr uint32_t kParked = 1;

/// Smallest power of two >= n (and >= 4).
size_t RingCapacity(size_t n) {
  size_t capacity = 4;
  while (capacity < n) capacity <<= 1;
  return capacity;
}

}  // namespace

// --- Task & ring ------------------------------------------------------------

/// One unit of shard work: a routed queue event, or a cross-shard
/// sub-wave (seeds + shared payload).
struct ShardedEngine::Task {
  enum class Kind : uint8_t { kEvent, kSeededWave };

  Kind kind = Kind::kEvent;
  uint32_t hops = 0;  ///< Cross-shard handoffs behind this task.
  uint64_t ticket = 0;  ///< Global intake order (deterministic mode).
  /// The top-level wave this task transitively descends from — the
  /// deterministic scheduling key. Differs from event.wave_epoch for
  /// direction-posted sub-waves: they claim under their own epoch (a
  /// fresh visited universe) but schedule under their spawning wave, so
  /// a wave's reachable work — direction posts included — completes
  /// before the next wave starts, like the single FIFO queue.
  uint64_t order_epoch = 0;
  EventMessage event;
  std::vector<OidId> seeds;  ///< kSeededWave only.
};

/// Bounded Vyukov ring. Producers never lock; a full ring is reported
/// to the caller, which falls back to the lane's overflow deque so
/// intake can never deadlock on a saturated shard. One consumer at a
/// time: the lane's busy flag serializes claimants.
class ShardedEngine::TaskRing {
 public:
  explicit TaskRing(size_t capacity)
      : cells_(new Cell[capacity]), mask_(capacity - 1) {
    for (size_t i = 0; i < capacity; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  bool TryPush(Task&& task) {
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.task = std::move(task);
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // Full.
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer at a time (the lane's busy flag serializes
  /// claimants and publishes dequeue_pos_ between them).
  bool TryPop(Task& out) {
    const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.sequence.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
      return false;  // Empty.
    }
    out = std::move(cell.task);
    cell.task = Task{};  // Release payloads eagerly.
    cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate (racy reads are fine: idle wakeup predicate only).
  bool Empty() const {
    const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const Cell& cell = cells_[pos & mask_];
    return static_cast<intptr_t>(
               cell.sequence.load(std::memory_order_acquire)) -
               static_cast<intptr_t>(pos + 1) < 0;
  }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    Task task;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_;
  std::atomic<size_t> enqueue_pos_{0};
  std::atomic<size_t> dequeue_pos_{0};
};

// --- Shared counters --------------------------------------------------------

struct ShardedEngine::Counters {
  std::atomic<uint64_t> next_ticket{0};
  /// Enqueued but not yet finished tasks: the word a drainer with
  /// nothing left to run sleeps on until it reaches zero.
  std::atomic<size_t> pending{0};
  std::atomic<bool> stop{false};

  /// Per-worker parking words (kAwake / kParked), one line each.
  struct alignas(64) Parker {
    std::atomic<uint32_t> state{kAwake};
  };
  std::unique_ptr<Parker[]> parkers;
  /// Workers awake and looking for work. Enqueue wakes a parked worker
  /// only when none is; the last searcher to take a task wakes the next
  /// while work is queued, so a batch ramps to every worker. A parking
  /// worker leaves the count, then re-checks for work; a producer
  /// pushes, then reads the count. Every access is an acq_rel RMW, so
  /// one side sees the other: no lost wakeup, and no standalone fence
  /// (ThreadSanitizer does not model those).
  std::atomic<size_t> searching{0};

  std::atomic<size_t> events_posted{0};
  std::atomic<size_t> tasks_processed{0};
  std::atomic<size_t> handoff_waves{0};
  std::atomic<size_t> handoff_seeds{0};
  std::atomic<size_t> seed_batch_splits{0};
  std::atomic<size_t> inline_tasks{0};
  std::atomic<size_t> handoff_waves_truncated{0};
  std::atomic<size_t> reposted_events{0};
  std::atomic<size_t> ring_overflows{0};

  // --- Wave epochs (exactly-once dedup) ---------------------------------
  std::atomic<uint64_t> next_epoch{0};   ///< Last minted epoch (0 = none).
  std::atomic<size_t> wave_epochs{0};    ///< Minted, for stats.
  /// In-flight pins, dense from the lowest live epoch: live_epochs[i]
  /// counts the pins of epoch live_base + i. Every epoch is pinned in the
  /// critical section that mints it, so the table covers every minted
  /// epoch from live_base up with no gaps; a completed epoch in the
  /// middle holds a zero until the front reaches it. Releasing the
  /// front's last pin pops every leading zero, so live_base — published
  /// as min_live_epoch, the claim stores' purge horizon — is the lowest
  /// live epoch. A pin or release touches one counter and allocates
  /// nothing but the deque's block every 128 epochs. Guarded by
  /// epoch_mutex.
  std::mutex epoch_mutex;
  std::deque<uint32_t> live_epochs;
  uint64_t live_base = 0;
  std::atomic<uint64_t> min_live_epoch{~uint64_t{0}};
};

// --- Claim store ------------------------------------------------------------

/// One epoch's claimed OID slots in one store: an open-addressed
/// uint32_t set (linear probing, power-of-two capacity, grown at half
/// load) whose empty marker is OidId::kInvalidValue, a value no claimed
/// OID has. Clear() keeps the storage, so a recycled set claims without
/// allocating until it outgrows its capacity.
class ClaimSet {
 public:
  /// True when the set owns storage (in use, or pooled and empty).
  bool holds_storage() const noexcept { return capacity_ != 0; }

  /// Gives a storage-less set its first, empty storage.
  void Allocate() { Rehash(kInitialCapacity); }

  /// Adds `value`; false when it was already present.
  bool Insert(uint32_t value) {
    if ((size_ + 1) * 2 > capacity_) Rehash(capacity_ * 2);
    return Place(value);
  }

  /// Empties the set, keeping its storage.
  void Clear() noexcept {
    std::fill_n(slots_.get(), capacity_, kEmpty);
    size_ = 0;
  }

 private:
  static constexpr uint32_t kEmpty = OidId::kInvalidValue;
  static constexpr uint32_t kInitialCapacity = 32;

  bool Place(uint32_t value) noexcept {
    // Fibonacci hashing: the product's high bits spread dense OID slots
    // and their strided patterns alike.
    const uint32_t mask = capacity_ - 1;
    for (uint32_t i = (value * 0x9E3779B9u) >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == value) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = value;
        ++size_;
        return true;
      }
    }
  }

  void Rehash(uint32_t capacity) {
    const std::unique_ptr<uint32_t[]> old = std::exchange(
        slots_, std::make_unique_for_overwrite<uint32_t[]>(capacity));
    const uint32_t old_capacity = std::exchange(capacity_, capacity);
    shift_ = 32 - std::countr_zero(capacity);
    Clear();
    for (uint32_t i = 0; i < old_capacity; ++i) {
      if (old[i] != kEmpty) Place(old[i]);
    }
  }

  std::unique_ptr<uint32_t[]> slots_;
  uint32_t capacity_ = 0;
  uint32_t size_ = 0;
  int shift_ = 32;
};

/// The per-shard exactly-once claim map (epoch -> delivered OID slots).
/// Only the executor occupying the shard's lane claims here, one
/// batched round per BFS generation; the store mutex is contended only
/// by stats() readers (sets_held). The purge floor (the epoch below
/// which claim sets have been merged out) is an atomic any thread may
/// read without the lock; ShardedStats::claim_purge_floor surfaces it
/// and the ShardedFifo suite asserts it advances. Every multi-shard
/// engine claims here, deterministic ones included.
///
/// Claim sets sit in a deque indexed by epoch from its lowest entry. An
/// epoch takes a set from the store's pool at its first claim round
/// here; a purge clears the sets of epochs below the horizon and returns
/// them to the pool (up to kPooledSetsMax). After warm-up a claim round
/// allocates only when a set outgrows its pooled capacity, plus one
/// deque block every ~20 epochs, and a purge frees set memory only past
/// the pool cap, so executors rarely free what another one allocated.
///
/// Purging is safe because every epoch below any horizon ever read had
/// already completed. The horizon is the lowest pinned epoch; an epoch
/// is pinned in the critical section that mints it and stays pinned
/// while any task of it is queued or running, and a claimer reads the
/// horizon while holding a pin on its own epoch. So an epoch below the
/// horizon was minted earlier and had lost its last pin: none of its
/// work is left to claim.
class ShardedEngine::ClaimStore {
 public:
  /// Filters `seeds` down to the claim winners (preserving order) under
  /// one lock acquisition; returns the number suppressed. `horizon` is
  /// the caller's lowest-live-epoch snapshot, the merge-out bound.
  size_t ClaimBatch(uint64_t epoch, std::vector<OidId>& seeds,
                    uint64_t horizon) {
    std::lock_guard<std::mutex> lock(mutex_);
    MaybePurge(horizon);
    claims_since_purge_ += seeds.size();
    ClaimSet& set = SetOf(epoch);
    size_t suppressed = 0;
    auto keep = seeds.begin();
    for (const OidId seed : seeds) {
      if (set.Insert(seed.value())) {
        *keep++ = seed;
      } else {
        ++suppressed;
      }
    }
    seeds.erase(keep, seeds.end());
    return suppressed;
  }

  /// Lock-free view of the merge-out horizon (0 until the first purge).
  uint64_t purge_floor() const noexcept {
    return purge_floor_.load(std::memory_order_acquire);
  }

  /// Gauge: claim sets holding storage, in use or pooled.
  size_t sets_held() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sets_in_use_ + pool_.size();
  }

 private:
  /// `epoch`'s claim set, taken from the pool at its first claim round.
  ClaimSet& SetOf(uint64_t epoch) {
    if (by_epoch_.empty()) base_ = epoch;
    for (; epoch < base_; --base_) by_epoch_.emplace_front();
    if (epoch - base_ >= by_epoch_.size()) by_epoch_.resize(epoch - base_ + 1);
    ClaimSet& set = by_epoch_[epoch - base_];
    if (!set.holds_storage()) {
      if (pool_.empty()) {
        set.Allocate();
      } else {
        set = std::move(pool_.back());
        pool_.pop_back();
      }
      ++sets_in_use_;
    }
    return set;
  }

  /// Lazy merge-out. Rate-limited: when many epochs are pinned live (a
  /// deep cross-shard backlog) an eager scan would free nothing and
  /// turn every claim round into an O(live-epochs) traversal.
  void MaybePurge(uint64_t horizon) {
    if (claims_since_purge_ < kPurgeInterval &&
        (sets_in_use_ <= kPurgeEpochThreshold ||
         claims_since_purge_ < kPurgeSizeBackoff)) {
      return;
    }
    claims_since_purge_ = 0;
    for (; !by_epoch_.empty() && base_ < horizon; ++base_) {
      ClaimSet& set = by_epoch_.front();
      if (set.holds_storage()) {
        --sets_in_use_;
        if (pool_.size() < kPooledSetsMax) {
          set.Clear();
          pool_.push_back(std::move(set));
        }
      }
      by_epoch_.pop_front();
    }
    purge_floor_.store(horizon, std::memory_order_release);
  }

  /// Purge cadence: often enough that completed waves cannot pile up,
  /// rare enough to stay invisible next to rule execution. The size
  /// trigger fires at most once per kPurgeSizeBackoff claims.
  static constexpr size_t kPurgeInterval = 512;
  static constexpr size_t kPurgeEpochThreshold = 64;
  static constexpr size_t kPurgeSizeBackoff = 64;
  /// Pooled sets kept for reuse; a purge frees the sets past this. Twice
  /// the size trigger, so one purge's harvest fits.
  static constexpr size_t kPooledSetsMax = 2 * kPurgeEpochThreshold;

  mutable std::mutex mutex_;
  std::deque<ClaimSet> by_epoch_;  ///< by_epoch_[i]: epoch base_ + i.
  uint64_t base_ = 0;
  std::vector<ClaimSet> pool_;     ///< Cleared sets, storage kept.
  size_t sets_in_use_ = 0;         ///< Entries of by_epoch_ with storage.
  size_t claims_since_purge_ = 0;
  std::atomic<uint64_t> purge_floor_{0};
};

// --- Cross-shard router ------------------------------------------------------

/// Per-executor WaveRouter bound to one shard: answers ownership from
/// the shard map, arbitrates the per-wave (epoch, OID) exactly-once
/// claims for the OIDs the bound shard owns through that shard's
/// ClaimStore, and accumulates foreign receivers until the executor
/// flushes them as seeded sub-wave tasks after the current task
/// completes. Each lane's router stays bound to its lane for life.
///
/// Handoff batching: foreign receivers aggregate per (wave epoch,
/// target shard) in first-encounter order — the epoch uniquely
/// identifies the wave payload within a task, each direction post
/// minting its own — so a wave whose receivers interleave across shards
/// posts one aggregated sub-wave per shard.
class ShardedEngine::LaneRouter final : public WaveRouter {
 public:
  LaneRouter(ShardedEngine& owner, uint32_t shard)
      : owner_(owner), shard_(shard) {}

  bool Owns(OidId receiver) override {
    // Cache the lookup: Handoff(receiver) follows immediately when this
    // returns false (AdmitReceiver), so the foreign path walks the
    // shard map once, not twice.
    last_receiver_ = receiver;
    last_shard_ = owner_.shard_map_.ShardOf(receiver);
    return last_shard_ == shard_;
  }

  uint64_t MintEpoch() override {
    // The mint pin lasts the rest of the current task: claims under this
    // epoch begin immediately (direction-post collection), before any
    // handoff task of the epoch is enqueued. Released by the executor
    // after Flush().
    const uint64_t epoch = owner_.MintPinnedEpoch();
    minted_.push_back(epoch);
    return epoch;
  }

  size_t ClaimSeedBatch(uint64_t epoch, std::vector<OidId>& seeds) override {
    return owner_.StoreOf(shard_).ClaimBatch(epoch, seeds,
                                             owner_.MinLiveEpoch());
  }

  /// Epoch refs minted during the current task; the executor releases
  /// them once the task's handoffs are enqueued.
  std::vector<uint64_t> TakeMintedEpochs() {
    return std::exchange(minted_, {});
  }

  void Handoff(OidId receiver, const EventMessage& event) override {
    const uint32_t target = receiver == last_receiver_
                                ? last_shard_
                                : owner_.shard_map_.ShardOf(receiver);
    // One aggregated sub-wave per (epoch, target shard), regardless of
    // how receivers interleave. Runs of same-shard receivers are the
    // common case, so the last pending wave is checked before the map.
    // Shards fit in 16 bits (enforced at construction); the packed key
    // below cannot alias, and epochs are dense counters nowhere near
    // 2^48.
    if (!pending_.empty() && pending_.back().target_shard == target &&
        pending_.back().epoch == event.wave_epoch) {
      pending_.back().seeds.push_back(receiver);
      return;
    }
    const uint64_t key =
        (event.wave_epoch << 16) | static_cast<uint64_t>(target & 0xFFFF);
    const auto [it, inserted] =
        pending_index_.try_emplace(key, pending_.size());
    if (inserted) {
      pending_.push_back(PendingWave{target, event.wave_epoch, event, {}});
    }
    pending_[it->second].seeds.push_back(receiver);
  }

  /// Enqueues every accumulated sub-wave on its target shard, splitting
  /// batches larger than max_batch_seeds into consecutive FIFO chunks.
  /// Called by the executor between tasks (never mid-wave). `hops` is
  /// the handoff depth of the task that produced these waves,
  /// `order_epoch` its scheduling root (inherited so direction-post
  /// handoffs stay inside their spawning wave's deterministic slot). A
  /// chain past the configured hop cap is dropped — the backstop behind
  /// the (epoch, OID) claims.
  void Flush(uint32_t hops, uint64_t order_epoch) {
    const bool truncate = hops >= owner_.options_.max_handoff_hops;
    const size_t limit = owner_.options_.max_batch_seeds;
    for (PendingWave& wave : pending_) {
      if (truncate) {
        owner_.counters_->handoff_waves_truncated.fetch_add(
            1, std::memory_order_relaxed);
        Log::Warning("cross-shard wave truncated after " +
                     std::to_string(hops) + " handoffs (event '" +
                     wave.event.name + "')");
        continue;
      }
      owner_.counters_->handoff_seeds.fetch_add(wave.seeds.size(),
                                                std::memory_order_relaxed);
      const size_t chunks =
          limit == 0 ? 1 : (wave.seeds.size() + limit - 1) / limit;
      if (chunks > 1) {
        owner_.counters_->seed_batch_splits.fetch_add(
            chunks - 1, std::memory_order_relaxed);
      }
      for (size_t chunk = 0; chunk < chunks; ++chunk) {
        Task task;
        task.kind = Task::Kind::kSeededWave;
        task.hops = hops + 1;
        task.ticket = owner_.counters_->next_ticket.fetch_add(
            1, std::memory_order_relaxed);
        task.order_epoch = order_epoch;
        if (chunk + 1 == chunks) {
          task.event = std::move(wave.event);
        } else {
          task.event = wave.event;
        }
        if (chunks == 1) {
          task.seeds = std::move(wave.seeds);
        } else {
          const size_t begin = chunk * limit;
          const size_t end = std::min(begin + limit, wave.seeds.size());
          task.seeds.assign(wave.seeds.begin() + static_cast<ptrdiff_t>(begin),
                            wave.seeds.begin() + static_cast<ptrdiff_t>(end));
        }
        owner_.counters_->handoff_waves.fetch_add(1, std::memory_order_relaxed);
        // This task's own pin keeps the epoch live while the chunk pins it.
        owner_.AcquireEpochRef(wave.epoch);
        owner_.Enqueue(wave.target_shard, std::move(task));
      }
    }
    pending_.clear();
    pending_index_.clear();
  }

 private:
  struct PendingWave {
    uint32_t target_shard = 0;
    uint64_t epoch = 0;   ///< Payload identity within this task.
    EventMessage event;   ///< Snapshot of the payload.
    std::vector<OidId> seeds;
  };

  ShardedEngine& owner_;
  const uint32_t shard_;
  OidId last_receiver_;  ///< Owns() memo consumed by Handoff().
  uint32_t last_shard_ = 0;
  std::vector<PendingWave> pending_;  ///< First-encounter order.
  /// (epoch, target shard) -> pending_ slot.
  std::unordered_map<uint64_t, size_t> pending_index_;
  std::vector<uint64_t> minted_;  ///< Epoch refs held for this task.
};

// --- Lane -------------------------------------------------------------------

struct ShardedEngine::Lane {
  uint32_t shard = 0;
  std::unique_ptr<RunTimeEngine> engine;
  std::unique_ptr<LaneRouter> router;

  /// One FIFO of the lane (threaded mode): a lock-free ring with an
  /// overflow deque behind it. Once a push spills, later pushes follow
  /// until the consumer drains the deque, so FIFO order holds across the
  /// spill. Single consumer: the lane's occupant.
  struct Queue {
    explicit Queue(size_t capacity) : ring(capacity) {}

    /// Pushes onto the ring unless a spill is active; returns true when
    /// the task spilled.
    bool Push(Task&& task) {
      // Chaos hook: a hit spills as if the lock-free ring were full.
      common::FailpointHit hit;
      if (!DAMOCLES_FAILPOINT("sharded.ring.spill", &hit) &&
          !spilling.load(std::memory_order_acquire) &&
          ring.TryPush(std::move(task))) {
        return false;
      }
      std::lock_guard<std::mutex> lock(mutex);
      spilling.store(true, std::memory_order_release);
      spill.push_back(std::move(task));
      return true;
    }

    /// The ring first (older tasks), then the spill.
    bool Pop(Task& out) {
      if (ring.TryPop(out)) return true;
      if (!spilling.load(std::memory_order_acquire)) return false;
      std::lock_guard<std::mutex> lock(mutex);
      const bool popped = !spill.empty();
      if (popped) {
        out = std::move(spill.front());
        spill.pop_front();
      }
      if (spill.empty()) spilling.store(false, std::memory_order_release);
      return popped;
    }

    bool HasWork() {
      if (!ring.Empty()) return true;
      if (!spilling.load(std::memory_order_acquire)) return false;
      std::lock_guard<std::mutex> lock(mutex);
      return !spill.empty();
    }

    TaskRing ring;
    std::mutex mutex;
    std::deque<Task> spill;
    std::atomic<bool> spilling{false};
  };

  /// Top-level queue events and cross-shard sub-waves, queued apart so
  /// an occupant can run sub-waves first; null in deterministic mode.
  /// Both are single-consumer, so per-shard FIFO for top-level waves is
  /// structural and every task of the shard runs on its occupant.
  std::unique_ptr<Queue> events;
  std::unique_ptr<Queue> subwaves;

  /// Claim flag: at most one executor occupies a lane at a time, which
  /// keeps both queues single-consumer and the shard's top-level
  /// delivery order FIFO with any worker count.
  std::atomic<bool> busy{false};

  /// Deterministic-mode storage: a min-heap of tasks by (order epoch,
  /// ticket) over a reused vector, so the scheduler's pick is front()
  /// and a push or pop allocates nothing once the vector has grown.
  /// Tickets are globally unique, so keys never tie and the pop order is
  /// the keys' order. Guarded by ordered_mutex (intake may post from
  /// other threads).
  std::mutex ordered_mutex;
  std::vector<Task> ordered;

  /// Heap order for `ordered`: std::push_heap keeps the largest on top,
  /// so "less" here is "later".
  static bool Later(const Task& a, const Task& b) noexcept {
    return std::make_pair(a.order_epoch, a.ticket) >
           std::make_pair(b.order_epoch, b.ticket);
  }

  bool HasWork() {
    return events != nullptr && (events->HasWork() || subwaves->HasWork());
  }

  void Push(Task&& task, std::atomic<size_t>& overflow_counter) {
    if (events == nullptr) {  // Deterministic mode.
      std::lock_guard<std::mutex> lock(ordered_mutex);
      ordered.push_back(std::move(task));
      std::push_heap(ordered.begin(), ordered.end(), Later);
      return;
    }
    Queue& queue = task.kind == Task::Kind::kSeededWave ? *subwaves : *events;
    if (queue.Push(std::move(task))) {
      overflow_counter.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The occupant's next task: sub-waves first, since they complete
  /// in-flight epochs, which lowers the claim purge horizon.
  bool Pop(Task& out) {
    return events != nullptr && (subwaves->Pop(out) || events->Pop(out));
  }

  /// Deterministic mode: the lane's best (order epoch, ticket) key —
  /// root wave first, intake ticket within it — so the global scheduler
  /// finishes each wave's reachable work before the next wave starts,
  /// like the single FIFO queue would.
  bool PeekBest(std::pair<uint64_t, uint64_t>& key) {
    std::lock_guard<std::mutex> lock(ordered_mutex);
    if (ordered.empty()) return false;
    key = std::make_pair(ordered.front().order_epoch, ordered.front().ticket);
    return true;
  }

  /// Deterministic mode: removes the head task (the one PeekBest saw).
  /// Same-wave tasks keep their enqueue (ticket) order; only cross-wave
  /// tasks jump the line, which a single-threaded drain may freely do.
  void PopBest(Task& out) {
    std::lock_guard<std::mutex> lock(ordered_mutex);
    std::pop_heap(ordered.begin(), ordered.end(), Later);
    out = std::move(ordered.back());
    ordered.pop_back();
  }
};

// --- Construction -----------------------------------------------------------

ShardedEngine::ShardedEngine(metadb::MetaDatabase& db, SimClock& clock,
                             ShardedEngineOptions options)
    : db_(db),
      clock_(clock),
      options_(options),
      num_shards_(options.num_shards == 0 ? 1 : options.num_shards),
      shard_map_(db, num_shards_),
      counters_(std::make_unique<Counters>()) {
  if (num_shards_ > 0xFFFF) {
    // The handoff batching key packs the target shard into 16 bits
    // (LaneRouter::Handoff); aliasing shards would break exactly-once.
    throw Error("ShardedEngine: num_shards must be <= 65535");
  }
  lanes_.reserve(num_shards_);
  for (uint32_t shard = 0; shard < num_shards_; ++shard) {
    auto lane = std::make_unique<Lane>();
    lane->shard = shard;
    // Lane 0's engine builds and maintains the one propagation index,
    // exactly as a plain engine does; every other engine borrows it.
    lane->engine = std::make_unique<RunTimeEngine>(
        db_, clock_, options_.engine, shard == 0 ? nullptr : &SharedIndex());
    lane->router = std::make_unique<LaneRouter>(*this, shard);
    // With one shard no receiver can be foreign: skip the router (and
    // the claim store) so the engine does not even pay the Owns() probe
    // — num_shards = 1 is the plain engine, byte for byte.
    if (num_shards_ > 1) {
      lane->engine->SetWaveRouter(lane->router.get());
      claim_stores_.push_back(std::make_unique<ClaimStore>());
    }
    if (!options_.deterministic) {
      const size_t capacity = RingCapacity(options_.queue_capacity);
      lane->events = std::make_unique<Lane::Queue>(capacity);
      lane->subwaves = std::make_unique<Lane::Queue>(capacity);
    }
    lanes_.push_back(std::move(lane));
  }
  if (!options_.deterministic) {
    size_t worker_count = options_.worker_threads;
    if (worker_count == 0) {
      const size_t cores = std::max(1u, std::thread::hardware_concurrency());
      worker_count = std::min<size_t>(num_shards_, cores);
    }
    worker_count = std::min<size_t>(worker_count, num_shards_);
    counters_->parkers = std::make_unique<Counters::Parker[]>(worker_count);
    counters_->searching.store(worker_count, std::memory_order_relaxed);
    workers_.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i) {
      workers_.emplace_back(&ShardedEngine::WorkerLoop, this, i);
    }
  }
}

ShardedEngine::~ShardedEngine() {
  counters_->stop.store(true, std::memory_order_relaxed);
  // Joins the search chain: a parking worker sees stop, or is woken.
  counters_->searching.fetch_add(0, std::memory_order_acq_rel);
  for (size_t i = 0; i < workers_.size(); ++i) {
    counters_->parkers[i].state.store(kAwake, std::memory_order_release);
    counters_->parkers[i].state.notify_one();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

const PropagationIndex& ShardedEngine::SharedIndex() const {
  return lanes_.front()->engine->propagation_index();
}

ShardedEngine::ClaimStore& ShardedEngine::StoreOf(uint32_t shard) {
  return *claim_stores_[shard];
}

// --- Wave epochs -------------------------------------------------------------

uint64_t ShardedEngine::MintPinnedEpoch() {
  Counters& counters = *counters_;
  std::lock_guard<std::mutex> lock(counters.epoch_mutex);
  const uint64_t epoch =
      counters.next_epoch.load(std::memory_order_relaxed) + 1;
  counters.next_epoch.store(epoch, std::memory_order_relaxed);
  counters.wave_epochs.fetch_add(1, std::memory_order_relaxed);
  if (counters.live_epochs.empty()) {
    counters.live_base = epoch;
    counters.min_live_epoch.store(epoch, std::memory_order_release);
  }
  counters.live_epochs.push_back(1);  // Dense: epoch == live_base + size.
  return epoch;
}

uint64_t ShardedEngine::epoch_ceiling() const noexcept {
  return counters_->next_epoch.load(std::memory_order_relaxed);
}

void ShardedEngine::RestoreEpochCeiling(uint64_t next_epoch,
                                        size_t wave_epochs) {
  AwaitQuiescence();
  Counters& counters = *counters_;
  std::lock_guard<std::mutex> lock(counters.epoch_mutex);
  // The pin table is dense from the lowest live epoch up to the last
  // mint; moving the ceiling under a pinned epoch would break that.
  if (!counters.live_epochs.empty()) {
    throw Error("ShardedEngine::RestoreEpochCeiling: waves still queued");
  }
  counters.next_epoch.store(next_epoch, std::memory_order_relaxed);
  counters.wave_epochs.store(wave_epochs, std::memory_order_relaxed);
}

void ShardedEngine::AcquireEpochRef(uint64_t epoch) {
  Counters& counters = *counters_;
  std::lock_guard<std::mutex> lock(counters.epoch_mutex);
  ++counters.live_epochs[epoch - counters.live_base];
}

void ShardedEngine::ReleaseEpochRef(uint64_t epoch) {
  Counters& counters = *counters_;
  std::lock_guard<std::mutex> lock(counters.epoch_mutex);
  std::deque<uint32_t>& live = counters.live_epochs;
  if (--live[epoch - counters.live_base] != 0 ||
      epoch != counters.live_base) {
    return;  // The lowest live epoch did not change.
  }
  while (!live.empty() && live.front() == 0) {
    live.pop_front();
    ++counters.live_base;
  }
  counters.min_live_epoch.store(live.empty() ? ~uint64_t{0}
                                             : counters.live_base,
                                std::memory_order_release);
}

uint64_t ShardedEngine::MinLiveEpoch() const noexcept {
  return counters_->min_live_epoch.load(std::memory_order_acquire);
}

// --- Structural operations ---------------------------------------------------

void ShardedEngine::AwaitQuiescence() noexcept {
  if (options_.deterministic || tls_on_worker) return;
  const ExecutorScope scope;
  Counters& counters = *counters_;
  bool searching = false;  // A drainer never searches or parks.
  for (;;) {
    const size_t pending = counters.pending.load(std::memory_order_acquire);
    if (pending == 0) return;
    size_t ran = 0;
    for (auto& lane : lanes_) ran += RunLaneBurst(*lane, searching);
    if (ran > 0) {
      counters.inline_tasks.fetch_add(ran, std::memory_order_relaxed);
      continue;
    }
    // Every remaining task is held by another executor (which also runs
    // what those spawn): sleep until none is pending.
    counters.pending.wait(pending, std::memory_order_acquire);
  }
}

void ShardedEngine::LoadBlueprint(const blueprint::Blueprint& blueprint,
                                  uint64_t policy_version) {
  AwaitQuiescence();
  for (auto& lane : lanes_) {
    lane->engine->LoadBlueprint(blueprint.Clone(), policy_version);
  }
}

void ShardedEngine::LoadBlueprintText(std::string_view text,
                                      uint64_t policy_version) {
  LoadBlueprint(blueprint::ParseBlueprint(text), policy_version);
}

uint64_t ShardedEngine::policy_version() const {
  return lanes_.front()->engine->policy_version();
}

OidId ShardedEngine::OnCreateObject(std::string_view block,
                                    std::string_view view,
                                    std::string_view user) {
  AwaitQuiescence();
  return lanes_.front()->engine->OnCreateObject(block, view, user);
}

metadb::LinkId ShardedEngine::OnCreateLink(metadb::LinkKind kind, OidId from,
                                           OidId to) {
  AwaitQuiescence();
  return lanes_.front()->engine->OnCreateLink(kind, from, to);
}

// --- Intake -----------------------------------------------------------------

uint32_t ShardedEngine::ShardOfTarget(const Oid& target) const {
  if (num_shards_ == 1) return 0;
  if (const std::optional<OidId> id = db_.FindObject(target)) {
    return shard_map_.ShardOf(*id);
  }
  // Dangling target: hash the block name so the journal warning lands
  // on a stable shard regardless of sharding degree.
  return static_cast<uint32_t>(std::hash<std::string>{}(target.block) %
                               num_shards_);
}

void ShardedEngine::Route(EventMessage event) {
  if (event.timestamp == 0) event.timestamp = clock_.NowSeconds();
  // Every top-level event opens a fresh wave scope — rule-posted events
  // re-enter here and scope like the queue boundary of the unsharded
  // engine. Overwrites whatever epoch a reposted event inherited from
  // the wave that posted it. The mint pin becomes the task's pin.
  event.wave_epoch = num_shards_ > 1 ? MintPinnedEpoch() : 0;
  const uint32_t shard = ShardOfTarget(event.target);
  Task task;
  task.kind = Task::Kind::kEvent;
  task.ticket = counters_->next_ticket.fetch_add(1, std::memory_order_relaxed);
  // A top-level wave schedules under itself (reposted events included:
  // the single FIFO queue runs them after everything already queued).
  task.order_epoch = event.wave_epoch;
  task.event = std::move(event);
  Enqueue(shard, std::move(task));
}

void ShardedEngine::PostEvent(EventMessage event) {
  counters_->events_posted.fetch_add(1, std::memory_order_relaxed);
  Route(std::move(event));
}

void ShardedEngine::Enqueue(uint32_t shard, Task&& task) {
  counters_->pending.fetch_add(1, std::memory_order_acq_rel);
  // The caller pinned the task's epoch (Route at the mint, Flush for a
  // handoff) before it becomes visible to workers, so no store purges
  // the wave's claim sets mid-flight; RunTask releases the pin.
  lanes_[shard]->Push(std::move(task), counters_->ring_overflows);
  if (workers_.empty()) return;
  if (counters_->searching.fetch_add(0, std::memory_order_acq_rel) == 0) {
    WakeOneWorker();
  }
}

bool ShardedEngine::AnyLaneHasWork() {
  return std::any_of(lanes_.begin(), lanes_.end(),
                     [](const auto& lane) { return lane->HasWork(); });
}

void ShardedEngine::WakeOneWorker() {
  Counters& counters = *counters_;
  for (size_t i = 0; i < workers_.size(); ++i) {
    std::atomic<uint32_t>& state = counters.parkers[i].state;
    uint32_t expected = kParked;
    if (state.compare_exchange_strong(expected, kAwake,
                                      std::memory_order_acq_rel)) {
      counters.searching.fetch_add(1, std::memory_order_acq_rel);
      state.notify_one();
      return;
    }
  }
}

void ShardedEngine::StopSearching(bool& searching) {
  searching = false;
  if (counters_->searching.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      AnyLaneHasWork()) {
    WakeOneWorker();
  }
}

bool ShardedEngine::Park(size_t worker_index, bool searching) {
  Counters& counters = *counters_;
  std::atomic<uint32_t>& state = counters.parkers[worker_index].state;
  state.store(kParked, std::memory_order_relaxed);
  counters.searching.fetch_sub(searching ? 1 : 0, std::memory_order_acq_rel);
  if (!counters.stop.load(std::memory_order_relaxed) && !AnyLaneHasWork()) {
    state.wait(kParked, std::memory_order_acquire);
    return true;  // The waker counted this worker.
  }
  // Retract uncounted (the work may sit in occupied lanes), unless a
  // waker already claimed and counted this worker.
  return state.exchange(kAwake, std::memory_order_acq_rel) != kParked;
}

// --- Execution ---------------------------------------------------------------

void ShardedEngine::RunTask(Lane& lane, Task&& task) {
  RunTimeEngine& engine = *lane.engine;
  const uint32_t hops = task.hops;
  const uint64_t order_epoch = task.order_epoch;
  const uint64_t task_epoch = task.event.wave_epoch;
  if (task.kind == Task::Kind::kEvent) {
    engine.queue().Push(std::move(task.event));
    engine.ProcessOne();
  } else {
    engine.DeliverSeededWave(std::move(task.seeds), std::move(task.event));
  }
  // Cross-shard sub-waves accumulated during the task go out first (in
  // the single-queue engine those deliveries happened inside the wave,
  // before anything the wave posted), then the events the wave posted
  // to the shard engine's local queue re-enter sharded intake. Epoch
  // refs minted mid-task (direction-post scopes) are dropped last, so
  // their handoff tasks are pinned before the mint ref lapses.
  lane.router->Flush(hops, order_epoch);
  while (std::optional<EventMessage> posted = engine.queue().Pop()) {
    counters_->reposted_events.fetch_add(1, std::memory_order_relaxed);
    Route(std::move(*posted));
  }
  for (const uint64_t epoch : lane.router->TakeMintedEpochs()) {
    ReleaseEpochRef(epoch);
  }
  counters_->tasks_processed.fetch_add(1, std::memory_order_relaxed);
  // The task's own pin goes last: its handoffs are enqueued by now.
  if (task_epoch != 0) ReleaseEpochRef(task_epoch);
  if (counters_->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    counters_->pending.notify_all();  // No syscall without a waiter.
  }
}

size_t ShardedEngine::RunLaneBurst(Lane& lane, bool& searching) {
  // Probe first, so idle sweeps do not bounce the lanes' busy lines.
  if (!lane.HasWork() || lane.busy.exchange(true, std::memory_order_acquire)) {
    return 0;
  }
  size_t ran = 0;
  Task task;
  for (; ran < kLaneBurst && lane.Pop(task); ++ran) {
    if (searching) StopSearching(searching);
    RunTask(lane, std::move(task));
  }
  lane.busy.store(false, std::memory_order_release);
  return ran;
}

void ShardedEngine::WorkerLoop(size_t worker_index) {
  const ExecutorScope scope;
  bool searching = true;  // Counted at construction.
  int idle_sweeps = 0;
  for (;;) {
    // Sweep the lanes, starting at this worker's home lane so workers
    // spread out. An occupied lane is skipped — its occupant drains it —
    // which keeps every lane queue single-consumer.
    bool did_work = false;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = *lanes_[(worker_index + i) % lanes_.size()];
      did_work |= RunLaneBurst(lane, searching) > 0;
    }
    if (did_work) {
      idle_sweeps = 0;
      continue;
    }
    if (counters_->stop.load(std::memory_order_acquire)) return;
    if (!searching && idle_sweeps == 0) {  // Just ran out of work.
      searching = true;
      counters_->searching.fetch_add(1, std::memory_order_acq_rel);
    }
    if (++idle_sweeps < kIdleSweeps) {
      std::this_thread::yield();
      continue;
    }
    searching = Park(worker_index, searching);
    idle_sweeps = searching ? 0 : 1;  // Uncounted until it works again.
  }
}

void ShardedEngine::DrainDeterministic() {
  // Global (order epoch, ticket) order across every queued task — not
  // arrival order: a wave's cross-shard sub-waves (direction posts
  // included, which schedule under their spawning wave) run before any
  // later wave's work, reproducing the wave atomicity of the single
  // FIFO queue under the dedup path. Within a wave, tickets rise along
  // the handoff chain, so causal order holds.
  for (;;) {
    Lane* next = nullptr;
    std::pair<uint64_t, uint64_t> best{};
    for (auto& lane : lanes_) {
      std::pair<uint64_t, uint64_t> key{};
      if (lane->PeekBest(key) && (next == nullptr || key < best)) {
        next = lane.get();
        best = key;
      }
    }
    if (next == nullptr) return;
    Task task;
    next->PopBest(task);
    RunTask(*next, std::move(task));
  }
}

size_t ShardedEngine::Drain() {
  if (options_.deterministic) {
    DrainDeterministic();
  } else {
    AwaitQuiescence();
  }
  const size_t total =
      counters_->tasks_processed.load(std::memory_order_acquire);
  const size_t delta = total - last_drain_processed_;
  last_drain_processed_ = total;
  return delta;
}

void ShardedEngine::RebalanceShards() {
  AwaitQuiescence();
  if (!shard_map_.dirty()) return;
  shard_map_.Rebalance();
}

// --- Introspection -----------------------------------------------------------

RunTimeEngine& ShardedEngine::shard(uint32_t index) {
  if (index >= lanes_.size()) {
    throw Error("ShardedEngine::shard: index out of range");
  }
  return *lanes_[index]->engine;
}

const RunTimeEngine& ShardedEngine::shard(uint32_t index) const {
  if (index >= lanes_.size()) {
    throw Error("ShardedEngine::shard: index out of range");
  }
  return *lanes_[index]->engine;
}

ShardedStats ShardedEngine::stats() const {
  ShardedStats stats;
  stats.events_posted =
      counters_->events_posted.load(std::memory_order_relaxed);
  stats.tasks_processed =
      counters_->tasks_processed.load(std::memory_order_relaxed);
  stats.handoff_waves =
      counters_->handoff_waves.load(std::memory_order_relaxed);
  stats.handoff_seeds =
      counters_->handoff_seeds.load(std::memory_order_relaxed);
  stats.seed_batch_splits =
      counters_->seed_batch_splits.load(std::memory_order_relaxed);
  stats.inline_tasks = counters_->inline_tasks.load(std::memory_order_relaxed);
  for (const auto& store : claim_stores_) {
    stats.claim_purge_floor =
        std::max(stats.claim_purge_floor, store->purge_floor());
    stats.claim_sets_live += store->sets_held();
  }
  stats.handoff_waves_truncated =
      counters_->handoff_waves_truncated.load(std::memory_order_relaxed);
  stats.reposted_events =
      counters_->reposted_events.load(std::memory_order_relaxed);
  stats.ring_overflows =
      counters_->ring_overflows.load(std::memory_order_relaxed);
  // Sourced from the map so direct shard_map().Rebalance() calls count.
  stats.rebalances = shard_map_.stats().rebalances;
  stats.wave_epochs = counters_->wave_epochs.load(std::memory_order_relaxed);
  stats.index_entries = SharedIndex().entry_count();
  return stats;
}

EngineStats ShardedEngine::AggregateEngineStats() const {
  EngineStats total;
  ForEachEngine(
      [&](const RunTimeEngine& engine) { total.Accumulate(engine.stats()); });
  return total;
}

void ShardedEngine::ForEachEngine(
    const std::function<void(const RunTimeEngine&)>& fn) const {
  for (const auto& lane : lanes_) fn(*lane->engine);
}

std::vector<std::string> ShardedEngine::JournalLines() const {
  std::vector<std::string> lines;
  const auto append = [&lines](const events::EventJournal& journal) {
    for (size_t i = 0; i < journal.Size(); ++i) {
      const events::JournalRecord record = journal.At(i);
      std::string line = "[";
      line += events::EventOriginName(record.event.origin);
      line += "] ";
      line += events::FormatEvent(record.event);
      lines.push_back(std::move(line));
    }
  };
  for (const auto& lane : lanes_) append(lane->engine->journal());
  return lines;
}

void ShardedEngine::ClearJournals() {
  for (auto& lane : lanes_) lane->engine->ClearJournal();
}

void ShardedEngine::ResetStats() {
  for (auto& lane : lanes_) lane->engine->ResetStats();
  counters_->events_posted.store(0, std::memory_order_relaxed);
  counters_->tasks_processed.store(0, std::memory_order_relaxed);
  counters_->handoff_waves.store(0, std::memory_order_relaxed);
  counters_->handoff_seeds.store(0, std::memory_order_relaxed);
  counters_->seed_batch_splits.store(0, std::memory_order_relaxed);
  counters_->inline_tasks.store(0, std::memory_order_relaxed);
  counters_->handoff_waves_truncated.store(0, std::memory_order_relaxed);
  counters_->reposted_events.store(0, std::memory_order_relaxed);
  counters_->ring_overflows.store(0, std::memory_order_relaxed);
  counters_->wave_epochs.store(0, std::memory_order_relaxed);
  last_drain_processed_ = 0;
}

}  // namespace damocles::engine
