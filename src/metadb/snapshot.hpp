// Epoch-versioned snapshot reads over the meta-database.
//
// The paper's tracking system is a network service: designers "retrieve
// the state of the project by performing queries" while change
// propagation runs. At that scale the read path cannot share locks with
// committing waves, so reads go through Snapshot — a cheap, immutable,
// epoch-stamped handle over a published version of the MetaDatabase —
// instead of the live database.
//
// The publish discipline is the one PR 5 built for the sharded engine's
// ClaimStores, generalized to the whole database:
//  * the WRITER (the session mux's apply loop, or any owner at a
//    drain-quiescent point) calls MetaDatabase::PublishSnapshot(),
//    which freezes the current state under the next epoch (monotone
//    from 1) and publishes it behind an atomic head pointer. Freezing
//    copies only the storage chunks marked dirty since the previous
//    publish and shares the rest with the previous version
//    (metadb/chunked.hpp), so its cost follows the change, not the
//    database size. Publishing is a no-op returning the existing head
//    when the dirty tracker marked no chunk since the last publish, so
//    idle publishes are free and mutations write no shared counter.
//  * READERS call MetaDatabase::Latest() — a wait-free head acquisition
//    (left-right pattern: arrive on a read indicator, copy the active
//    slot, depart), no locks, never blocked by (and never blocking) a
//    committing wave — or MetaDatabase::AtEpoch(e) to pin a version.
//    A pinned snapshot stays valid and byte-stable for as long as the
//    handle lives, no matter how many waves commit after it.
//  * retired versions are merged out lazily: the store keeps a bounded
//    history ring and advances an atomic purge floor past dropped
//    epochs — AtEpoch() below the floor reports the version as merged
//    out, exactly like a ClaimStore's purged claim sets.
//
// A Snapshot can also wrap the live database unpinned (epoch 0) — the
// compatibility currency for single-threaded callers that used to pass
// `const MetaDatabase&` straight into query/report/viz.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace damocles::metadb {

class MetaDatabase;

/// An immutable, epoch-stamped read handle. Copying is cheap (one
/// shared_ptr); the pinned version stays alive while any handle does.
class Snapshot {
 public:
  /// Epoch of unpinned live views (and default-constructed handles).
  static constexpr uint64_t kLiveEpoch = 0;

  Snapshot() = default;

  /// Wraps the live database unpinned: reads see in-place mutations,
  /// epoch() == kLiveEpoch. This is the compatibility path for callers
  /// that serialize reads against mutations themselves; concurrent
  /// sessions must use published snapshots instead.
  static Snapshot Live(const MetaDatabase& db) noexcept {
    return Snapshot(nullptr, &db, kLiveEpoch);
  }

  bool valid() const noexcept { return db_ != nullptr; }

  /// True when this handle pins a published immutable version (as
  /// opposed to wrapping the live database).
  bool pinned() const noexcept { return frozen_ != nullptr; }

  /// The epoch this snapshot was published under (kLiveEpoch when
  /// wrapping the live database).
  uint64_t epoch() const noexcept { return epoch_; }

  /// The database state behind the handle. For pinned snapshots this is
  /// a frozen, handle-identical version — OidId/LinkId/ConfigId handles
  /// mean the same slots as in the live database at publish time.
  const MetaDatabase& db() const noexcept { return *db_; }
  const MetaDatabase* operator->() const noexcept { return db_; }

 private:
  friend class SnapshotStore;

  Snapshot(std::shared_ptr<const MetaDatabase> frozen, const MetaDatabase* db,
           uint64_t epoch) noexcept
      : frozen_(std::move(frozen)), db_(db), epoch_(epoch) {}

  std::shared_ptr<const MetaDatabase> frozen_;  ///< Owns pinned versions.
  const MetaDatabase* db_ = nullptr;            ///< frozen_.get() or live.
  uint64_t epoch_ = kLiveEpoch;
};

/// The epoch-versioned publish machinery. One store per MetaDatabase
/// (owned behind a unique_ptr so the database stays movable); callers
/// go through the MetaDatabase::PublishSnapshot()/Latest()/AtEpoch()
/// facade rather than touching the store directly.
///
/// Thread contract: Publish() is writer-side and must run at a
/// drain-quiescent point (no wave is mutating the database). Latest(),
/// AtEpoch(), purge_floor() and head_epoch() are safe from any
/// thread at any time; Latest() is lock-free.
class SnapshotStore {
 public:
  /// Published versions retained for AtEpoch(); older epochs are merged
  /// out and the purge floor advances past them.
  static constexpr size_t kDefaultRetention = 32;

  explicit SnapshotStore(size_t retention = kDefaultRetention)
      : retention_(retention == 0 ? 1 : retention) {}

  /// Freezes `db` under the next epoch and publishes it; returns the
  /// existing head unchanged when no chunk was marked dirty since it
  /// was published. Writer-side, quiescent callers only. The frozen version
  /// is built before the history lock is taken and retired versions are
  /// freed after it is released, so AtEpoch() never waits on a copy or
  /// a free.
  Snapshot Publish(MetaDatabase& db);

  /// The newest published version (wait-free, no locks), or an
  /// unpinned live view of `live` when nothing was published yet.
  Snapshot Latest(const MetaDatabase& live) const;

  /// The newest published version with epoch <= `epoch`. Throws
  /// NotFoundError when `epoch` is kLiveEpoch, below the purge floor,
  /// or predates the first publish.
  Snapshot AtEpoch(uint64_t epoch) const;

  /// Epoch of the newest published version (0 before the first publish).
  uint64_t head_epoch() const noexcept;

  /// The epoch at (and below) which versions have been merged out of
  /// the history — 0 until the retention cap first trims. Atomic, any
  /// thread (the ShardedStats::claim_purge_floor idiom).
  uint64_t purge_floor() const noexcept {
    return purge_floor_.load(std::memory_order_acquire);
  }

  /// Adjusts the retention cap (takes effect at the next publish).
  void SetRetention(size_t retention) {
    std::lock_guard<std::mutex> lock(mutex_);
    retention_ = retention == 0 ? 1 : retention;
  }

 private:
  struct Version {
    uint64_t epoch = 0;
    std::shared_ptr<const MetaDatabase> frozen;
  };

  /// Wait-free copy of the current head version (left-right reader).
  std::shared_ptr<const Version> LatestVersion() const noexcept;

  /// Installs `version` as the head (left-right writer). Called by the
  /// single publisher only; waits for readers to drain off the side it
  /// rewrites.
  void InstallHead(std::shared_ptr<const Version> version);

  /// The newest published version. Publisher-only state (Publish is the
  /// single writer), read without mutex_ to build the next version.
  std::shared_ptr<const Version> last_;
  std::atomic<uint64_t> purge_floor_{0};
  /// The lock-free read head, kept as a left-right pair (Ramalhete &
  /// Correia) instead of std::atomic<shared_ptr>: readers arrive on a
  /// read indicator, copy the active slot, and depart — wait-free and
  /// free of the plain pointer accesses libstdc++'s atomic shared_ptr
  /// hides behind its embedded lock bit (which TSan reports as races).
  /// The publisher only ever assigns the slot no reader is on.
  mutable std::array<std::atomic<uint64_t>, 2> read_count_{};
  std::atomic<int> left_right_{0};
  std::atomic<int> version_index_{0};
  std::array<std::shared_ptr<const Version>, 2> slot_;
  /// Guards the AtEpoch history (ascending epochs) and retention_.
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const Version>> history_;
  size_t retention_;
};

}  // namespace damocles::metadb
