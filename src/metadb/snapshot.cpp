#include "metadb/snapshot.hpp"

#include <thread>
#include <vector>

#include "common/error.hpp"
#include "metadb/meta_database.hpp"

namespace damocles::metadb {

std::shared_ptr<const SnapshotStore::Version> SnapshotStore::LatestVersion()
    const noexcept {
  // Left-right reader: arrive on the indicator named by version_index_,
  // copy the slot named by left_right_, depart. The writer never
  // assigns a slot while a reader that could be copying it is present,
  // so the copy is race-free without taking any lock. Wait-free: no
  // loops, three atomic ops around one shared_ptr copy.
  const int vi = version_index_.load(std::memory_order_seq_cst);
  read_count_[static_cast<size_t>(vi)].fetch_add(1, std::memory_order_seq_cst);
  const int lr = left_right_.load(std::memory_order_seq_cst);
  std::shared_ptr<const Version> head = slot_[static_cast<size_t>(lr)];
  read_count_[static_cast<size_t>(vi)].fetch_sub(1, std::memory_order_release);
  return head;
}

void SnapshotStore::InstallHead(std::shared_ptr<const Version> version) {
  // Left-right writer (the single publisher): install into the side no
  // reader can be on, flip the read side, then drain both indicators in
  // toggle order before rewriting the retired side. Readers arriving at
  // any point only ever copy a slot this writer is done assigning.
  const int which = left_right_.load(std::memory_order_relaxed) ^ 1;
  slot_[static_cast<size_t>(which)] = version;
  left_right_.store(which, std::memory_order_seq_cst);
  const int prev_vi = version_index_.load(std::memory_order_relaxed);
  const int next_vi = prev_vi ^ 1;
  while (read_count_[static_cast<size_t>(next_vi)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  version_index_.store(next_vi, std::memory_order_seq_cst);
  while (read_count_[static_cast<size_t>(prev_vi)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  slot_[static_cast<size_t>(which ^ 1)] = std::move(version);
}

Snapshot SnapshotStore::Publish(MetaDatabase& db) {
  // The writer is quiescent, so no mark can land between the cut and
  // the freeze. Every mutation marks a chunk: an empty cut means the
  // head still equals the live state.
  const DirtyChunks dirty = db.CutDirtyChunks();
  if (last_ != nullptr && dirty.empty()) {
    return Snapshot(last_->frozen, last_->frozen.get(), last_->epoch);
  }

  auto version = std::make_shared<Version>();
  version->epoch = last_ == nullptr ? 1 : last_->epoch + 1;
  version->frozen = db.FreezeVersion(
      last_ == nullptr ? nullptr : last_->frozen.get(), dirty);
  std::vector<std::shared_ptr<const Version>> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    history_.push_back(version);
    while (history_.size() > retention_) {
      purge_floor_.store(history_.front()->epoch, std::memory_order_release);
      retired.push_back(std::move(history_.front()));
      history_.pop_front();
    }
  }
  InstallHead(version);
  last_ = version;
  return Snapshot(version->frozen, version->frozen.get(), version->epoch);
}

Snapshot SnapshotStore::Latest(const MetaDatabase& live) const {
  const std::shared_ptr<const Version> head = LatestVersion();
  if (head == nullptr) return Snapshot::Live(live);
  return Snapshot(head->frozen, head->frozen.get(), head->epoch);
}

Snapshot SnapshotStore::AtEpoch(uint64_t epoch) const {
  if (epoch == Snapshot::kLiveEpoch) {
    throw NotFoundError("AtEpoch: epoch 0 names the live view, not a version");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (history_.empty() || epoch < history_.front()->epoch) {
    throw NotFoundError(
        "AtEpoch: epoch " + std::to_string(epoch) +
        " has been merged out (purge floor " +
        std::to_string(purge_floor_.load(std::memory_order_acquire)) + ")");
  }
  // Newest version with epoch <= the request; epochs ascend by 1 per
  // effective publish, so this is a short backwards walk.
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if ((*it)->epoch <= epoch) {
      return Snapshot((*it)->frozen, (*it)->frozen.get(), (*it)->epoch);
    }
  }
  throw NotFoundError("AtEpoch: epoch " + std::to_string(epoch) +
                      " predates the first published snapshot");
}

uint64_t SnapshotStore::head_epoch() const noexcept {
  const std::shared_ptr<const Version> head = LatestVersion();
  return head == nullptr ? 0 : head->epoch;
}

}  // namespace damocles::metadb
