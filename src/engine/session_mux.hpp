// N concurrent wire sessions multiplexed over one project server.
//
// The paper's tracking system serves a whole design team at once. The
// mux gives each connected designer a WireSession-compatible surface
// while keeping the server's single-writer discipline:
//
//  * READ commands (classified by the wire-command registry) run on
//    the caller's thread against a pinned published snapshot
//    (MetaDatabase::Latest()) — one atomic load, no locks, never
//    blocked by a committing wave. Any number of sessions read
//    concurrently.
//  * MUTATE commands are admitted into a bounded queue and applied by
//    one apply thread in arrival order (the paper's "events are
//    processed sequentially, first-in first-out", now across
//    sessions). When the server is sharded, the applied events then
//    flow through the sharded engine's lock-free intake rings and
//    execute on its worker pool — the mux serializes *admission*, not
//    wave execution. After each applied mutation the apply thread
//    publishes the next snapshot epoch, so readers observe mutations
//    as an ordered sequence of consistent versions.
//  * BACKPRESSURE is in-band: when the mutation queue is full the
//    command is rejected immediately with a "busy: ..." response
//    (count in busy_rejections()) instead of blocking the session —
//    a remote client must never be able to wedge the server. A
//    mutation that was admitted but waits in the queue longer than
//    the configured deadline is withdrawn unapplied and answered
//    "timeout: ..." — so a stalled apply thread cannot hold every
//    session hostage either. Degraded-mode rejections from the
//    server ("degraded: ...") flow back the same in-band way.
//  * HANDOFF: each push signals the apply thread's atomic word; an idle
//    apply thread spins ~50 µs on it, then parks, as a session does on its
//    reply slot — spinning only while all threads fit the machine's cores.
//
// Every applied mutation is recorded in the mutation log
// {seq, user, line, response, epoch_after}; replaying the log against
// a fresh server reproduces the exact epoch sequence, which is what
// the concurrent differential tests assert.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "engine/wire_session.hpp"

namespace damocles::engine {

/// Mux tuning knobs.
struct SessionMuxOptions {
  /// Mutations admitted but not yet applied. A full queue rejects new
  /// mutations with an in-band "busy: ..." response.
  size_t mutation_queue_capacity = 256;

  /// Bounded retry when the mutation queue is full. With attempts = 0
  /// (the default) a full queue rejects immediately ("busy: ...");
  /// with attempts = N the submitting session waits for queue space
  /// under jittered exponential backoff (initial, initial*multiplier,
  /// ... capped at max, each scaled by a random jitter factor so
  /// saturated sessions don't wake in lockstep) and only rejects
  /// after all attempts saturate. The wait is bounded so a wedged
  /// apply thread still cannot hold a remote client forever.
  common::BackoffPolicy mutation_retry{/*attempts=*/0,
                                       std::chrono::milliseconds(2),
                                       std::chrono::milliseconds(64)};

  /// Per-mutation queue-wait deadline. Zero (the default) waits
  /// forever. Otherwise a mutation still sitting in the queue when
  /// the deadline expires is withdrawn — guaranteed not applied —
  /// and its session gets an in-band "timeout: ..." response. A
  /// mutation the apply thread has already started is never
  /// abandoned: its real response is returned however long it takes
  /// (abandoning it would leave the client unsure whether it ran).
  std::chrono::milliseconds mutation_deadline{0};
};

/// One applied mutation, in apply order (seq ascends from 1).
struct MuxLogEntry {
  uint64_t seq = 0;
  std::string user;
  std::string line;
  std::string response;
  /// Snapshot epoch readers observe once this mutation is visible.
  uint64_t epoch_after = 0;
};

/// The multiplexer. A session may outlive it but must not Execute() once
/// ~SessionMux has begun; without a mutation deadline, a mutation admitted
/// before that is still applied and answered.
class SessionMux {
  /// A session's reply word (kIdle, kParked, kSignalled) and response;
  /// the queued entry shares it, so a late notify never hits freed memory.
  struct ReplySlot {
    std::atomic<uint32_t> state{0};
    std::string response;
  };

 public:
  /// One connected designer. Execute() is safe to call from the
  /// session's own thread concurrently with every other session.
  class Session {
   public:
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Executes one wire line: reads answer immediately from a pinned
    /// snapshot; mutations are queued to the apply thread (this call
    /// waits for the response) or rejected with "busy: ..." when the
    /// queue is full.
    std::string Execute(std::string_view line);

    const std::string& user() const noexcept { return user_; }

    /// Epoch the most recent read answered from.
    uint64_t last_read_epoch() const noexcept {
      return reader_.last_read_epoch();
    }

   private:
    friend class SessionMux;
    Session(SessionMux& mux, std::string user)
        : mux_(mux),
          user_(std::move(user)),
          reader_(mux.server_, user_),
          writer_(mux.server_, user_) {
      reader_.set_snapshot_reads(true);
    }

    SessionMux& mux_;
    std::string user_;
    /// Client-thread side: read commands on pinned snapshots.
    WireSession reader_;
    /// Apply-thread side: mutations, touched only by the apply loop.
    WireSession writer_;
    std::shared_ptr<ReplySlot> slot_ = std::make_shared<ReplySlot>();
    std::shared_ptr<const void> live_ = mux_.live_;  ///< Counted as live.
  };

  explicit SessionMux(ProjectServer& server, SessionMuxOptions options = {});
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Opens a session for `user`.
  std::unique_ptr<Session> Connect(std::string user);

  /// Snapshot epoch readers currently answer from.
  uint64_t head_epoch() const noexcept {
    return server_.database().snapshot_epoch();
  }

  uint64_t mutations_applied() const noexcept {
    return mutations_applied_.load(std::memory_order_relaxed);
  }
  uint64_t busy_rejections() const noexcept {
    return busy_rejections_.load(std::memory_order_relaxed);
  }
  /// Waits that found queue space before exhausting their attempts.
  uint64_t mutation_retries() const noexcept {
    return mutation_retries_.load(std::memory_order_relaxed);
  }
  /// Mutations withdrawn unapplied after waiting past the deadline.
  uint64_t mutation_timeouts() const noexcept {
    return mutation_timeouts_.load(std::memory_order_relaxed);
  }

  /// Spin windows that ran out into a futex wait, per side.
  uint64_t apply_parks() const noexcept {
    return apply_parks_.load(std::memory_order_relaxed);
  }
  uint64_t reply_parks() const noexcept {
    return reply_parks_.load(std::memory_order_relaxed);
  }

  /// Copy of the mutation log (apply order).
  std::vector<MuxLogEntry> MutationLog() const;

 private:
  struct PendingMutation {
    std::string line;
    Session* session = nullptr;
    /// For a deadline withdraw; `session` waits until withdrawn or answered.
    uint64_t ticket = 0;
    std::shared_ptr<ReplySlot> reply;
  };

  std::string SubmitMutation(Session& session, std::string_view line);
  void ApplyLoop();

  ProjectServer& server_;
  SessionMuxOptions options_;

  std::mutex queue_mutex_;
  /// Signalled when the apply thread pops an entry: submitters in a
  /// retry or deadline wait wake to re-check.
  std::condition_variable space_cv_;
  std::deque<PendingMutation> queue_;
  uint64_t next_ticket_ = 0;    ///< Guarded by queue_mutex_.
  uint64_t popped_ticket_ = 0;  ///< Last ticket popped; queue_mutex_.
  bool stop_ = false;
  std::atomic<uint32_t> apply_word_{0};  ///< Signalled by every push.
  /// One reference per live session plus the mux's own. The fit rule:
  /// spin while use_count() <= spin_refs_ (cores - engine workers).
  std::shared_ptr<const void> live_ = std::make_shared<char>();
  long spin_refs_ = 0;

  mutable std::mutex log_mutex_;
  std::vector<MuxLogEntry> log_;

  std::atomic<uint64_t> mutations_applied_{0};
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> mutation_retries_{0};
  std::atomic<uint64_t> mutation_timeouts_{0};
  std::atomic<uint64_t> apply_parks_{0};
  std::atomic<uint64_t> reply_parks_{0};

  std::thread apply_thread_;
};

}  // namespace damocles::engine
