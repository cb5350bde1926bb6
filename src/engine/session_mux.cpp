#include "engine/session_mux.hpp"

#include <algorithm>

#include "common/failpoint.hpp"

namespace damocles::engine {
namespace {

enum : uint32_t { kIdle, kParked, kSignalled };  ///< Waiting word states.
/// Spin before parking: a parked thread resumes only by a futex wake.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

/// Waits while `word` is kIdle, spinning first if `spin`; counts parks.
void SpinThenPark(std::atomic<uint32_t>& word, bool spin,
                  std::atomic<uint64_t>* parks = nullptr) {
  const auto until = std::chrono::steady_clock::now() + kSpinWindow;
  while (spin && word.load() == kIdle &&
         std::chrono::steady_clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  uint32_t idle = kIdle;
  if (!word.compare_exchange_strong(idle, kParked)) return;
  if (parks != nullptr) parks->fetch_add(1, std::memory_order_relaxed);
  word.wait(kParked);
}

/// Sets `word` to kSignalled; wakes its waiter, and is true, if parked.
bool Signal(std::atomic<uint32_t>& word) {
  if (word.exchange(kSignalled) != kParked) return false;
  word.notify_one();
  return true;
}

}  // namespace

SessionMux::SessionMux(ProjectServer& server, SessionMuxOptions options)
    : server_(server), options_(options) {
  if (options_.mutation_queue_capacity == 0) {
    options_.mutation_queue_capacity = 1;
  }
  spin_refs_ = static_cast<long>(std::thread::hardware_concurrency()) -
               static_cast<long>(server_.sharded_engine()->worker_threads());
  // Publish the initial epoch so every read — including ones racing
  // the first mutation — answers from a pinned immutable version
  // rather than the live database.
  server_.database().PublishSnapshot();
  apply_thread_ = std::thread([this] { ApplyLoop(); });
}

SessionMux::~SessionMux() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  Signal(apply_word_);
  space_cv_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
}

std::unique_ptr<SessionMux::Session> SessionMux::Connect(std::string user) {
  // Not make_unique: the constructor is private to the friend mux.
  return std::unique_ptr<Session>(new Session(*this, std::move(user)));
}

std::string SessionMux::Session::Execute(std::string_view line) {
  if (ClassifyWireLine(line) == WireCommandKind::kRead) {
    return reader_.HandleLine(line);
  }
  return mux_.SubmitMutation(*this, line);
}

std::string SessionMux::SubmitMutation(Session& session,
                                       std::string_view line) {
  // Degraded fast-path: while the server is read-only, mutations that
  // are not part of the heal surface (wal-reopen, failpoint) are
  // rejected here in-band, without burning a queue slot or apply-thread
  // time. Racing a trip that lands after this check is fine — the
  // server rejects the mutation with the same "degraded:" response
  // when the apply thread reaches it.
  if (server_.degraded() && !WireLineAllowedDegraded(line)) {
    return "degraded: server is read-only (" + server_.GetHealth().reason +
           "); heal with wal-reopen\n";
  }

  // A hit forces this submission down the saturation path (straight
  // to the "busy: ..." rejection) without actually filling the queue.
  common::FailpointHit fault;
  const bool forced_busy = DAMOCLES_FAILPOINT("mux.queue.full", &fault);

  const auto deadline = options_.mutation_deadline;
  bool spin = live_.use_count() <= spin_refs_;
  uint64_t ticket = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stop_) return "error: session mux is shutting down\n";
    if (forced_busy || queue_.size() >= options_.mutation_queue_capacity) {
      // Bounded retry: wait (with jittered exponential backoff) for
      // the apply thread to make space, then re-check. Attempts
      // exhausted or shutdown mid-wait falls through to the busy
      // rejection.
      bool admitted = false;
      if (!forced_busy) {
        common::BackoffState backoff(options_.mutation_retry);
        while (backoff.ShouldRetry()) {
          space_cv_.wait_for(lock, backoff.NextDelay(), [this] {
            return stop_ || queue_.size() < options_.mutation_queue_capacity;
          });
          if (stop_) return "error: session mux is shutting down\n";
          if (queue_.size() < options_.mutation_queue_capacity) {
            mutation_retries_.fetch_add(1, std::memory_order_relaxed);
            admitted = true;
            break;
          }
        }
      }
      if (!admitted) {
        busy_rejections_.fetch_add(1, std::memory_order_relaxed);
        return "busy: mutation queue full (" + std::to_string(queue_.size()) +
               " pending); retry\n";
      }
    }
    session.slot_->state.store(kIdle, std::memory_order_relaxed);
    queue_.push_back(
        {std::string(line), &session, ticket = ++next_ticket_, session.slot_});
    // Last touch of the mux: it may be destroyed once the entry is popped.
    // An apply thread woken here may need this core, so do not spin then.
    if (Signal(apply_word_)) spin = false;
  }

  // Deadline wait: if the apply thread has not picked the entry up in
  // time, withdraw it from the queue — it is guaranteed unapplied, so
  // "timeout: ..." is truthful and the client may safely resubmit. An
  // entry already popped is being applied; its real response is the
  // only honest answer, so wait for it.
  if (deadline.count() > 0) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (!space_cv_.wait_for(lock, deadline,
                            [&] { return popped_ticket_ >= ticket; })) {
      queue_.erase(std::find_if(
          queue_.begin(), queue_.end(),
          [ticket](const PendingMutation& p) { return p.ticket == ticket; }));
      mutation_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return "timeout: mutation waited past deadline (" +
             std::to_string(deadline.count()) + " ms) unapplied; retry\n";
    }
  }
  SpinThenPark(session.slot_->state, spin);  // The apply thread counts.
  return std::move(session.slot_->response);
}

void SessionMux::ApplyLoop() {
  uint64_t seq = 0;
  while (true) {
    PendingMutation pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      if (queue_.empty()) {
        // Admitted mutations are applied even during shutdown: their
        // sessions wait on their reply slots. Every later push signals.
        if (stop_) return;
        apply_word_.store(kIdle);
        lock.unlock();
        SpinThenPark(apply_word_, live_.use_count() <= spin_refs_,
                     &apply_parks_);
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      popped_ticket_ = pending.ticket;
    }
    space_cv_.notify_all();

    // Chaos hook: a delay-action hit here stalls the apply thread the
    // way a slow wave or blocked fsync would, so tests can drive the
    // deadline/timeout path deterministically.
    common::FailpointHit stall;
    static_cast<void>(DAMOCLES_FAILPOINT("mux.apply.stall", &stall));

    // The single-writer step: the session's writer-side WireSession
    // applies the mutation (events drain through the server's sharded
    // engine)...
    std::string response = pending.session->writer_.HandleLine(pending.line);

    // ...and the next epoch makes it visible to every reader at once
    // (one epoch per mutation, which the differential tests rely on).
    const uint64_t epoch = server_.database().PublishSnapshot().epoch();

    {
      std::lock_guard<std::mutex> lock(log_mutex_);
      MuxLogEntry entry;
      entry.seq = ++seq;
      entry.user = pending.session->user_;
      entry.line = std::move(pending.line);
      entry.response = response;
      entry.epoch_after = epoch;
      log_.push_back(std::move(entry));
    }
    mutations_applied_.fetch_add(1, std::memory_order_relaxed);
    pending.reply->response = std::move(response);
    if (Signal(pending.reply->state)) {
      reply_parks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<MuxLogEntry> SessionMux::MutationLog() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return log_;
}

}  // namespace damocles::engine
