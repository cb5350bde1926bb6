// Epoch-versioned snapshot reads + the multiplexed session server.
//
// Three layers under test:
//  * the MetaDatabase snapshot API (publish / Latest / AtEpoch /
//    purge floor / pinned-epoch stability);
//  * the SessionMux (read-vs-mutate classification, bounded-queue
//    backpressure, mutation log);
//  * the concurrent differential property: N threaded sessions of
//    mixed query/event traffic produce read responses that match a
//    single-session serialized replay of the mutation log, each read
//    evaluated at its pinned epoch.
#include "engine/session_mux.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "test_util.hpp"
#include "viz/flow_viz.hpp"

namespace damocles::engine {
namespace {

using metadb::MetaDatabase;
using metadb::Oid;
using metadb::Snapshot;
using testutil::MakeEdtcServer;

// --- Snapshot API ---------------------------------------------------------

TEST(SessionMuxSnapshotTest, LatestWrapsLiveDatabaseBeforeFirstPublish) {
  MetaDatabase db;
  const Snapshot live = db.Latest();
  EXPECT_TRUE(live.valid());
  EXPECT_FALSE(live.pinned());
  EXPECT_EQ(live.epoch(), Snapshot::kLiveEpoch);
  // Unpinned snapshots see in-place mutations.
  db.CreateObject(Oid{"cpu", "hdl", 1}, "u", 0);
  EXPECT_TRUE(live.db().FindObject(Oid{"cpu", "hdl", 1}).has_value());
}

TEST(SessionMuxSnapshotTest, PinnedEpochIsStableUnderMutation) {
  MetaDatabase db;
  db.CreateObject(Oid{"cpu", "hdl", 1}, "u", 0);
  const Snapshot s1 = db.PublishSnapshot();
  EXPECT_EQ(s1.epoch(), 1u);
  EXPECT_TRUE(s1.pinned());
  EXPECT_EQ(db.snapshot_epoch(), 1u);

  // Mutate and publish epoch 2; the pinned epoch-1 snapshot must not
  // observe any of it.
  const auto id = db.CreateNextVersion("cpu", "hdl", "u", 1);
  db.SetProperty(id, "uptodate", "false");
  const Snapshot s2 = db.PublishSnapshot();
  EXPECT_EQ(s2.epoch(), 2u);

  EXPECT_FALSE(s1.db().FindObject(Oid{"cpu", "hdl", 2}).has_value());
  EXPECT_TRUE(s2.db().FindObject(Oid{"cpu", "hdl", 2}).has_value());
  EXPECT_EQ(db.Latest().epoch(), 2u);

  // Handles are identical across the publish: the frozen version
  // resolves the same OidId to the same object.
  EXPECT_EQ(s2.db().OidOf(id), db.OidOf(id));
}

TEST(SessionMuxSnapshotTest, PublishIsNoOpWithoutMutations) {
  MetaDatabase db;
  db.CreateObject(Oid{"cpu", "hdl", 1}, "u", 0);
  const Snapshot first = db.PublishSnapshot();
  const Snapshot again = db.PublishSnapshot();
  EXPECT_EQ(first.epoch(), again.epoch());
  EXPECT_EQ(&first.db(), &again.db());
  EXPECT_EQ(db.snapshot_epoch(), 1u);
}

TEST(SessionMuxSnapshotTest, AtEpochReturnsNewestAtOrBelow) {
  MetaDatabase db;
  for (int i = 1; i <= 3; ++i) {
    db.CreateNextVersion("cpu", "hdl", "u", i);
    db.PublishSnapshot();
  }
  EXPECT_EQ(db.AtEpoch(2).epoch(), 2u);
  EXPECT_FALSE(db.AtEpoch(2).db().FindObject(Oid{"cpu", "hdl", 3}).has_value());
  // Requests above the head clamp to the newest published version.
  EXPECT_EQ(db.AtEpoch(99).epoch(), 3u);
  EXPECT_THROW(db.AtEpoch(0), NotFoundError);
}

TEST(SessionMuxSnapshotTest, RetentionAdvancesPurgeFloor) {
  MetaDatabase db;
  db.SetSnapshotRetention(4);
  for (int i = 1; i <= 10; ++i) {
    db.CreateNextVersion("cpu", "hdl", "u", i);
    db.PublishSnapshot();
  }
  EXPECT_EQ(db.snapshot_epoch(), 10u);
  // Epochs 1..6 were merged out; the floor names the newest of them.
  EXPECT_EQ(db.snapshot_purge_floor(), 6u);
  EXPECT_THROW(db.AtEpoch(6), NotFoundError);
  EXPECT_EQ(db.AtEpoch(7).epoch(), 7u);
  // A snapshot pinned before merge-out stays readable: handles keep
  // the version alive independently of the store's history.
  const Snapshot early = db.AtEpoch(7);
  for (int i = 11; i <= 20; ++i) {
    db.CreateNextVersion("cpu", "hdl", "u", i);
    db.PublishSnapshot();
  }
  EXPECT_THROW(db.AtEpoch(7), NotFoundError);
  EXPECT_TRUE(early.db().FindObject(Oid{"cpu", "hdl", 7}).has_value());
}

// --- SessionMux basics ----------------------------------------------------

TEST(SessionMuxTest, ReadsPinEpochsMutationsAdvanceThem) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto alice = mux.Connect("alice");

  // The mux published the initial epoch at construction.
  EXPECT_EQ(mux.head_epoch(), 1u);
  EXPECT_EQ(alice->Execute("epoch"), "epoch 1\n");

  EXPECT_EQ(alice->Execute("checkin CPU HDL_model \"m\""),
            "ok CPU,HDL_model,1\n");
  EXPECT_EQ(mux.head_epoch(), 2u);
  EXPECT_EQ(alice->Execute("epoch"), "epoch 2\n");
  EXPECT_NE(alice->Execute("query block CPU").find("1 object(s)"),
            std::string::npos);
  EXPECT_EQ(alice->last_read_epoch(), 2u);

  const auto log = mux.MutationLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].seq, 1u);
  EXPECT_EQ(log[0].user, "alice");
  EXPECT_EQ(log[0].line, "checkin CPU HDL_model \"m\"");
  EXPECT_EQ(log[0].response, "ok CPU,HDL_model,1\n");
  EXPECT_EQ(log[0].epoch_after, 2u);
  EXPECT_EQ(mux.mutations_applied(), 1u);
}

TEST(SessionMuxTest, UnknownCommandsAnswerImmediately) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto s = mux.Connect("alice");
  EXPECT_NE(s->Execute("frobnicate").find("unknown command"),
            std::string::npos);
  EXPECT_EQ(mux.mutations_applied(), 0u);
}

TEST(SessionMuxTest, ClockOnlyMutationsDoNotMintEpochs) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto s = mux.Connect("alice");
  EXPECT_EQ(s->Execute("advance 60"), "ok day 0 00:01:00\n");
  // The clock moved but the database did not: publish was a no-op and
  // the epoch is unchanged (replay reproduces this exactly).
  EXPECT_EQ(mux.head_epoch(), 1u);
  const auto log = mux.MutationLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].epoch_after, 1u);
}

TEST(SessionMuxTest, ConcurrentReadersObserveMonotoneEpochs) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kReadsPerReader = 300;
  constexpr int kWritesPerWriter = 40;

  std::atomic<bool> go{false};
  std::atomic<uint64_t> applied_ok{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = mux.Connect("writer" + std::to_string(w));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kWritesPerWriter; ++i) {
        const std::string line = "checkin w" + std::to_string(w) + "blk" +
                                 std::to_string(i) + " HDL_model \"m\"";
        std::string response = session->Execute(line);
        while (response.rfind("busy:", 0) == 0) {
          response = session->Execute(line);
        }
        ASSERT_EQ(response.rfind("ok ", 0), 0u) << response;
        applied_ok.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto session = mux.Connect("reader" + std::to_string(r));
      while (!go.load()) std::this_thread::yield();
      uint64_t last_epoch = 0;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const std::string response =
            (i % 3 == 0) ? session->Execute("query outofdate")
                         : session->Execute("epoch");
        ASSERT_FALSE(response.empty());
        ASSERT_EQ(response.find("error:"), std::string::npos) << response;
        // Published epochs only move forward under a reader's feet.
        const uint64_t epoch = session->last_read_epoch();
        ASSERT_GE(epoch, last_epoch);
        ASSERT_GE(epoch, 1u);  // Never the unpinned live view.
        last_epoch = epoch;
      }
    });
  }

  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mux.mutations_applied(), applied_ok.load());
  EXPECT_EQ(mux.mutations_applied(),
            static_cast<uint64_t>(kWriters * kWritesPerWriter));
  // Every checkin mutates the database, so every applied mutation
  // minted exactly one epoch past the initial publish.
  EXPECT_EQ(mux.head_epoch(), 1u + mux.mutations_applied());
}

TEST(SessionMuxTest, RetryWithBackoffAcceptsEveryMutationUnderSaturation) {
  auto server = MakeEdtcServer();
  SessionMuxOptions options;
  options.mutation_queue_capacity = 1;  // Saturates immediately.
  options.mutation_retry.attempts = 1000;
  options.mutation_retry.initial = std::chrono::milliseconds(1);
  options.mutation_retry.max = std::chrono::milliseconds(4);
  SessionMux mux(*server, options);

  constexpr int kWriters = 6;
  constexpr int kWritesPerWriter = 25;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = mux.Connect("writer" + std::to_string(w));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kWritesPerWriter; ++i) {
        const std::string response =
            session->Execute("checkin w" + std::to_string(w) + "blk" +
                             std::to_string(i) + " HDL_model \"m\"");
        // Bounded retry absorbs the saturation: every mutation is
        // eventually accepted, none bounce back "busy".
        ASSERT_EQ(response.rfind("ok ", 0), 0u) << response;
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mux.mutations_applied(),
            static_cast<uint64_t>(kWriters * kWritesPerWriter));
  EXPECT_EQ(mux.busy_rejections(), 0u);
  // The one-slot queue forced actual waits, not just first-try luck.
  EXPECT_GT(mux.mutation_retries(), 0u);
}

TEST(SessionMuxTest, RetryDisabledStillRejectsWhenFull) {
  auto server = MakeEdtcServer();
  SessionMuxOptions options;
  options.mutation_queue_capacity = 1;
  SessionMux mux(*server, options);

  constexpr int kWriters = 6;
  std::atomic<bool> go{false};
  std::atomic<uint64_t> busy{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto session = mux.Connect("writer" + std::to_string(w));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 30; ++i) {
        const std::string response =
            session->Execute("checkin r" + std::to_string(w) + "blk" +
                             std::to_string(i) + " HDL_model \"m\"");
        if (response.rfind("busy:", 0) == 0) busy.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mux.busy_rejections(), busy.load());
  EXPECT_EQ(mux.mutation_retries(), 0u);
}

// --- Spin-then-park handoff ----------------------------------------------

/// Long enough that an idle apply thread has left its spin window.
constexpr auto kPastSpinWindow = std::chrono::milliseconds(3);

class SessionMuxWake : public ::testing::Test {
 protected:
  void TearDown() override { common::Failpoints::Instance().ClearAll(); }
};

/// `sessions` threads each write kSpaced lines spaced past the spin
/// window, then kBurst back to back. Every reply must be the right one,
/// and each session's writes must sit in the log in its own order.
void SpacedThenBurstWrites(int sessions) {
  constexpr int kSpaced = 5;
  constexpr int kBurst = 40;
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  const uint64_t parks_before = mux.apply_parks();
  std::vector<std::vector<std::string>> sent(sessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = mux.Connect("user" + std::to_string(s));
      for (int i = 0; i < kSpaced + kBurst; ++i) {
        if (i < kSpaced) std::this_thread::sleep_for(kPastSpinWindow);
        const std::string block =
            "s" + std::to_string(s) + "b" + std::to_string(i);
        const std::string line = "checkin " + block + " HDL_model \"m\"";
        EXPECT_EQ(session->Execute(line), "ok " + block + ",HDL_model,1\n");
        sent[s].push_back(line);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const auto log = mux.MutationLog();
  ASSERT_EQ(log.size(), static_cast<size_t>(sessions * (kSpaced + kBurst)));
  std::vector<size_t> next(sessions, 0);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, i + 1);
    EXPECT_EQ(log[i].epoch_after, i + 2);  // One epoch per checkin.
    const int s = std::stoi(log[i].user.substr(4));
    ASSERT_LT(next[s], sent[s].size());
    EXPECT_EQ(log[i].line, sent[s][next[s]++]);
  }
  // The spaced writes found the apply thread parked.
  EXPECT_GT(mux.apply_parks(), parks_before);
}

TEST_F(SessionMuxWake, SpacedWritesAndBurstsFromOneSession) {
  SpacedThenBurstWrites(1);
}

TEST_F(SessionMuxWake, SpacedWritesAndBurstsFromFourSessions) {
  SpacedThenBurstWrites(4);
}

TEST_F(SessionMuxWake, DestroyWhileApplyThreadParked) {
  auto server = MakeEdtcServer();
  auto mux = std::make_unique<SessionMux>(*server);
  const uint64_t parks = mux->apply_parks();
  {
    auto session = mux->Connect("alice");
    EXPECT_EQ(session->Execute("checkin CPU HDL_model \"m\""),
              "ok CPU,HDL_model,1\n");
  }
  // With no write to come, the apply thread parks after its spin window.
  while (mux->apply_parks() == parks) {
    std::this_thread::sleep_for(kPastSpinWindow);
  }
  std::this_thread::sleep_for(kPastSpinWindow);
  mux.reset();  // Must wake the parked apply thread and join it.
  EXPECT_EQ(server->database().snapshot_epoch(), 2u);
}

TEST_F(SessionMuxWake, SessionsConnectWriteAndDropInATightLoop) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 150;
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::string block =
            "t" + std::to_string(t) + "r" + std::to_string(i);
        auto session = mux.Connect("user" + std::to_string(t));
        EXPECT_EQ(session->Execute("checkin " + block + " HDL_model \"m\""),
                  "ok " + block + ",HDL_model,1\n");
      }  // The session drops while the apply thread may still notify.
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mux.mutations_applied(), static_cast<uint64_t>(kThreads * kRounds));
}

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

TEST_F(SessionMuxWake, DestroyAnswersEveryAdmittedMutation) {
  constexpr int kWriters = 4;
  auto server = MakeEdtcServer();
  auto mux = std::make_unique<SessionMux>(*server);
  std::vector<std::unique_ptr<SessionMux::Session>> sessions;
  for (int w = 0; w <= kWriters; ++w) {
    sessions.push_back(mux->Connect("writer" + std::to_string(w)));
  }
  // The first pop stalls the apply thread, so every other writer is
  // admitted and queued when the destructor starts.
  common::Failpoints::Instance().Configure("mux.apply.stall",
                                           "delay:1000,count=1");
  std::vector<std::string> replies(kWriters + 1);
  std::vector<std::thread> threads;
  for (int w = 0; w <= kWriters; ++w) {
    threads.emplace_back([&, w] {
      if (w > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      replies[w] = sessions[w]->Execute("checkin blk" + std::to_string(w) +
                                        " HDL_model \"m\"");
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  mux.reset();
  for (std::thread& t : threads) t.join();
  // Sessions may outlive the mux; each admitted mutation was answered.
  for (int w = 0; w <= kWriters; ++w) {
    EXPECT_EQ(replies[w], "ok blk" + std::to_string(w) + ",HDL_model,1\n");
  }
  EXPECT_EQ(server->database().snapshot_epoch(), 2u + kWriters);
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

// --- Fault injection: deadlines, degraded flow-through --------------------

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

/// Scratch WAL directory, removed on destruction.
class MuxTempDir {
 public:
  explicit MuxTempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("damocles-mux-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~MuxTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

class MuxFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { common::Failpoints::Instance().ClearAll(); }
};

TEST_F(MuxFailpointTest, QueueFullFailpointForcesBusyRejection) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto session = mux.Connect("alice");
  common::Failpoints::Instance().Configure("mux.queue.full", "error,count=1");
  const std::string rejected = session->Execute("checkin CPU HDL_model \"m\"");
  EXPECT_EQ(rejected.rfind("busy:", 0), 0u) << rejected;
  EXPECT_EQ(mux.busy_rejections(), 1u);
  EXPECT_EQ(mux.mutations_applied(), 0u);
  // The failpoint disarmed itself; the resubmit goes through.
  EXPECT_EQ(session->Execute("checkin CPU HDL_model \"m\""),
            "ok CPU,HDL_model,1\n");
}

TEST_F(MuxFailpointTest, DeadlineWithdrawsQueuedMutationWhileApplyStalls) {
  auto server = MakeEdtcServer();
  SessionMuxOptions options;
  options.mutation_deadline = std::chrono::milliseconds(50);
  SessionMux mux(*server, options);

  // The stall fires on the FIRST pop after arming and sleeps the apply
  // thread well past the second submission's deadline.
  common::Failpoints::Instance().Configure("mux.apply.stall",
                                           "delay:400,count=1");
  std::thread first([&] {
    auto session = mux.Connect("alice");
    const std::string response =
        session->Execute("checkin CPU HDL_model \"m\"");
    // Popped entries are never abandoned: the stalled-but-applied
    // mutation still answers "ok" (slow, not lost).
    EXPECT_EQ(response.rfind("ok ", 0), 0u) << response;
  });
  // Let the apply thread pop the first mutation and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto session = mux.Connect("bob");
  const std::string timed_out =
      session->Execute("checkin FPU HDL_model \"m\"");
  EXPECT_EQ(timed_out.rfind("timeout:", 0), 0u) << timed_out;
  first.join();

  // The withdrawn mutation was never applied — resubmitting it now
  // cannot double-apply (version numbering proves single application).
  EXPECT_EQ(mux.mutation_timeouts(), 1u);
  EXPECT_EQ(mux.mutations_applied(), 1u);
  EXPECT_EQ(session->Execute("checkin FPU HDL_model \"m\""),
            "ok FPU,HDL_model,1\n");
  EXPECT_EQ(mux.mutations_applied(), 2u);
}

TEST_F(MuxFailpointTest, DegradedServerRejectsInBandAndHealsThroughTheMux) {
  MuxTempDir dir("degraded");
  engine::ServerOptions server_options;
  server_options.wal_dir = dir.str();
  server_options.wal_retry.attempts = 1;
  server_options.wal_retry.initial = std::chrono::milliseconds(0);
  server_options.wal_retry.max = std::chrono::milliseconds(1);
  auto server = MakeEdtcServer(server_options);
  SessionMux mux(*server);
  auto session = mux.Connect("alice");

  EXPECT_EQ(session->Execute("checkin CPU HDL_model \"m\""),
            "ok CPU,HDL_model,1\n");

  // Every append now fails. The checkin logs post-apply, so it is
  // still applied and acked (durability pending heal) — the exhausted
  // retry budget trips degraded for everything after it.
  common::Failpoints::Instance().Configure("wal.append", "error");
  EXPECT_EQ(session->Execute("checkin CPU HDL_model \"m2\""),
            "ok CPU,HDL_model,2\n");
  EXPECT_TRUE(server->degraded());

  // Reads keep serving from pinned snapshots while degraded, and the
  // mux fast-path rejects further mutations without queueing them.
  EXPECT_NE(session->Execute("query block CPU").find("2 object(s)"),
            std::string::npos);
  EXPECT_EQ(session->Execute("health").rfind("health degraded", 0), 0u);
  const uint64_t applied_before = mux.mutations_applied();
  const std::string fast_reject =
      session->Execute("checkin CPU HDL_model \"m3\"");
  EXPECT_EQ(fast_reject.rfind("degraded:", 0), 0u) << fast_reject;
  EXPECT_EQ(mux.mutations_applied(), applied_before);

  // The heal surface stays admitted: clear the fault and reopen the
  // WAL through the same session.
  EXPECT_EQ(session->Execute("failpoint clear wal.append"), "ok\n");
  const std::string healed = session->Execute("wal-reopen");
  EXPECT_EQ(healed.rfind("ok healed", 0), 0u) << healed;
  EXPECT_FALSE(server->degraded());
  EXPECT_EQ(session->Execute("health").rfind("health ok", 0), 0u);

  // Writes resume; the rejected mutation (m3) was never applied, so the
  // version counter continues from the acked m2.
  EXPECT_EQ(session->Execute("checkin CPU HDL_model \"m4\""),
            "ok CPU,HDL_model,3\n");
  EXPECT_EQ(server->GetHealth().heals, 1u);
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

// --- Concurrent differential ---------------------------------------------

struct RecordedRead {
  std::string line;
  uint64_t epoch = 0;
  std::string response;
};

TEST(SessionMuxDifferentialTest, ConcurrentSessionsMatchSerializedReplay) {
  auto server = MakeEdtcServer();
  std::vector<RecordedRead> reads;
  std::vector<MuxLogEntry> log;
  {
    SessionMux mux(*server);

    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 60;

    std::mutex reads_mutex;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(1234u + static_cast<unsigned>(t));
        auto session = mux.Connect("user" + std::to_string(t));
        std::vector<RecordedRead> local;
        // Per-thread blocks so concurrent mutations never conflict;
        // reads roam over every thread's blocks.
        const std::string mine = "t" + std::to_string(t) + "blk";
        int checkins = 0;
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kOpsPerThread; ++i) {
          const uint32_t dice = rng() % 10;
          if (dice < 4) {  // ~40% mutations.
            std::string line;
            if (checkins == 0 || dice < 3) {
              line = "checkin " + mine + " HDL_model \"m\"";
              ++checkins;
            } else {
              line = "postEvent hdl_sim up " + mine + ",HDL_model," +
                     std::to_string(1 + (rng() % checkins)) + " \"good\"";
            }
            std::string response = session->Execute(line);
            while (response.rfind("busy:", 0) == 0) {
              response = session->Execute(line);
            }
            ASSERT_EQ(response.find("error:"), std::string::npos)
                << line << " -> " << response;
          } else {  // ~60% reads.
            std::string line;
            switch (rng() % 4) {
              case 0:
                line = "query outofdate";
                break;
              case 1:
                line = "query block t" + std::to_string(rng() % kThreads) +
                       "blk";
                break;
              case 2:
                line = "report";
                break;
              default:
                line = "blockers sim_result=good";
                break;
            }
            RecordedRead read;
            read.line = line;
            read.response = session->Execute(line);
            read.epoch = session->last_read_epoch();
            local.push_back(std::move(read));
          }
        }
        std::lock_guard<std::mutex> lock(reads_mutex);
        for (auto& read : local) reads.push_back(std::move(read));
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
    log = mux.MutationLog();
  }

  ASSERT_FALSE(log.empty());
  ASSERT_FALSE(reads.empty());

  // Serialized replay on a fresh identical server: same blueprint,
  // same mutation order, one session per user — every mutation
  // response, every minted epoch and every pinned-epoch read must
  // reproduce exactly.
  auto replay = MakeEdtcServer();
  replay->database().PublishSnapshot();  // The mux's initial epoch.

  std::map<uint64_t, std::vector<const RecordedRead*>> reads_by_epoch;
  for (const RecordedRead& read : reads) {
    reads_by_epoch[read.epoch].push_back(&read);
  }
  // Reads pinned epochs the replay will reach; nothing below the
  // initial publish, nothing above the final mutation's epoch.
  ASSERT_GE(reads_by_epoch.begin()->first, 1u);
  ASSERT_LE(reads_by_epoch.rbegin()->first, log.back().epoch_after);

  WireSession replay_reader(*replay, "replay-reader");
  replay_reader.set_snapshot_reads(true);
  const auto check_reads_at = [&](uint64_t epoch) {
    const auto it = reads_by_epoch.find(epoch);
    if (it == reads_by_epoch.end()) return;
    for (const RecordedRead* read : it->second) {
      EXPECT_EQ(replay_reader.HandleLine(read->line), read->response)
          << "read '" << read->line << "' diverged at epoch " << epoch;
      EXPECT_EQ(replay_reader.last_read_epoch(), epoch);
    }
    reads_by_epoch.erase(it);
  };

  std::map<std::string, std::unique_ptr<WireSession>> replay_sessions;
  check_reads_at(replay->database().snapshot_epoch());
  for (const MuxLogEntry& entry : log) {
    auto& session = replay_sessions[entry.user];
    if (session == nullptr) {
      session = std::make_unique<WireSession>(*replay, entry.user);
    }
    EXPECT_EQ(session->HandleLine(entry.line), entry.response)
        << "mutation diverged at seq " << entry.seq;
    EXPECT_EQ(replay->database().PublishSnapshot().epoch(), entry.epoch_after)
        << "epoch diverged at seq " << entry.seq;
    check_reads_at(entry.epoch_after);
  }
  EXPECT_TRUE(reads_by_epoch.empty())
      << reads_by_epoch.size() << " read epoch group(s) never reached";
}

TEST(SessionMuxDifferentialTest, ShardedServerMatchesSerializedReplay) {
  // Same property with the mutations flowing through the sharded
  // intake rings (the replay side stays single-engine: the meta-data
  // outcome must be identical either way).
  ServerOptions options;
  options.num_shards = 4;
  auto server = MakeEdtcServer(options);
  ASSERT_EQ(server->sharded_engine()->num_shards(), 4u);

  std::vector<MuxLogEntry> log;
  {
    SessionMux mux(*server);
    constexpr int kThreads = 3;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto session = mux.Connect("user" + std::to_string(t));
        const std::string mine = "s" + std::to_string(t) + "blk";
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 20; ++i) {
          std::string line = (i % 4 == 3)
                                 ? "postEvent hdl_sim up " + mine +
                                       ",HDL_model," +
                                       std::to_string(i / 4 + 1) + " \"good\""
                                 : "checkin " + mine + " HDL_model \"m\"";
          std::string response = session->Execute(line);
          while (response.rfind("busy:", 0) == 0) {
            response = session->Execute(line);
          }
          ASSERT_EQ(response.find("error:"), std::string::npos)
              << line << " -> " << response;
        }
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
    log = mux.MutationLog();
  }

  auto replay = MakeEdtcServer();
  replay->database().PublishSnapshot();
  std::map<std::string, std::unique_ptr<WireSession>> replay_sessions;
  for (const MuxLogEntry& entry : log) {
    auto& session = replay_sessions[entry.user];
    if (session == nullptr) {
      session = std::make_unique<WireSession>(*replay, entry.user);
    }
    EXPECT_EQ(session->HandleLine(entry.line), entry.response)
        << "mutation diverged at seq " << entry.seq;
    EXPECT_EQ(replay->database().PublishSnapshot().epoch(), entry.epoch_after)
        << "epoch diverged at seq " << entry.seq;
  }
}

// --- Policy promote/rollback through the mux ------------------------------

TEST(SessionMuxPolicyTest, PinnedEpochKeepsRuleBindingsAcrossPromote) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto session = mux.Connect("admin");

  ASSERT_EQ(session->Execute("checkin CPU HDL_model \"m\""),
            "ok CPU,HDL_model,1\n");
  ASSERT_EQ(session->Execute("checkin CPU schematic \"s\""),
            "ok CPU,schematic,1\n");
  ASSERT_EQ(session->Execute("link derive CPU,HDL_model,1 CPU,schematic,1"),
            "ok\n");

  // Pin the pre-promote epoch the way a reader session does.
  const Snapshot pinned = server->database().Latest();
  ASSERT_TRUE(pinned.pinned());
  const uint64_t epoch_e = pinned.epoch();
  const std::string dot_at_e = viz::ExportDot(pinned);
  EXPECT_NE(dot_at_e.find("outofdate"), std::string::npos)
      << "the strict binding must label the derive link";

  const uint64_t loose_id = server->PolicyPropose(
      workload::EdtcLoosenedBlueprintText(), "admin", "loosen");
  server->PolicyValidate(loose_id);
  const std::string promoted =
      session->Execute("policy-promote " + std::to_string(loose_id));
  ASSERT_EQ(promoted.rfind("ok promoted version", 0), 0u) << promoted;
  EXPECT_GT(mux.head_epoch(), epoch_e)
      << "retemplating the live links must mint a new epoch";

  // New reads rebind to the loosened rule set...
  const std::string dot_live = session->Execute("viz dot");
  EXPECT_EQ(dot_live.find("outofdate"), std::string::npos) << dot_live;
  EXPECT_EQ(session->last_read_epoch(), mux.head_epoch());

  // ...while the session pinned at epoch E keeps the old bindings
  // byte-identical, both through its handle and through AtEpoch.
  EXPECT_EQ(pinned.epoch(), epoch_e);
  EXPECT_EQ(viz::ExportDot(pinned), dot_at_e);
  EXPECT_EQ(viz::ExportDot(server->database().AtEpoch(epoch_e)), dot_at_e);

  // Rollback restores the strict tables without restart: a fresh read
  // reproduces the epoch-E rendering exactly.
  const std::string rolled = session->Execute("policy-rollback");
  ASSERT_EQ(rolled.rfind("ok rolled back to version 1", 0), 0u) << rolled;
  EXPECT_EQ(session->Execute("viz dot"), dot_at_e);
}

TEST(SessionMuxPolicyTest, RollbackRestoresPropagationOracle) {
  auto server = MakeEdtcServer();
  SessionMux mux(*server);
  auto session = mux.Connect("admin");

  ASSERT_EQ(session->Execute("checkin CPU HDL_model \"m1\""),
            "ok CPU,HDL_model,1\n");
  ASSERT_EQ(session->Execute("checkin CPU schematic \"s1\""),
            "ok CPU,schematic,1\n");
  ASSERT_EQ(session->Execute("link derive CPU,HDL_model,1 CPU,schematic,1"),
            "ok\n");

  const auto outofdate = [&] { return session->Execute("query outofdate"); };

  // Strict phase: a new HDL version invalidates the derived schematic.
  ASSERT_EQ(session->Execute("checkin CPU HDL_model \"m2\""),
            "ok CPU,HDL_model,2\n");
  const std::string strict_before = outofdate();
  EXPECT_NE(strict_before.find("<CPU.schematic.1>"), std::string::npos)
      << strict_before;
  // A check-in event on the schematic marks it up to date again.
  session->Execute("postEvent ckin down CPU,schematic,1");
  EXPECT_EQ(outofdate().find("<CPU.schematic.1>"), std::string::npos);

  const uint64_t loose_id = server->PolicyPropose(
      workload::EdtcLoosenedBlueprintText(), "admin", "loosen");
  server->PolicyValidate(loose_id);
  const uint64_t generation_before =
      server->engine().compiled_rules().generation();
  ASSERT_EQ(session->Execute("policy-promote " + std::to_string(loose_id))
                .rfind("ok promoted", 0),
            0u);
  EXPECT_GT(server->engine().compiled_rules().generation(), generation_before);
  EXPECT_EQ(server->engine().policy_version(), loose_id);

  // Loosened phase: the identical mutation no longer propagates.
  ASSERT_EQ(session->Execute("checkin CPU HDL_model \"m3\""),
            "ok CPU,HDL_model,3\n");
  EXPECT_EQ(outofdate().find("<CPU.schematic.1>"), std::string::npos);

  // Rollback, then the identical mutation propagates exactly as it did
  // before the promote — the before/after oracle for restored tables.
  ASSERT_EQ(session->Execute("policy-rollback")
                .rfind("ok rolled back to version 1", 0),
            0u);
  EXPECT_EQ(server->engine().policy_version(), 1u);
  ASSERT_EQ(session->Execute("checkin CPU HDL_model \"m4\""),
            "ok CPU,HDL_model,4\n");
  EXPECT_EQ(outofdate(), strict_before);
}

// --- Documentation drift --------------------------------------------------

TEST(SessionMuxDocsTest, ReadmeCarriesTheGeneratedCommandTable) {
  std::ifstream readme(std::string(DAMOCLES_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.is_open()) << "README.md not found next to sources";
  std::stringstream buffer;
  buffer << readme.rdbuf();
  const std::string text = buffer.str();

  // The README's wire-command table is the generated table verbatim —
  // regenerate with WireCommandMarkdownTable() when commands change.
  for (const WireCommandInfo& info : WireCommands()) {
    EXPECT_NE(text.find("`" + std::string(info.usage) + "`"),
              std::string::npos)
        << "README.md is missing the usage line for '" << info.name << "'";
  }
  EXPECT_NE(text.find(WireCommandMarkdownTable()), std::string::npos)
      << "README.md command table drifted from WireCommandMarkdownTable()";
}

}  // namespace
}  // namespace damocles::engine
