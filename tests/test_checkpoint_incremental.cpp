// Incremental + background checkpointing and WAL segment retention:
//  * delta persistence round-trips and rejects wrong bases;
//  * base -> delta -> delta chains recover byte-equal state;
//  * the chain limit and a missing base silently force full checkpoints;
//  * failed auto-checkpoints re-arm on an op-count backoff instead of
//    re-attempting on every op (the checkpoint-failure storm), so a
//    script with the same injected failures writes the same checkpoints
//    every run, and the next delta after failed checkpoints still
//    carries their slots;
//  * segment retention prunes below the committed floor, failed
//    removals surface as a prune-behind warning, and recovery handles
//    leftover .tmp manifests, orphaned checkpoint files and partially
//    pruned segment directories.
// The randomized crash-point fuzz lives in test_wal_crash_fuzz.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "engine/project_server.hpp"
#include "engine/wire_session.hpp"
#include "events/journal.hpp"
#include "metadb/persistence.hpp"
#include "metadb/recovery.hpp"
#include "test_util.hpp"

namespace damocles {
namespace {

using engine::CheckpointMode;
using engine::ProjectServer;
using engine::ServerHealth;
using engine::ServerOptions;
using engine::WalStatus;
using engine::WireSession;

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("damocles-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::filesystem::path path() const { return path_; }

 private:
  std::filesystem::path path_;
};

ServerOptions DurableOptions(const std::string& wal_dir, uint32_t shards = 1) {
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.num_shards = shards;
  if (shards > 1) options.deterministic_shards = true;
  return options;
}

std::vector<std::string> ServerJournalLines(ProjectServer& server) {
  return server.sharded_engine()->JournalLines();
}

/// One logged mutation with per-call distinct content (dirties the
/// object table, advances the simulated clock).
void MutateOnce(ProjectServer& server, int i) {
  server.CheckIn("CPU", "HDL_model", "module cpu; // rev " + std::to_string(i),
                 "alice");
  server.AdvanceClock(1);
}

std::string DbText(ProjectServer& server) {
  return metadb::SaveDatabaseString(server.database());
}

/// Sorted "ops" segment file paths in `dir`.
std::vector<std::filesystem::path> OpsSegments(const std::string& dir) {
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ops-", 0) == 0 &&
        name.size() > 4 + 4 &&
        name.substr(name.size() - 4) == ".wal") {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// --- Delta persistence ------------------------------------------------------

TEST(DeltaCheckpoint, DeltaTextRoundTripsOntoBase) {
  TempDir dir("delta-roundtrip");
  auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  MutateOnce(*server, 0);
  server->WalCheckpoint(CheckpointMode::kFull);
  const std::string base_text = DbText(*server);
  // Marks from here on are the delta's.
  const uint64_t since = server->database().CutDirtySet(0).next_since;

  MutateOnce(*server, 1);
  server->CheckIn("CPU", "schematic", "cpu gates", "bob");
  server->Drain();
  const metadb::DirtySet dirty = server->database().CutDirtySet(since);
  EXPECT_FALSE(dirty.empty());
  const std::string delta =
      metadb::SaveDatabaseDeltaString(server->database(), dirty);
  // The delta carries the dirty slots, not the whole database.
  EXPECT_LT(delta.size(), DbText(*server).size());

  metadb::MetaDatabase restored = metadb::LoadDatabaseString(base_text);
  metadb::ApplyDatabaseDeltaString(delta, restored);
  EXPECT_EQ(metadb::SaveDatabaseString(restored), DbText(*server));
}

TEST(DeltaCheckpoint, WrongBaseIsRejected) {
  TempDir dir("delta-wrong-base");
  auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  MutateOnce(*server, 0);
  MutateOnce(*server, 1);
  server->WalCheckpoint(CheckpointMode::kFull);
  const uint64_t since = server->database().CutDirtySet(0).next_since;
  MutateOnce(*server, 2);
  server->Drain();
  const metadb::DirtySet dirty = server->database().CutDirtySet(since);
  const std::string delta =
      metadb::SaveDatabaseDeltaString(server->database(), dirty);
  // Applying onto an empty database: the post-application slot totals
  // cannot match, so the load is refused instead of silently merging.
  metadb::MetaDatabase empty;
  EXPECT_THROW(metadb::ApplyDatabaseDeltaString(delta, empty),
               WireFormatError);
}

// --- Chain recovery ---------------------------------------------------------

TEST(DeltaCheckpoint, ChainRecoversByteEqualState) {
  TempDir dir("delta-chain");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    MutateOnce(*server, 0);
    const uint64_t full_id = server->WalCheckpoint(CheckpointMode::kFull);
    EXPECT_EQ(full_id, 1u);
    MutateOnce(*server, 1);
    EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kDelta), 2u);
    MutateOnce(*server, 2);
    server->CheckIn("ALU", "HDL_model", "module alu;", "bob");
    EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kDelta), 3u);
    MutateOnce(*server, 3);  // Ops tail past the chain tip.

    const WalStatus status = server->GetWalStatus();
    EXPECT_EQ(status.last_checkpoint_id, 3u);
    EXPECT_TRUE(status.last_checkpoint_delta);
    EXPECT_EQ(status.chain_base_id, 1u);
    EXPECT_EQ(status.chain_length, 3u);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  const WalStatus status = recovered->GetWalStatus();
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.checkpoint_id, 3u);   // Chain tip.
  EXPECT_EQ(status.chain_base_id, 1u);   // Chain survives the restart.
  EXPECT_EQ(status.chain_length, 3u);
  EXPECT_GT(status.replayed_ops, 0u);    // The tail past checkpoint 3.
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(DeltaCheckpoint, FirstDeltaRequestUpgradesToFull) {
  TempDir dir("delta-first");
  auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  MutateOnce(*server, 0);
  EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kDelta), 1u);
  const WalStatus status = server->GetWalStatus();
  EXPECT_FALSE(status.last_checkpoint_delta);  // No base existed.
  EXPECT_EQ(status.chain_base_id, 1u);
  EXPECT_EQ(status.chain_length, 1u);
}

TEST(DeltaCheckpoint, ChainLimitForcesPeriodicFull) {
  TempDir dir("delta-chain-limit");
  ServerOptions options = DurableOptions(dir.str());
  options.checkpoint_chain_limit = 2;
  auto server = testutil::MakeEdtcServer(options);
  MutateOnce(*server, 0);
  server->WalCheckpoint(CheckpointMode::kFull);   // id 1, chain length 1.
  MutateOnce(*server, 1);
  server->WalCheckpoint(CheckpointMode::kDelta);  // id 2, chain length 2.
  EXPECT_TRUE(server->GetWalStatus().last_checkpoint_delta);
  MutateOnce(*server, 2);
  server->WalCheckpoint(CheckpointMode::kDelta);  // Limit hit: forced full.
  const WalStatus status = server->GetWalStatus();
  EXPECT_FALSE(status.last_checkpoint_delta);
  EXPECT_EQ(status.chain_base_id, 3u);  // Chain re-anchored.
  EXPECT_EQ(status.chain_length, 1u);
}

TEST(DeltaCheckpoint, AutoCheckpointsChainAndRecover) {
  TempDir dir("delta-auto");
  ServerOptions options = DurableOptions(dir.str());
  options.checkpoint_every_ops = 5;  // auto_checkpoint_mode defaults to delta.
  std::vector<std::string> lines;
  std::string db_text;
  uint64_t taken = 0;
  {
    auto server = testutil::MakeEdtcServer(options);
    // 20 ops at threshold 5: a handful of checkpoints, comfortably
    // inside the chain limit so the tip is still a delta.
    for (int i = 0; i < 10; ++i) MutateOnce(*server, i);
    const WalStatus status = server->GetWalStatus();
    taken = status.checkpoints_taken;
    EXPECT_GE(taken, 2u);  // First full, later ones delta.
    EXPECT_TRUE(status.last_checkpoint_delta);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

// --- Background checkpointing -----------------------------------------------

/// Polls `done` for up to two seconds: a checkpoint nobody waits for
/// (background_checkpoints) commits or fails on the checkpoint thread.
template <typename Done>
void AwaitCheckpointThread(Done done) {
  for (int spin = 0; spin < 400 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(BackgroundCheckpoint, SynchronousCallsCommitThroughWorker) {
  TempDir dir("bg-sync");
  ServerOptions options = DurableOptions(dir.str());
  options.background_checkpoints = true;
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(options);
    MutateOnce(*server, 0);
    EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kFull), 1u);
    MutateOnce(*server, 1);
    EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kDelta), 2u);
    MutateOnce(*server, 2);
    const WalStatus status = server->GetWalStatus();
    EXPECT_TRUE(status.background);
    EXPECT_EQ(status.last_checkpoint_id, 2u);
    EXPECT_TRUE(status.last_checkpoint_delta);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(BackgroundCheckpoint, AutoCheckpointsCommitEventually) {
  TempDir dir("bg-auto");
  ServerOptions options = DurableOptions(dir.str());
  options.background_checkpoints = true;
  options.checkpoint_every_ops = 4;
  auto server = testutil::MakeEdtcServer(options);
  for (int i = 0; i < 20; ++i) MutateOnce(*server, i);
  AwaitCheckpointThread(
      [&] { return server->GetWalStatus().checkpoints_taken > 0; });
  EXPECT_GT(server->GetWalStatus().checkpoints_taken, 0u);
  EXPECT_EQ(server->GetHealth().checkpoint_failures, 0u);
}

// --- Satellite 1: the checkpoint-failure storm ------------------------------

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

/// Evaluations of `failpoint` that fired.
uint64_t FailpointHits(const std::string& failpoint) {
  for (const common::FailpointStatus& status :
       common::Failpoints::Instance().List()) {
    if (status.name == failpoint) return status.hits;
  }
  return 0;
}

/// The ops-since-commit counts at which auto-checkpoints are attempted
/// while every attempt fails, up to `ops`: the first at `every`, and
/// after k consecutive failures the next every × 2^min(k, 4) ops later.
std::vector<size_t> FailingAttemptOps(size_t every, size_t ops) {
  std::vector<size_t> attempts;
  for (size_t due = every; due <= ops;
       due += every << std::min<size_t>(attempts.size(), 4)) {
    attempts.push_back(due);
  }
  return attempts;
}

TEST(CheckpointBackoff, FailedAutoCheckpointsDoNotStorm) {
  // A write that fails on the checkpoint thread and a cut that fails on
  // the apply thread (its stream sync) both count and back off, whether
  // or not the triggering op waits.
  constexpr size_t kEvery = 4;
  for (const bool background : {false, true}) {
    for (const std::string failpoint : {"checkpoint.write", "wal.fsync"}) {
      SCOPED_TRACE(failpoint + (background ? " background" : " waiting"));
      TempDir dir("ckpt-storm");
      ServerOptions options = DurableOptions(dir.str());
      options.checkpoint_every_ops = kEvery;
      options.background_checkpoints = background;
      auto server = testutil::MakeEdtcServer(options);
      common::Failpoints::Instance().Configure(failpoint, "error");
      // Nothing committed yet, so every logged op counts toward the
      // schedule.
      const auto ops = [&] { return server->GetWalStatus().ops_logged; };
      const auto taken = [&] {
        return server->GetWalStatus().checkpoints_taken;
      };

      // A burst far past the threshold. The storm bug reset the op
      // counter to the threshold on failure, so every one of these ops
      // re-attempted (and re-failed) a checkpoint: one failure per op.
      // With the op-count backoff, 80 ops hold four attempts.
      for (int i = 0; i < 40; ++i) MutateOnce(*server, i);
      const std::vector<size_t> attempts = FailingAttemptOps(kEvery, ops());
      ASSERT_EQ(attempts.size(), 4u);
      AwaitCheckpointThread(
          [&] { return server->GetHealth().checkpoint_failures > 0; });
      // A later background cut may still be in flight with the
      // failpoint armed: let it finish before counting the storm.
      AwaitCheckpointThread(
          [&] { return !server->GetWalStatus().checkpoint_in_flight; });
      const ServerHealth stormy = server->GetHealth();
      EXPECT_GE(stormy.checkpoint_failures, 1u);
      EXPECT_LE(stormy.checkpoint_failures, 6u);
      EXPECT_LE(FailpointHits(failpoint), 6u);
      EXPECT_EQ(taken(), 0u);
      EXPECT_FALSE(server->degraded());  // Checkpoint failures never degrade.
      common::Failpoints::Instance().ClearAll();

      if (!background) {
        // A waiting op pins the schedule. The armed attempt waits
        // every × 2^min(k, 4) ops past the last failed one; no op before
        // it attempts, and that op commits (the op counter was never
        // reset).
        EXPECT_EQ(stormy.checkpoint_failures, attempts.size());
        const size_t armed =
            attempts.back() + (kEvery << std::min<size_t>(attempts.size(), 4));
        while (ops() + 1 < armed) server->AdvanceClock(1);
        EXPECT_EQ(taken(), 0u);
        server->AdvanceClock(1);
        EXPECT_EQ(ops(), armed);
        EXPECT_EQ(taken(), 1u);
      } else {
        // Attempts due while a background write is in flight are
        // skipped, so how many fail depends on the write's speed. Any
        // armed attempt is due within every × 2^4 ops.
        const size_t latest = ops() + (kEvery << 4);
        while (ops() < latest) server->AdvanceClock(1);
        AwaitCheckpointThread([&] { return taken() > 0; });
        EXPECT_GE(taken(), 1u);
      }
      EXPECT_GT(server->GetWalStatus().last_checkpoint_id, 0u);
      EXPECT_EQ(server->GetHealth().checkpoint_failures,
                stormy.checkpoint_failures);
    }
  }
}

TEST(CheckpointBackoff, InjectedWriteFailuresGiveTheSameCheckpointsEachRun) {
  // The same op script with the same seeded write failures, run twice:
  // the backoff counts ops, not time, so both runs attempt, fail and
  // commit at the same ops and leave the same checkpoints behind.
  const auto run = [](const std::string& tag) {
    TempDir dir(tag);
    ServerOptions options = DurableOptions(dir.str());
    options.checkpoint_every_ops = 3;
    auto server = testutil::MakeEdtcServer(options);
    common::Failpoints::Instance().Configure("checkpoint.write",
                                             "error,prob=0.15,seed=11");
    std::vector<uint64_t> ids;
    for (int i = 0; i < 150; ++i) {
      MutateOnce(*server, i);
      const uint64_t id = server->GetWalStatus().last_checkpoint_id;
      if (ids.empty() || ids.back() != id) ids.push_back(id);
    }
    common::Failpoints::Instance().ClearAll();
    const uint64_t failures = server->GetHealth().checkpoint_failures;
    server.reset();
    std::set<std::string> manifests;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("manifest-", 0) == 0) manifests.insert(name);
    }
    return std::make_tuple(ids, manifests, failures);
  };
  const auto [ids, manifests, failures] = run("ckpt-same-a");
  const auto [again_ids, again_manifests, again_failures] = run("ckpt-same-b");
  EXPECT_GT(failures, 2u);
  EXPECT_GT(ids.size(), 3u);
  EXPECT_EQ(ids, again_ids);
  EXPECT_EQ(manifests, again_manifests);
  EXPECT_EQ(failures, again_failures);
}

TEST(CheckpointBackoff, FailedDeltaMarksAreNotLost) {
  // Each case commits a full checkpoint, then fails one or more
  // checkpoints, each after a mutation only it saw, then commits a
  // delta. A failed write never moves the committed dirty start, so
  // that delta chains onto checkpoint 1 and must carry every slot
  // dirtied since it, the failed cuts' slots included; recovery from
  // it alone (no ops tail) must be byte-equal.
  struct Case {
    const char* name;
    std::vector<CheckpointMode> failed;
  };
  const Case cases[] = {
      {"failed delta", {CheckpointMode::kDelta}},
      {"failed full", {CheckpointMode::kFull}},
      {"two failed deltas", {CheckpointMode::kDelta, CheckpointMode::kDelta}},
  };
  for (const bool background : {false, true}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + (background ? " background" : ""));
      TempDir dir("ckpt-dirty-carry");
      ServerOptions options = DurableOptions(dir.str());
      options.background_checkpoints = background;
      auto server = testutil::MakeEdtcServer(options);
      MutateOnce(*server, 0);
      ASSERT_EQ(server->WalCheckpoint(CheckpointMode::kFull), 1u);
      int op = 1;
      for (const CheckpointMode mode : c.failed) {
        MutateOnce(*server, op++);
        common::Failpoints::Instance().Configure("checkpoint.write",
                                                 "error,count=1");
        EXPECT_THROW(server->WalCheckpoint(mode), Error);
        common::Failpoints::Instance().ClearAll();
      }
      MutateOnce(*server, op++);
      EXPECT_EQ(server->WalCheckpoint(CheckpointMode::kDelta), 2u);
      const WalStatus status = server->GetWalStatus();
      EXPECT_TRUE(status.last_checkpoint_delta);
      EXPECT_EQ(status.chain_base_id, 1u);
      const std::vector<std::string> lines = ServerJournalLines(*server);
      const std::string db_text = DbText(*server);
      server.reset();
      auto recovered =
          std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
      EXPECT_EQ(recovered->GetWalStatus().checkpoint_id, 2u);
      EXPECT_EQ(recovered->GetWalStatus().replayed_ops, 0u);
      EXPECT_EQ(DbText(*recovered), db_text);
      EXPECT_EQ(ServerJournalLines(*recovered), lines);
    }
  }
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

// --- Segment retention ------------------------------------------------------

ServerOptions RetentionOptions(const std::string& wal_dir) {
  ServerOptions options = DurableOptions(wal_dir);
  options.wal_segment_bytes = 256;  // Roll segments constantly.
  options.wal_retain_segments = 0;
  return options;
}

TEST(SegmentRetention, PrunesBelowCommittedFloorAndRecovers) {
  TempDir dir("retention-prune");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(RetentionOptions(dir.str()));
    for (int i = 0; i < 30; ++i) MutateOnce(*server, i);
    EXPECT_GT(OpsSegments(dir.str()).size(), 3u);
    server->WalCheckpoint(CheckpointMode::kFull);
    const WalStatus status = server->GetWalStatus();
    EXPECT_GT(status.segments_pruned, 0u);
    EXPECT_GT(status.bytes_pruned, 0u);
    EXPECT_EQ(status.failed_removals, 0u);
    // Everything below the floor went; the writer's segment stays.
    EXPECT_LE(OpsSegments(dir.str()).size(), 2u);
    MutateOnce(*server, 30);  // Tail past the checkpoint.
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(SegmentRetention, SupersededCheckpointChainsArePruned) {
  TempDir dir("retention-chains");
  auto server = testutil::MakeEdtcServer(RetentionOptions(dir.str()));
  MutateOnce(*server, 0);
  server->WalCheckpoint(CheckpointMode::kFull);  // id 1.
  MutateOnce(*server, 1);
  server->WalCheckpoint(CheckpointMode::kDelta);  // id 2 chains onto 1.
  MutateOnce(*server, 2);
  server->WalCheckpoint(CheckpointMode::kFull);  // id 3 re-anchors.
  const WalStatus status = server->GetWalStatus();
  EXPECT_GT(status.checkpoints_pruned, 0u);
  // The superseded chain (manifests 1 and 2) is gone; the live full
  // checkpoint remains.
  EXPECT_FALSE(std::filesystem::exists(dir.path() /
                                       metadb::ManifestFileName(1)));
  EXPECT_FALSE(std::filesystem::exists(dir.path() /
                                       metadb::ManifestFileName(2)));
  EXPECT_TRUE(std::filesystem::exists(dir.path() /
                                      metadb::ManifestFileName(3)));
}

TEST(SegmentRetention, DefaultNeverPrunes) {
  TempDir dir("retention-off");
  ServerOptions options = DurableOptions(dir.str());
  options.wal_segment_bytes = 256;  // retain_segments stays -1.
  auto server = testutil::MakeEdtcServer(options);
  for (int i = 0; i < 20; ++i) MutateOnce(*server, i);
  const size_t segments_before = OpsSegments(dir.str()).size();
  EXPECT_GT(segments_before, 2u);
  server->WalCheckpoint(CheckpointMode::kFull);
  const WalStatus status = server->GetWalStatus();
  EXPECT_EQ(status.segments_pruned, 0u);
  EXPECT_EQ(status.checkpoints_pruned, 0u);
  EXPECT_EQ(OpsSegments(dir.str()).size(), segments_before);
}

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

TEST(SegmentRetention, InterruptedPruneWarnsAndStillRecovers) {
  TempDir dir("retention-interrupted");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(RetentionOptions(dir.str()));
    for (int i = 0; i < 30; ++i) MutateOnce(*server, i);
    common::Failpoints::Instance().Configure("wal.prune", "error,count=1");
    // The checkpoint itself commits; only the retention pass trips.
    const uint64_t id = server->WalCheckpoint(CheckpointMode::kFull);
    common::Failpoints::Instance().ClearAll();
    EXPECT_GT(id, 0u);
    const ServerHealth health = server->GetHealth();
    EXPECT_TRUE(health.prune_behind);
    EXPECT_GE(health.failed_removals, 1u);
    EXPECT_FALSE(server->degraded());  // A warning, not an outage.
    EXPECT_GE(server->GetWalStatus().failed_removals, 1u);
    MutateOnce(*server, 30);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

// --- Satellite 4: recovery negatives ----------------------------------------

TEST(RecoveryNegatives, LeftoverManifestTmpIsSwept) {
  TempDir dir("gc-tmp");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    MutateOnce(*server, 0);
    server->WalCheckpoint(CheckpointMode::kFull);
    MutateOnce(*server, 1);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  // A crash between manifest write and rename leaves the temp file.
  const std::filesystem::path tmp =
      dir.path() / (metadb::ManifestFileName(99) + ".tmp");
  std::ofstream(tmp) << "torn manifest garbage\n";
  ASSERT_TRUE(std::filesystem::exists(tmp));

  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_GT(recovered->GetWalStatus().gc_artifacts_removed, 0u);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(RecoveryNegatives, StaleCheckpointFileWithoutManifestIsSwept) {
  TempDir dir("gc-orphan");
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    MutateOnce(*server, 0);
    server->WalCheckpoint(CheckpointMode::kFull);
    db_text = DbText(*server);
  }
  // Checkpoint files whose manifest never landed (or was deleted).
  const std::filesystem::path orphan_db =
      dir.path() / metadb::CheckpointFileName(42, "db");
  const std::filesystem::path orphan_delta =
      dir.path() / metadb::CheckpointFileName(42, "dbd");
  std::ofstream(orphan_db) << "stale checkpoint payload\n";
  std::ofstream(orphan_delta) << "stale delta payload\n";

  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  EXPECT_FALSE(std::filesystem::exists(orphan_db));
  EXPECT_FALSE(std::filesystem::exists(orphan_delta));
  EXPECT_GT(recovered->GetWalStatus().gc_artifacts_removed, 0u);
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(RecoveryNegatives, PartiallyPrunedSegmentDirectoryRecovers) {
  TempDir dir("gc-partial-prune");
  std::vector<std::string> lines;
  std::string db_text;
  {
    ServerOptions options = DurableOptions(dir.str());
    options.wal_segment_bytes = 256;  // Many small segments, no pruning.
    auto server = testutil::MakeEdtcServer(options);
    for (int i = 0; i < 30; ++i) MutateOnce(*server, i);
    server->WalCheckpoint(CheckpointMode::kFull);  // Floor covers them all.
    MutateOnce(*server, 30);  // Tail in the newest segment.
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  // A prune killed mid-loop removes an ascending prefix; simulate the
  // worst leftover — a gap (removal succeeded for segment 2 but not 1),
  // stranding segment 1 below the discontinuity.
  std::vector<std::filesystem::path> segments = OpsSegments(dir.str());
  ASSERT_GE(segments.size(), 3u);
  std::filesystem::remove(segments[1]);

  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  // The stranded below-gap prefix was garbage-collected...
  EXPECT_FALSE(std::filesystem::exists(segments[0]));
  EXPECT_GT(recovered->GetWalStatus().gc_artifacts_removed, 0u);
  // ...and recovery never needed ops below the committed floor.
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

/// A stray file whose digit run overflows uint64 is skipped like any
/// other non-matching name: the reopen neither throws nor touches it,
/// and recovers byte-equal state.
void ExpectOverflowingNameIsSkipped(const std::string& tag,
                                    const std::string& stray_name) {
  TempDir dir(tag);
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    MutateOnce(*server, 0);
    server->WalCheckpoint(CheckpointMode::kFull);
    MutateOnce(*server, 1);
    lines = ServerJournalLines(*server);
    db_text = DbText(*server);
  }
  const std::filesystem::path stray = dir.path() / stray_name;
  std::ofstream(stray) << "stray\n";

  std::unique_ptr<ProjectServer> recovered;
  ASSERT_NO_THROW(recovered = std::make_unique<ProjectServer>(
                      "edtc", DurableOptions(dir.str())));
  EXPECT_TRUE(recovered->GetWalStatus().recovered);
  EXPECT_TRUE(std::filesystem::exists(stray));
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(DbText(*recovered), db_text);
}

TEST(RecoveryNegatives, OverflowingManifestNameIsSkipped) {
  ExpectOverflowingNameIsSkipped("overflow-manifest",
                                 "manifest-99999999999999999999999.txt");
}

TEST(RecoveryNegatives, OverflowingSegmentNameIsSkipped) {
  ExpectOverflowingNameIsSkipped("overflow-segment",
                                 "ops-99999999999999999999999.wal");
}

TEST(RecoveryNegatives, OverflowingCheckpointNameIsSkipped) {
  ExpectOverflowingNameIsSkipped("overflow-checkpoint",
                                 "checkpoint-99999999999999999999999.db");
}

TEST(RecoveryNegatives, OverflowingManifestFieldIsAWireFormatError) {
  TempDir dir("overflow-field");
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    MutateOnce(*server, 0);
    server->WalCheckpoint(CheckpointMode::kFull);
  }
  std::ifstream in(dir.path() / metadb::ManifestFileName(1));
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_NO_THROW(metadb::ParseWalManifest(text));
  const size_t key = text.find("\nop-seq ");
  ASSERT_NE(key, std::string::npos);
  const size_t value = key + 8;
  const size_t value_end = text.find_first_not_of("0123456789", value);
  std::string overflowing = text;
  overflowing.replace(value, value_end - value, "99999999999999999999999");
  EXPECT_THROW(metadb::ParseWalManifest(overflowing), WireFormatError);
}

// --- Wire surface -----------------------------------------------------------

TEST(WireCheckpoint, DeltaCommandAndStatusChain) {
  TempDir dir("wire-delta");
  auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  WireSession session(*server, "alice");
  EXPECT_EQ(session.HandleLine("checkin CPU HDL_model \"module cpu;\""),
            "ok CPU,HDL_model,1\n");
  EXPECT_EQ(session.HandleLine("wal-checkpoint"), "ok checkpoint 1\n");
  EXPECT_EQ(session.HandleLine("checkin CPU HDL_model \"module cpu; //2\""),
            "ok CPU,HDL_model,2\n");
  EXPECT_EQ(session.HandleLine("wal-checkpoint delta"),
            "ok checkpoint 2 delta base 1\n");
  EXPECT_EQ(session.HandleLine("wal-checkpoint bogus"),
            "error: usage: wal-checkpoint [full|delta]\n");
  const std::string status = session.HandleLine("wal-status");
  EXPECT_NE(status.find("chain tip 2 (delta), base 1, length 2"),
            std::string::npos);
  EXPECT_NE(status.find("checkpoints inline, retention off"),
            std::string::npos);
}

TEST(WireCheckpoint, StatusShowsRetentionCounters) {
  TempDir dir("wire-retention");
  auto server = testutil::MakeEdtcServer(RetentionOptions(dir.str()));
  WireSession session(*server, "alice");
  for (int i = 0; i < 30; ++i) MutateOnce(*server, i);
  EXPECT_EQ(session.HandleLine("wal-checkpoint").rfind("ok checkpoint", 0),
            0u);
  const std::string status = session.HandleLine("wal-status");
  EXPECT_NE(status.find("retention keep 0"), std::string::npos);
  EXPECT_NE(status.find("segment(s)"), std::string::npos);
  EXPECT_EQ(status.find("pruning is behind"), std::string::npos);
}

}  // namespace
}  // namespace damocles
