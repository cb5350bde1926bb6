// Chaos fuzz for the degraded-mode state machine: randomized fault
// schedules (injected WAL append/flush/fsync/roll failures, checkpoint
// ENOSPC, ring spills) over the crash-fuzz workload, 1- and 4-shard.
//
// Each seeded iteration first runs the workload fault-free and captures
// the end state. It then replays the identical plan on a fresh WAL
// directory while a seeded chaos schedule arms failpoints between
// steps. The invariants:
//
//  * no crash, no hang — every fault either heals within the bounded
//    retry budget or trips degraded read-only mode;
//  * while degraded, reads are still answered in-band (health, report,
//    query) and mutations are rejected with "degraded: ..." WITHOUT
//    being applied;
//  * after clearing the fault and healing (wal-reopen), retrying the
//    rejected step converges: the chaos run's end state equals the
//    fault-free run's end state exactly;
//  * the heal checkpoint is durable: a fresh server recovering from
//    the chaos directory reproduces the same end state (journal
//    multiset included — the heal checkpoint's fresh row writers write
//    every journal whole, whatever the failing WAL left on disk).
//
// Faults are armed with bounded hit counts so every schedule drains;
// the probability draws are seeded so failures reproduce by seed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "engine/project_server.hpp"
#include "engine/wire_session.hpp"
#include "events/wal.hpp"
#include "metadb/persistence.hpp"

namespace damocles {
namespace {

using engine::ProjectServer;
using engine::ServerOptions;
using events::FsyncPolicy;
using metadb::Oid;

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

// Same schedule-invariant blueprint as the crash fuzz: constant-valued
// rules, so the threaded 4-shard variant converges to one state.
constexpr const char* kChaosBlueprint = R"(blueprint chaos_fuzz
view default
  when edit do edited = yes done
  when ckin do checked = yes done
endview
view hdl
  when edit do edited = yes done
  when ckin do checked = yes done
  when note do noted = yes done
endview
view relay
  link_from hdl propagates edit, ckin type derived
  when edit do post note down done
  when note do noted = yes done
  when ckin do checked = yes done
endview
view sink
  link_from relay propagates note, edit type derived
  link_from hdl propagates ckin type derived
  when note do noted = yes done
  when edit do edited = yes done
  when ckin do checked = yes done
endview
endblueprint)";

// A loosened variant for the policy-lifecycle steps: same views and
// constant-valued rules, fewer propagated events.
constexpr const char* kChaosBlueprintLoose = R"(blueprint chaos_fuzz
view default
  when edit do edited = yes done
  when ckin do checked = yes done
endview
view hdl
  when edit do edited = yes done
  when ckin do checked = yes done
  when note do noted = yes done
endview
view relay
  link_from hdl propagates edit type derived
  when edit do edited = yes done
  when note do noted = yes done
  when ckin do checked = yes done
endview
view sink
  link_from relay propagates note type derived
  link_from hdl propagates ckin type derived
  when note do noted = yes done
  when edit do edited = yes done
  when ckin do checked = yes done
endview
endblueprint)";

struct Step {
  enum Kind {
    kCheckIn,
    kLink,
    kEvent,
    kAdvance,
    kCheckpoint,
    kPolicyPropose,
    kPolicyValidate,
    kPolicyPromote,
    kPolicyRollback,
  } kind = kCheckIn;
  std::string block;
  std::string view;
  std::string content;
  Oid link_from;
  Oid link_to;
  std::string event;
  int version = 1;
  int64_t seconds = 0;
  uint64_t policy_id = 0;
  bool policy_loose = false;
};

/// Mirrors the PolicyStore lifecycle so the plan only emits legal
/// transitions — every policy step is applied (or rejected solely with
/// DegradedError) and logs exactly one WAL op. Version 1 is the
/// initializeBlueprint adoption.
struct PolicyModel {
  enum Status { kProposed, kValidated, kPromoted, kSuperseded, kRolledBack };
  uint64_t next_id = 2;
  std::vector<uint64_t> stack{1};
  std::map<uint64_t, Status> status{{1, kPromoted}};

  Step Propose() {
    Step step;
    step.kind = Step::kPolicyPropose;
    step.policy_id = next_id++;
    step.policy_loose = step.policy_id % 2 == 0;
    status[step.policy_id] = kProposed;
    return step;
  }

  std::vector<uint64_t> WithStatus(std::initializer_list<Status> wanted,
                                   uint64_t exclude) const {
    std::vector<uint64_t> out;
    for (const auto& [id, st] : status) {
      if (id == exclude) continue;
      for (const Status w : wanted) {
        if (st == w) {
          out.push_back(id);
          break;
        }
      }
    }
    return out;
  }

  /// Emits one random legal lifecycle step (falls back to propose).
  Step RandomStep(Rng& rng) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return Propose();
      case 1: {
        const std::vector<uint64_t> ids = WithStatus({kProposed}, 0);
        if (ids.empty()) return Propose();
        Step step;
        step.kind = Step::kPolicyValidate;
        step.policy_id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        // Both blueprint variants validate cleanly.
        status[step.policy_id] = kValidated;
        return step;
      }
      case 2: {
        const std::vector<uint64_t> ids =
            WithStatus({kValidated, kSuperseded, kRolledBack}, stack.back());
        if (ids.empty()) return Propose();
        Step step;
        step.kind = Step::kPolicyPromote;
        step.policy_id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        status[stack.back()] = kSuperseded;
        stack.push_back(step.policy_id);
        status[step.policy_id] = kPromoted;
        return step;
      }
      default: {
        if (stack.size() < 2) return Propose();
        Step step;
        step.kind = Step::kPolicyRollback;
        status[stack.back()] = kRolledBack;
        stack.pop_back();
        status[stack.back()] = kPromoted;
        return step;
      }
    }
  }
};

std::vector<Step> MakePlan(uint64_t seed) {
  Rng rng(seed);
  std::vector<Step> plan;
  const char* kViews[] = {"hdl", "relay", "sink", "sch"};
  const char* kEvents[] = {"edit", "note", "ckin"};
  const int blocks = static_cast<int>(rng.UniformInt(3, 6));

  std::map<std::pair<std::string, std::string>, int> versions;
  std::vector<Oid> oids;
  PolicyModel policy;

  const int steps = static_cast<int>(rng.UniformInt(20, 30));
  for (int i = 0; i < steps; ++i) {
    Step step;
    const double draw = oids.empty() ? 0.0 : rng.UniformDouble();
    if (draw < 0.30) {
      step.kind = Step::kCheckIn;
      step.block = "blk" + std::to_string(rng.UniformInt(0, blocks - 1));
      step.view = kViews[rng.UniformInt(0, 3)];
      const int version = ++versions[{step.block, step.view}];
      step.content = step.block + "/" + step.view + " v" +
                     std::to_string(version) + " seed" + std::to_string(seed);
      oids.push_back(Oid{step.block, step.view, version});
    } else if (draw < 0.45 && oids.size() >= 2) {
      step.kind = Step::kLink;
      step.link_from = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      step.link_to = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      if (step.link_from == step.link_to) continue;
    } else if (draw < 0.70) {
      step.kind = Step::kEvent;
      const Oid& target = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      step.block = target.block;
      step.view = target.view;
      step.version = target.version;
      step.event = kEvents[rng.UniformInt(0, 2)];
    } else if (draw < 0.78) {
      step.kind = Step::kAdvance;
      step.seconds = rng.UniformInt(1, 600);
    } else if (draw < 0.85) {
      step.kind = Step::kCheckpoint;
    } else {
      step = policy.RandomStep(rng);
    }
    plan.push_back(std::move(step));
  }
  return plan;
}

/// Applies one step. DegradedError propagates to the caller (the step
/// was rejected, not applied); checkpoint failures are swallowed like
/// an operator shrugging at a failed backup.
void DoStep(ProjectServer& server, const Step& step) {
  switch (step.kind) {
    case Step::kCheckIn:
      server.CheckIn(step.block, step.view, step.content, "chaos");
      break;
    case Step::kLink:
      try {
        server.RegisterLink(metadb::LinkKind::kDerive, step.link_from,
                            step.link_to);
      } catch (const DegradedError&) {
        throw;
      } catch (const Error&) {
        // Deterministically rejected in the fault-free run too.
      }
      break;
    case Step::kEvent: {
      events::EventMessage event;
      event.name = step.event;
      event.direction = events::Direction::kDown;
      event.target = Oid{step.block, step.view, step.version};
      event.user = "chaos";
      event.timestamp = server.clock().NowSeconds();
      server.Submit(std::move(event));
      break;
    }
    case Step::kAdvance:
      server.AdvanceClock(step.seconds);
      break;
    case Step::kCheckpoint:
      try {
        server.WalCheckpoint();
      } catch (const Error&) {
        // A faulted checkpoint leaves the previous manifest in charge.
      }
      break;
    // Policy lifecycle ops throw DegradedError only before mutating the
    // store (RequireWritable at entry), so the heal-and-retry loop
    // never double-applies them.
    case Step::kPolicyPropose:
      server.PolicyPropose(
          step.policy_loose ? kChaosBlueprintLoose : kChaosBlueprint, "chaos",
          "proposal " + std::to_string(step.policy_id));
      break;
    case Step::kPolicyValidate:
      server.PolicyValidate(step.policy_id);
      break;
    case Step::kPolicyPromote:
      server.PolicyPromote(step.policy_id);
      break;
    case Step::kPolicyRollback:
      server.PolicyRollback();
      break;
  }
}

struct Fingerprint {
  std::vector<std::string> journal;
  std::string db_text;
  std::string workspace_text;
  int64_t clock_seconds = 0;
  uint64_t epoch_ceiling = 0;
  std::string policy_text;      ///< Serialized policy commit chain.
  uint64_t policy_version = 0;  ///< Version the engines are bound to.
};

Fingerprint Capture(ProjectServer& server) {
  Fingerprint fp;
  fp.journal = server.sharded_engine()->JournalLines();
  fp.epoch_ceiling = server.sharded_engine()->epoch_ceiling();
  std::sort(fp.journal.begin(), fp.journal.end());
  fp.db_text = metadb::SaveDatabaseString(server.database());
  fp.workspace_text = metadb::SaveWorkspaceText(server.workspace());
  fp.clock_seconds = server.clock().NowSeconds();
  fp.policy_text = server.policy_store().SerializeText();
  fp.policy_version = server.engine().policy_version();
  return fp;
}

ServerOptions MakeOptions(uint64_t seed, const std::string& wal_dir) {
  Rng rng(seed ^ 0xc0ffee);
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.wal_segment_bytes = static_cast<size_t>(rng.UniformInt(256, 4096));
  const FsyncPolicy policies[] = {FsyncPolicy::kNone, FsyncPolicy::kBatch,
                                  FsyncPolicy::kEveryRecord};
  options.wal_fsync = policies[rng.UniformInt(0, 2)];
  // Small bounded retry so exhausted-budget (degraded) and healed-
  // within-budget paths both occur without slowing the suite.
  options.wal_retry.attempts = 2;
  options.wal_retry.initial = std::chrono::milliseconds(0);
  options.wal_retry.max = std::chrono::milliseconds(1);
  if (seed % 2 == 1) {
    options.num_shards = 4;
    options.deterministic_shards = (seed % 4 == 1);
  }
  return options;
}

/// Degradations observed across all seeds in this binary; the suite
/// asserts the schedules actually exercised the machine.
std::atomic<int> g_degradations{0};
std::atomic<int> g_injected_faults{0};

/// One step of the chaos schedule: maybe arm a failpoint. Bounded hit
/// counts guarantee the schedule drains.
void MaybeArmFault(Rng& chaos, uint64_t seed, bool sharded) {
  if (chaos.UniformDouble() >= 0.30) return;
  static const char* kNames[] = {
      "wal.append", "wal.flush",        "wal.fsync",
      "wal.roll",   "checkpoint.write", "checkpoint.manifest.rename",
  };
  const char* name = sharded && chaos.UniformDouble() < 0.15
                         ? "sharded.ring.spill"
                         : kNames[chaos.UniformInt(0, 5)];
  std::string config;
  switch (chaos.UniformInt(0, 4)) {
    case 0:
      config = "error,count=" + std::to_string(chaos.UniformInt(1, 3));
      break;
    case 1:
      config = "errno:ENOSPC,count=" + std::to_string(chaos.UniformInt(1, 2));
      break;
    case 2:
      config = "errno:EIO,prob=0.5,count=3,seed=" + std::to_string(seed);
      break;
    case 3:
      config = "short:" + std::to_string(chaos.UniformInt(1, 48)) + ",count=1";
      break;
    default:
      config = "delay:1,count=2";
      break;
  }
  common::Failpoints::Instance().Configure(name, config);
  g_injected_faults.fetch_add(1, std::memory_order_relaxed);
}

/// While degraded: reads must keep answering in-band, then clearing
/// the fault plus wal-reopen must restore writability.
void ProbeReadsAndHeal(ProjectServer& server, uint64_t seed) {
  g_degradations.fetch_add(1, std::memory_order_relaxed);
  engine::WireSession reads(server, "probe");
  const std::string health = reads.HandleLine("health");
  ASSERT_EQ(health.rfind("health degraded", 0), 0u)
      << "seed " << seed << ": " << health;
  for (const char* line : {"report", "query outofdate", "wal-status"}) {
    const std::string response = reads.HandleLine(line);
    ASSERT_TRUE(response.rfind("degraded:", 0) != 0 &&
                response.rfind("error:", 0) != 0)
        << "seed " << seed << ": read '" << line
        << "' not answered while degraded: " << response;
  }
  common::Failpoints::Instance().ClearAll();
  server.WalReopen();
  ASSERT_FALSE(server.degraded()) << "seed " << seed;
  const std::string healed = reads.HandleLine("health");
  ASSERT_EQ(healed.rfind("health ok", 0), 0u) << "seed " << seed;
}

void RunSeed(uint64_t seed) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("damocles-chaos-" + std::to_string(::getpid()) + "-" +
       std::to_string(seed));
  const std::filesystem::path clean_dir = base.string() + "-clean";
  const std::filesystem::path chaos_dir = base.string() + "-chaos";
  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(chaos_dir);
  common::Failpoints::Instance().ClearAll();

  const std::vector<Step> plan = MakePlan(seed);

  // Fault-free reference run.
  Fingerprint expected;
  {
    auto server = std::make_unique<ProjectServer>(
        "chaos", MakeOptions(seed, clean_dir.string()));
    server->InitializeBlueprint(kChaosBlueprint);
    for (const Step& step : plan) DoStep(*server, step);
    server->Drain();
    expected = Capture(*server);
  }

  // Chaos run: same plan, fault schedule armed between steps. A step
  // rejected with DegradedError is retried after the heal — it was
  // not applied, so the retry cannot double-apply.
  Rng chaos(seed ^ 0x5eed);
  {
    auto server = std::make_unique<ProjectServer>(
        "chaos", MakeOptions(seed, chaos_dir.string()));
    server->InitializeBlueprint(kChaosBlueprint);
    for (const Step& step : plan) {
      MaybeArmFault(chaos, seed, server->sharded_engine()->num_shards() > 1);
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 5) << "seed " << seed << ": step keeps failing";
        try {
          DoStep(*server, step);
          break;
        } catch (const DegradedError&) {
          ProbeReadsAndHeal(*server, seed);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    common::Failpoints::Instance().ClearAll();
    if (server->degraded()) {
      ProbeReadsAndHeal(*server, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
    server->Drain();

    const Fingerprint actual = Capture(*server);
    ASSERT_EQ(actual.journal, expected.journal) << "seed " << seed;
    ASSERT_EQ(actual.db_text, expected.db_text) << "seed " << seed;
    ASSERT_EQ(actual.workspace_text, expected.workspace_text)
        << "seed " << seed;
    ASSERT_EQ(actual.clock_seconds, expected.clock_seconds)
        << "seed " << seed;
    ASSERT_EQ(actual.epoch_ceiling, expected.epoch_ceiling)
        << "seed " << seed;
    ASSERT_EQ(actual.policy_text, expected.policy_text) << "seed " << seed;
    ASSERT_EQ(actual.policy_version, expected.policy_version)
        << "seed " << seed;

    // Make the healed state durable, then prove it below.
    server->WalCheckpoint();
  }

  // Durability of the healed state: recover from the chaos directory
  // and compare again (journal included — a cut whose row write failed,
  // and the heal, rewrite the stream from a reset).
  {
    auto recovered = std::make_unique<ProjectServer>(
        "chaos", MakeOptions(seed, chaos_dir.string()));
    recovered->Drain();
    const Fingerprint actual = Capture(*recovered);
    ASSERT_EQ(actual.journal, expected.journal)
        << "seed " << seed << " (recovered)";
    ASSERT_EQ(actual.db_text, expected.db_text)
        << "seed " << seed << " (recovered)";
    ASSERT_EQ(actual.workspace_text, expected.workspace_text)
        << "seed " << seed << " (recovered)";
    ASSERT_EQ(actual.clock_seconds, expected.clock_seconds)
        << "seed " << seed << " (recovered)";
    ASSERT_EQ(actual.policy_text, expected.policy_text)
        << "seed " << seed << " (recovered)";
    ASSERT_EQ(actual.policy_version, expected.policy_version)
        << "seed " << seed << " (recovered)";
  }

  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(chaos_dir);
}

void RunSeedRange(uint64_t first_seed, uint64_t last_seed) {
  g_degradations.store(0);
  g_injected_faults.store(0);
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      common::Failpoints::Instance().ClearAll();
      return;
    }
  }
  common::Failpoints::Instance().ClearAll();
  // The range must have actually exercised the fault machinery — a
  // silent no-op chaos schedule would pass everything vacuously. The
  // counters are checked per test because ctest runs each test in its
  // own process.
  EXPECT_GT(g_injected_faults.load(), 50);
  EXPECT_GT(g_degradations.load(), 0)
      << "no seed ever tripped degraded mode; the schedules are toothless";
}

// 3 × 44 = 132 seeded fault schedules. Even seeds run 1-shard, odd
// seeds 4-shard (deterministic and threaded alternating), matching the
// crash fuzz split.
TEST(FaultChaosFuzz, HealedStateEqualsFaultFreeSeeds0To43) {
  RunSeedRange(0, 43);
}

TEST(FaultChaosFuzz, HealedStateEqualsFaultFreeSeeds44To87) {
  RunSeedRange(44, 87);
}

TEST(FaultChaosFuzz, HealedStateEqualsFaultFreeSeeds88To131) {
  RunSeedRange(88, 131);
}

#else  // !DAMOCLES_FAILPOINTS_ENABLED

TEST(FaultChaosFuzz, SkippedWithoutFailpoints) {
  GTEST_SKIP() << "failpoints compiled out (DAMOCLES_FAILPOINTS=OFF)";
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

}  // namespace
}  // namespace damocles
