#include "engine/wire_session.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/strings.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"

namespace damocles::engine {
namespace {

using testutil::LatestProp;
using testutil::MakeEdtcServer;

class WireSessionTest : public ::testing::Test {
 protected:
  WireSessionTest() : server_(MakeEdtcServer()), session_(*server_, "alice") {}

  std::unique_ptr<ProjectServer> server_;
  WireSession session_;
};

TEST_F(WireSessionTest, HelpAndUnknownCommands) {
  EXPECT_NE(session_.HandleLine("help").find("postEvent"),
            std::string::npos);
  EXPECT_NE(session_.HandleLine("frobnicate").find("unknown command"),
            std::string::npos);
  EXPECT_EQ(session_.commands_handled(), 2u);
}

TEST_F(WireSessionTest, CheckinCreatesTrackedData) {
  const std::string response =
      session_.HandleLine("checkin CPU HDL_model \"module cpu;\"");
  EXPECT_EQ(response, "ok CPU,HDL_model,1\n");
  EXPECT_EQ(LatestProp(*server_, "CPU", "HDL_model", "uptodate"), "true");
  // The workspace attributes the data to the session user.
  const auto id = server_->database().FindLatest("CPU", "HDL_model");
  EXPECT_EQ(server_->database().SymbolText(
                server_->database().GetObject(*id).created_by),
            "alice");
}

TEST_F(WireSessionTest, PostEventRoundTrip) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  EXPECT_EQ(
      session_.HandleLine("postEvent hdl_sim up CPU,HDL_model,1 \"good\""),
      "ok\n");
  EXPECT_EQ(LatestProp(*server_, "CPU", "HDL_model", "sim_result"), "good");
}

TEST_F(WireSessionTest, LinkAndQueryOutOfDate) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  session_.HandleLine("checkin CPU schematic \"s\"");
  EXPECT_EQ(session_.HandleLine(
                "link derive CPU,HDL_model,1 CPU,schematic,1"),
            "ok\n");

  // A new model version invalidates the schematic.
  session_.HandleLine("checkin CPU HDL_model \"m2\"");
  const std::string response = session_.HandleLine("query outofdate");
  EXPECT_NE(response.find("1 out of date"), std::string::npos);
  EXPECT_NE(response.find("<CPU.schematic.1>"), std::string::npos);
}

TEST_F(WireSessionTest, QueryStateListsProperties) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  const std::string response =
      session_.HandleLine("query state CPU,HDL_model,1");
  EXPECT_NE(response.find("sim_result = 'bad'"), std::string::npos);
  EXPECT_NE(response.find("uptodate = 'true'"), std::string::npos);
}

TEST_F(WireSessionTest, QueryBlock) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  session_.HandleLine("checkin CPU schematic \"s\"");
  const std::string response = session_.HandleLine("query block CPU");
  EXPECT_NE(response.find("2 object(s)"), std::string::npos);
}

TEST_F(WireSessionTest, BlockersCommand) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  const std::string response =
      session_.HandleLine("blockers sim_result=good");
  EXPECT_NE(response.find("sim_result = 'bad' (needs 'good')"),
            std::string::npos);
}

TEST_F(WireSessionTest, ReportAndCheckpoint) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  EXPECT_NE(session_.HandleLine("report").find("<CPU.HDL_model.1>"),
            std::string::npos);
  EXPECT_EQ(session_.HandleLine("checkpoint milestone1"),
            "ok checkpoint 'milestone1' with 1 addresses\n");
  EXPECT_TRUE(
      server_->database().FindConfiguration("milestone1").has_value());
}

TEST_F(WireSessionTest, SnapshotAliasIsRemoved) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  EXPECT_EQ(session_.HandleLine("snapshot m1"),
            "error: unknown command 'snapshot' (try 'help')\n");
  EXPECT_FALSE(server_->database().FindConfiguration("m1").has_value());
  EXPECT_EQ(server_->database().ConfigurationNames().size(), 0u);
}

TEST_F(WireSessionTest, HelpIsGeneratedFromTheRegistry) {
  const std::string help = session_.HandleLine("help");
  for (const WireCommandInfo& info : WireCommands()) {
    EXPECT_NE(help.find(std::string(info.usage)), std::string::npos)
        << "usage line missing from help: " << info.usage;
  }
  EXPECT_EQ(help.find("snapshot"), std::string::npos);
}

TEST_F(WireSessionTest, RegistryClassifiesReadsAndMutations) {
  EXPECT_EQ(ClassifyWireLine("query outofdate"), WireCommandKind::kRead);
  EXPECT_EQ(ClassifyWireLine("report"), WireCommandKind::kRead);
  EXPECT_EQ(ClassifyWireLine("viz dot"), WireCommandKind::kRead);
  EXPECT_EQ(ClassifyWireLine("checkin CPU HDL_model"),
            WireCommandKind::kMutate);
  EXPECT_EQ(ClassifyWireLine("postEvent ckin up a,b,1"),
            WireCommandKind::kMutate);
  EXPECT_EQ(ClassifyWireLine("checkpoint m1"), WireCommandKind::kMutate);
  // The removed `snapshot` alias is an unknown command now.
  EXPECT_EQ(ClassifyWireLine("snapshot m1"), WireCommandKind::kRead);
  EXPECT_EQ(ClassifyWireLine("advance 60"), WireCommandKind::kMutate);
  // Unknown commands classify as reads: they error out immediately
  // instead of occupying the mutation queue.
  EXPECT_EQ(ClassifyWireLine("frobnicate"), WireCommandKind::kRead);
}

TEST_F(WireSessionTest, VizCommands) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  const std::string block = session_.HandleLine("viz block CPU");
  EXPECT_NE(block.find("block 'CPU'"), std::string::npos);
  EXPECT_NE(block.find("[HDL_model] v1"), std::string::npos);
  const std::string dot = session_.HandleLine("viz dot");
  EXPECT_NE(dot.find("digraph damocles"), std::string::npos);
  EXPECT_NE(session_.HandleLine("viz sideways").find("error:"),
            std::string::npos);
}

TEST_F(WireSessionTest, SnapshotReadsPinThePublishedEpoch) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  server_->database().PublishSnapshot();
  session_.set_snapshot_reads(true);

  EXPECT_EQ(session_.HandleLine("epoch"), "epoch 1\n");
  EXPECT_EQ(session_.last_read_epoch(), 1u);

  // A read answered from the pinned snapshot does not see unpublished
  // mutations...
  session_.HandleLine("checkin CPU schematic \"s\"");
  EXPECT_NE(session_.HandleLine("query block CPU").find("1 object(s)"),
            std::string::npos);

  // ...until the writer publishes the next epoch.
  server_->database().PublishSnapshot();
  EXPECT_NE(session_.HandleLine("query block CPU").find("2 object(s)"),
            std::string::npos);
  EXPECT_EQ(session_.last_read_epoch(), 2u);
}

TEST_F(WireSessionTest, ValidateRunsTheLinter) {
  const std::string response = session_.HandleLine("validate");
  // The EDTC blueprint only carries the known unread-event warnings.
  EXPECT_EQ(response.find("error"), std::string::npos);
}

TEST_F(WireSessionTest, AdvanceMovesTheClock) {
  EXPECT_EQ(session_.HandleLine("advance 3600"), "ok day 0 01:00:00\n");
  EXPECT_NE(session_.HandleLine("advance lots").find("error"),
            std::string::npos);
}

TEST_F(WireSessionTest, ErrorsAreReportedInBand) {
  // Checkout of unknown data, malformed postEvent, bad link kind: the
  // session answers with "error:" lines instead of throwing.
  EXPECT_NE(session_.HandleLine("checkout ghost hdl").find("error:"),
            std::string::npos);
  EXPECT_NE(session_.HandleLine("postEvent bad").find("error:"),
            std::string::npos);
  EXPECT_NE(
      session_.HandleLine("link sideways a,b,1 c,d,1").find("error:"),
      std::string::npos);
  EXPECT_NE(session_.HandleLine("query state no,such,1").find("error:"),
            std::string::npos);
}

TEST_F(WireSessionTest, CheckoutEnforcesExclusivity) {
  session_.HandleLine("checkin CPU HDL_model \"m\"");
  EXPECT_EQ(session_.HandleLine("checkout CPU HDL_model"),
            "ok CPU,HDL_model,1\n");

  WireSession bob(*server_, "bob");
  EXPECT_NE(bob.HandleLine("checkout CPU HDL_model").find("error:"),
            std::string::npos);
}

/// Numeric arguments must be whole decimal tokens: "1x", "10s" and a
/// negative depth are usage errors that change no state — no policy is
/// promoted, the clock does not move and no WAL op is written.
TEST(WireSessionNumbers, MalformedNumbersAreRejectedWithoutSideEffects) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("damocles-wire-numbers-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    ServerOptions options;
    options.wal_dir = dir.string();
    auto server = MakeEdtcServer(options);
    WireSession session(*server, "alice");
    ASSERT_EQ(session.HandleLine("checkin CPU HDL_model \"m\""),
              "ok CPU,HDL_model,1\n");
    const uint64_t loose = server->PolicyPropose(
        workload::EdtcLoosenedBlueprintText(), "admin", "loosen");
    server->PolicyValidate(loose);

    const uint64_t active = server->policy_store().active_id();
    const int64_t now = server->clock().NowSeconds();
    const uint64_t ops = server->GetWalStatus().ops_logged;
    for (const std::string& line :
         {"policy-promote " + std::to_string(loose) + "x",
          std::string("advance 10s"),
          "shadow-wave " + std::to_string(loose) + " edit down a,b,1 -1"}) {
      EXPECT_EQ(session.HandleLine(line).rfind("error: usage:", 0), 0u)
          << line;
    }
    EXPECT_EQ(server->policy_store().active_id(), active);
    EXPECT_EQ(server->clock().NowSeconds(), now);
    EXPECT_EQ(server->GetWalStatus().ops_logged, ops);

    // The well-formed forms still work.
    EXPECT_EQ(session.HandleLine("advance 10").rfind("ok ", 0), 0u);
    EXPECT_EQ(server->clock().NowSeconds(), now + 10);
    EXPECT_EQ(session.HandleLine("policy-promote " + std::to_string(loose))
                  .rfind("ok promoted version", 0),
              0u);
  }
  std::filesystem::remove_all(dir);
}

/// The policy lifecycle's wire commands on a durable server: proposals
/// (quoted text and message, usage and parse errors), validation
/// (unknown, malformed and valid ids) and the log, which must read the
/// same after a checkpoint and a restart.
TEST(WireSessionPolicy, ProposeValidateAndLogSurviveCheckpointAndRestart) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("damocles-wire-policy-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServerOptions options;
  options.wal_dir = dir.string();
  const std::string loose = workload::EdtcLoosenedBlueprintText();
  std::string log;
  {
    auto server = MakeEdtcServer(options);
    WireSession session(*server, "alice");
    const std::string usage =
        "error: usage: policy-propose \"<rule-text>\" [\"message\"]\n";
    EXPECT_EQ(session.HandleLine("policy-propose"), usage);
    EXPECT_EQ(session.HandleLine("policy-propose \"unterminated"), usage);
    const std::string parse_error =
        session.HandleLine("policy-propose \"blueprint broken view\"");
    EXPECT_EQ(parse_error.rfind("error: ", 0), 0u) << parse_error;
    EXPECT_EQ(parse_error.find("usage"), std::string::npos) << parse_error;
    EXPECT_EQ(server->policy_store().size(), 1u);

    EXPECT_EQ(session.HandleLine("policy-propose " + QuoteString(loose) +
                                 " \"loosen for bring-up\""),
              "ok proposed version 2\n");
    EXPECT_EQ(server->policy_store().Get(2).blueprint_text, loose);

    EXPECT_EQ(session.HandleLine("policy-validate 9"),
              "error: unknown policy version 9\n");
    EXPECT_EQ(session.HandleLine("policy-validate two"),
              "error: usage: policy-validate <version-id>\n");
    EXPECT_EQ(session.HandleLine("policy-validate 2").rfind(
                  "version 2 validated\n", 0),
              0u);

    log = session.HandleLine("policy-log");
    EXPECT_EQ(log,
              "1 parent 0 promoted \"initializeBlueprint\"\n"
              "2 parent 1 validated by alice \"loosen for bring-up\"\n"
              "active 1\n");
    EXPECT_EQ(session.HandleLine("wal-checkpoint"), "ok checkpoint 1\n");
  }
  {
    auto server = std::make_unique<ProjectServer>("edtc", options);
    ASSERT_TRUE(server->GetWalStatus().recovered);
    EXPECT_EQ(server->GetWalStatus().replayed_ops, 0u);
    WireSession session(*server, "bob");
    EXPECT_EQ(session.HandleLine("policy-log"), log);
    EXPECT_EQ(server->policy_store().active_id(), 1u);
    EXPECT_EQ(server->policy_store().Get(1).blueprint_text,
              workload::EdtcBlueprintText());
    EXPECT_EQ(server->policy_store().Get(2).blueprint_text, loose);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace damocles::engine
