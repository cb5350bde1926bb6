#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/designer_workspace.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"
#include "workload/trace_script.hpp"

namespace damocles {
namespace {

using engine::DesignerWorkspace;
using metadb::Oid;
using testutil::LatestProp;
using testutil::MakeEdtcServer;

// --- Designer sandboxes and promotion ---------------------------------------

TEST(DesignerWorkspace, DraftsAreInvisibleToTracking) {
  auto server = MakeEdtcServer();
  DesignerWorkspace alice(*server, "alice");

  for (int i = 0; i < 100; ++i) {
    alice.SaveDraft("CPU", "HDL_model", "draft " + std::to_string(i));
  }
  EXPECT_EQ(alice.DraftVersion("CPU", "HDL_model"), 100);
  // A hundred saves: zero tracked objects, zero events.
  EXPECT_EQ(server->database().Stats().live_objects, 0u);
  EXPECT_EQ(server->engine().stats().events_processed, 0u);
}

TEST(DesignerWorkspace, PromotionCreatesTrackedVersion) {
  auto server = MakeEdtcServer();
  DesignerWorkspace alice(*server, "alice");
  alice.SaveDraft("CPU", "HDL_model", "draft 1");
  alice.SaveDraft("CPU", "HDL_model", "the good one");

  const Oid promoted = alice.Promote("CPU", "HDL_model");
  EXPECT_EQ(promoted, (Oid{"CPU", "HDL_model", 1}));
  EXPECT_EQ(alice.promotions(), 1u);

  // The project workspace holds the latest draft's content; the
  // meta-object carries the templates and the ckin ran.
  EXPECT_EQ(server->workspace().Read(promoted)->content, "the good one");
  EXPECT_EQ(LatestProp(*server, "CPU", "HDL_model", "uptodate"), "true");
  EXPECT_EQ(server->engine().stats().events_processed, 1u);
  const auto id = server->database().FindObject(promoted);
  EXPECT_EQ(server->database().SymbolText(
                server->database().GetObject(*id).created_by),
            "alice");
}

TEST(DesignerWorkspace, PromoteWithoutDraftThrows) {
  auto server = MakeEdtcServer();
  DesignerWorkspace alice(*server, "alice");
  EXPECT_THROW(alice.Promote("CPU", "HDL_model"), NotFoundError);
}

TEST(DesignerWorkspace, PullBringsProjectDataIntoSandbox) {
  auto server = MakeEdtcServer();
  server->CheckIn("CPU", "HDL_model", "project content", "bob");

  DesignerWorkspace alice(*server, "alice");
  EXPECT_THROW(alice.Pull("CPU", "netlist"), NotFoundError);
  alice.Pull("CPU", "HDL_model");
  EXPECT_EQ(alice.LatestDraft("CPU", "HDL_model"), "project content");
  // Pulling is also untracked.
  EXPECT_EQ(server->database().Stats().live_objects, 1u);
}

TEST(DesignerWorkspace, SandboxesAreIndependent) {
  auto server = MakeEdtcServer();
  DesignerWorkspace alice(*server, "alice");
  DesignerWorkspace bob(*server, "bob");
  alice.SaveDraft("CPU", "HDL_model", "alice's take");
  bob.SaveDraft("CPU", "HDL_model", "bob's take");
  EXPECT_EQ(alice.LatestDraft("CPU", "HDL_model"), "alice's take");
  EXPECT_EQ(bob.LatestDraft("CPU", "HDL_model"), "bob's take");
  // Both promote; the project interleaves them as versions 1 and 2.
  alice.Promote("CPU", "HDL_model");
  bob.Promote("CPU", "HDL_model");
  EXPECT_EQ(server->workspace().LatestVersion("CPU", "HDL_model"), 2);
}

// --- Trace scripts ------------------------------------------------------------

events::EventMessage MakeEvent(const std::string& name, const Oid& target,
                               const std::string& arg,
                               const std::string& user, int64_t timestamp) {
  events::EventMessage event;
  event.name = name;
  event.direction = events::Direction::kUp;
  event.target = target;
  event.arg = arg;
  event.user = user;
  event.timestamp = timestamp;
  return event;
}

TEST(TraceScript, SaveLoadRoundTrip) {
  std::vector<events::EventMessage> trace = {
      MakeEvent("ckin", Oid{"CPU", "HDL_model", 1}, "", "alice", 100),
      MakeEvent("hdl_sim", Oid{"CPU", "HDL_model", 1}, "4 errors", "bob",
                250),
  };
  const std::string script = workload::SaveTraceScript(trace);
  const auto loaded = workload::LoadTraceScript(script);

  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "ckin");
  EXPECT_EQ(loaded[0].user, "alice");
  EXPECT_EQ(loaded[0].timestamp, 100);
  EXPECT_EQ(loaded[1].arg, "4 errors");
  EXPECT_EQ(loaded[1].user, "bob");
  EXPECT_EQ(loaded[1].timestamp, 250);

  // Stable under a second round trip.
  EXPECT_EQ(workload::SaveTraceScript(loaded), script);
}

TEST(TraceScript, IgnoresCommentsAndBlankLines) {
  const auto trace = workload::LoadTraceScript(
      "# a header comment\n"
      "\n"
      "postEvent drc up alu,layout,1 \"good\"\n"
      "# trailing note\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].name, "drc");
  EXPECT_TRUE(trace[0].user.empty());
}

TEST(TraceScript, RejectsMalformedLines) {
  EXPECT_THROW(workload::LoadTraceScript("postEvent oops\n"),
               WireFormatError);
  EXPECT_THROW(workload::LoadTraceScript("#@ user=a t=xyz\npostEvent a up "
                                         "b,c,1\n"),
               WireFormatError);
}

TEST(TraceScript, JournalReplayReproducesFinalState) {
  // Record a session, save its external trace, replay it into a fresh
  // server: queries agree.
  auto record_server = MakeEdtcServer();
  record_server->CheckIn("CPU", "HDL_model", "m", "alice");
  record_server->AdvanceClock(600);
  record_server->SubmitWireLine(
      "postEvent hdl_sim up CPU,HDL_model,1 \"good\"", "alice");
  record_server->AdvanceClock(600);
  record_server->CheckIn("CPU", "schematic", "s", "bob");
  record_server->RegisterLink(metadb::LinkKind::kDerive,
                              Oid{"CPU", "HDL_model", 1},
                              Oid{"CPU", "schematic", 1});
  record_server->AdvanceClock(600);
  record_server->CheckIn("CPU", "HDL_model", "m2", "alice");

  const std::string script = workload::SaveTraceScript(
      record_server->engine().journal().ExternalTrace());

  // The replay server gets the same structure (creation and links are
  // workspace operations, not events), then the event traffic.
  auto replay_server = MakeEdtcServer();
  // creation itself is replayed through check-ins with matching content.
  replay_server->CheckIn("CPU", "HDL_model", "m", "alice");
  replay_server->CheckIn("CPU", "schematic", "s", "bob");
  replay_server->RegisterLink(metadb::LinkKind::kDerive,
                              Oid{"CPU", "HDL_model", 1},
                              Oid{"CPU", "schematic", 1});
  replay_server->CheckIn("CPU", "HDL_model", "m2", "alice");

  // Replaying the recorded result events brings properties in line.
  const auto trace = workload::LoadTraceScript(script);
  size_t result_events = 0;
  for (const auto& event : trace) {
    if (event.name == "hdl_sim") {
      workload::ReplayTrace(*replay_server, {event});
      ++result_events;
    }
  }
  EXPECT_EQ(result_events, 1u);
  EXPECT_EQ(LatestProp(*replay_server, "CPU", "schematic", "uptodate"),
            testutil::LatestProp(*record_server, "CPU", "schematic",
                                 "uptodate"));
  EXPECT_EQ(
      testutil::Prop(*replay_server, Oid{"CPU", "HDL_model", 1},
                     "sim_result"),
      testutil::Prop(*record_server, Oid{"CPU", "HDL_model", 1},
                     "sim_result"));
}

TEST(TraceScript, ReplayAdvancesTheClock) {
  auto server = MakeEdtcServer();
  server->CheckIn("CPU", "HDL_model", "m", "alice");
  const auto trace = workload::LoadTraceScript(
      "#@ user=alice t=5000\n"
      "postEvent hdl_sim up CPU,HDL_model,1 \"good\"\n");
  EXPECT_EQ(workload::ReplayTrace(*server, trace), 1u);
  EXPECT_EQ(server->clock().NowSeconds(), 5000);
}

}  // namespace
}  // namespace damocles
