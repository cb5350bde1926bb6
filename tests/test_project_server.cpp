#include "engine/project_server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "common/error.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"

namespace damocles::engine {
namespace {

using metadb::Oid;
using testutil::LatestProp;
using testutil::MakeEdtcServer;

TEST(ProjectServer, CheckInRegistersMetaDataAndPostsCkin) {
  auto server = MakeEdtcServer();
  const Oid oid = server->CheckIn("CPU", "HDL_model", "content", "alice");
  EXPECT_EQ(oid, (Oid{"CPU", "HDL_model", 1}));

  // Meta-object exists with templated properties.
  const auto id = server->database().FindObject(oid);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*server->database().GetProperty(*id, "uptodate"), "true");
  EXPECT_EQ(*server->database().GetProperty(*id, "sim_result"), "bad");

  // The ckin event went through the engine.
  EXPECT_EQ(server->engine().stats().external_events, 1u);
  EXPECT_EQ(server->engine().journal().At(0).event.name, "ckin");
}

TEST(ProjectServer, WireLineIntake) {
  auto server = MakeEdtcServer();
  server->CheckIn("CPU", "HDL_model", "content", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 \"good\"",
                         "alice");
  EXPECT_EQ(LatestProp(*server, "CPU", "HDL_model", "sim_result"), "good");
}

TEST(ProjectServer, MalformedWireLineThrows) {
  auto server = MakeEdtcServer();
  EXPECT_THROW(server->SubmitWireLine("postEvent", "alice"),
               WireFormatError);
}

TEST(ProjectServer, RegisterLinkValidatesEndpoints) {
  auto server = MakeEdtcServer();
  const Oid hdl = server->CheckIn("CPU", "HDL_model", "m", "alice");
  EXPECT_THROW(
      server->RegisterLink(metadb::LinkKind::kDerive, hdl,
                           Oid{"CPU", "schematic", 1}),
      NotFoundError);
  const Oid sch = server->CheckIn("CPU", "schematic", "s", "bob");
  EXPECT_NO_THROW(
      server->RegisterLink(metadb::LinkKind::kDerive, hdl, sch));
}

TEST(ProjectServer, BatchModeQueuesUntilDrain) {
  ServerOptions options;
  options.auto_drain = false;
  auto server = std::make_unique<ProjectServer>("batch", options);
  server->InitializeBlueprint(workload::EdtcBlueprintText());

  server->CheckIn("CPU", "HDL_model", "m", "alice");
  // ckin queued but unprocessed: uptodate not yet assigned by rules —
  // the template default is there, but the journal is empty.
  EXPECT_EQ(server->engine().journal().Size(), 0u);
  const ShardedStats queued = server->sharded_engine()->stats();
  EXPECT_EQ(queued.events_posted, 1u);
  EXPECT_EQ(queued.tasks_processed, 0u);

  EXPECT_EQ(server->Drain(), 1u);
  EXPECT_EQ(server->engine().journal().Size(), 1u);
  EXPECT_EQ(server->sharded_engine()->stats().tasks_processed, 1u);
}

TEST(ProjectServer, OneShardServerStartsNoEngineThread) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no " << tasks;
  const auto threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = threads();
  {
    // One lane runs on the calling thread.
    auto server = MakeEdtcServer();
    server->CheckIn("CPU", "HDL_model", "m", "alice");
    EXPECT_EQ(threads(), before);
  }
  // The probe sees a multi-shard server's workers.
  ServerOptions options;
  options.num_shards = 2;
  auto sharded = MakeEdtcServer(options);
  EXPECT_GT(threads(), before);
}

TEST(ProjectServer, CheckinDirectionIsConfigurable) {
  ServerOptions options;
  options.checkin_direction = events::Direction::kDown;
  auto server = std::make_unique<ProjectServer>("dir", options);
  server->InitializeBlueprint(workload::EdtcBlueprintText());
  server->CheckIn("CPU", "HDL_model", "m", "alice");
  EXPECT_EQ(server->engine().journal().At(0).event.direction,
            events::Direction::kDown);
}

TEST(ProjectServer, ReinitializeBlueprintBetweenPhases) {
  auto server = MakeEdtcServer();
  tools::HdlEditor editor(*server);
  tools::SynthesisTool synthesis(*server);

  editor.Edit("CPU", "m", "alice");
  server->SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 good", "alice");
  ASSERT_TRUE(synthesis.Synthesize("CPU", {}, "bob").has_value());

  // Strict phase: HDL edit invalidates the schematic.
  editor.Edit("CPU", "m2", "alice");
  EXPECT_EQ(LatestProp(*server, "CPU", "schematic", "uptodate"), "false");

  // Re-validate, then loosen the blueprint: the same edit no longer
  // propagates. Existing meta-data (links included) is untouched; the
  // loose rules simply stop posting outofdate on ckin.
  server->CheckIn("CPU", "schematic", "rev", "bob");
  EXPECT_EQ(LatestProp(*server, "CPU", "schematic", "uptodate"), "true");
  server->InitializeBlueprint(workload::EdtcLoosenedBlueprintText());
  editor.Edit("CPU", "m3", "alice");
  EXPECT_EQ(LatestProp(*server, "CPU", "schematic", "uptodate"), "true");
}

TEST(ProjectServer, ClockAdvancesTimestamps) {
  auto server = MakeEdtcServer();
  const Oid v1 = server->CheckIn("CPU", "HDL_model", "m", "alice");
  server->AdvanceClock(1234);
  const Oid v2 = server->CheckIn("CPU", "HDL_model", "m2", "alice");
  const auto& db = server->database();
  EXPECT_EQ(db.GetObject(*db.FindObject(v2)).created_at -
                db.GetObject(*db.FindObject(v1)).created_at,
            1234);
}

TEST(ProjectServer, WorkspaceAndMetaDbVersionsAgree) {
  auto server = MakeEdtcServer();
  for (int i = 0; i < 5; ++i) {
    server->CheckIn("CPU", "HDL_model", "rev" + std::to_string(i), "alice");
  }
  EXPECT_EQ(server->workspace().LatestVersion("CPU", "HDL_model"), 5);
  const auto latest = server->database().FindLatest("CPU", "HDL_model");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(server->database().GetObject(*latest).version, 5);
}

}  // namespace
}  // namespace damocles::engine
