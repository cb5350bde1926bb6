#include <gtest/gtest.h>

#include "common/error.hpp"
#include "metadb/config_builder.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/workspace.hpp"

namespace damocles::metadb {
namespace {

// --- Configuration builders ---------------------------------------------------

class ConfigBuilderTest : public ::testing::Test {
 protected:
  // A small two-level schematic hierarchy with one derived netlist:
  //   top -> {a, b} (use links); top -> top_netlist (derive link).
  void SetUp() override {
    top_ = db_.CreateNextVersion("top", "schematic", "t", 1);
    a_ = db_.CreateNextVersion("a", "schematic", "t", 2);
    b_ = db_.CreateNextVersion("b", "schematic", "t", 3);
    netlist_ = db_.CreateNextVersion("top", "netlist", "t", 4);
    db_.CreateLink(LinkKind::kUse, top_, a_, {"outofdate"}, "", {});
    db_.CreateLink(LinkKind::kUse, top_, b_, {"outofdate"}, "", {});
    db_.CreateLink(LinkKind::kDerive, top_, netlist_, {"outofdate"},
                   "derive_from", {});
  }

  MetaDatabase db_;
  OidId top_, a_, b_, netlist_;
};

TEST_F(ConfigBuilderTest, HierarchyTraversalUseLinksOnly) {
  TraversalRules rules;  // Defaults: use links only.
  const Configuration config =
      BuildHierarchyConfiguration(db_, top_, "snap", rules, 10);
  EXPECT_EQ(config.oids.size(), 3u);  // top, a, b — not the netlist.
  EXPECT_EQ(config.links.size(), 2u);
  EXPECT_EQ(config.created_at, 10);
}

TEST_F(ConfigBuilderTest, HierarchyTraversalWithDeriveLinks) {
  TraversalRules rules;
  rules.follow_derive_links = true;
  const Configuration config =
      BuildHierarchyConfiguration(db_, top_, "snap", rules, 10);
  EXPECT_EQ(config.oids.size(), 4u);
  EXPECT_EQ(config.links.size(), 3u);
}

TEST_F(ConfigBuilderTest, DeriveTypeFilter) {
  TraversalRules rules;
  rules.follow_derive_links = true;
  rules.derive_types = {"equivalence"};  // No match for derive_from.
  const Configuration config =
      BuildHierarchyConfiguration(db_, top_, "snap", rules, 10);
  EXPECT_EQ(config.oids.size(), 3u);
}

TEST_F(ConfigBuilderTest, MaxDepthLimitsDescent) {
  TraversalRules rules;
  rules.max_depth = 0;
  const Configuration config =
      BuildHierarchyConfiguration(db_, top_, "snap", rules, 10);
  EXPECT_EQ(config.oids.size(), 1u);  // Root only.
}

TEST_F(ConfigBuilderTest, CyclesAreTolerated) {
  // b -> top closes a use-link cycle; traversal must terminate.
  db_.CreateLink(LinkKind::kUse, b_, top_, {}, "", {});
  TraversalRules rules;
  const Configuration config =
      BuildHierarchyConfiguration(db_, top_, "snap", rules, 10);
  EXPECT_EQ(config.oids.size(), 3u);
}

TEST_F(ConfigBuilderTest, QueryConfiguration) {
  db_.SetProperty(a_, "uptodate", "false");
  const Configuration config = BuildQueryConfiguration(
      db_, "stale", [&](OidId, const MetaObject& object) {
        return db_.PropertyOr(object, "uptodate", "") == "false";
      },
      20);
  ASSERT_EQ(config.oids.size(), 1u);
  EXPECT_EQ(config.oids[0], a_);
  EXPECT_EQ(config.built_from, "query");
}

TEST_F(ConfigBuilderTest, FullSnapshotCoversEverything) {
  const Configuration config = BuildFullCheckpoint(db_, "all", 30);
  EXPECT_EQ(config.oids.size(), 4u);
  EXPECT_EQ(config.links.size(), 3u);
}

TEST_F(ConfigBuilderTest, DiffFindsAddedAndRemoved) {
  const Configuration before = BuildFullCheckpoint(db_, "before", 1);
  const OidId extra = db_.CreateNextVersion("c", "schematic", "t", 5);
  db_.DeleteObject(a_);
  const Configuration after = BuildFullCheckpoint(db_, "after", 2);

  const auto diff = ConfigurationDiff(before, after);
  // 'extra' appears only in after; 'a_' only in before.
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_TRUE((diff[0] == extra && diff[1] == a_) ||
              (diff[0] == a_ && diff[1] == extra));
}

TEST_F(ConfigBuilderTest, DiffOfIdenticalSnapshotsIsEmpty) {
  const Configuration s1 = BuildFullCheckpoint(db_, "s1", 1);
  const Configuration s2 = BuildFullCheckpoint(db_, "s2", 2);
  EXPECT_TRUE(ConfigurationDiff(s1, s2).empty());
}

// --- Workspace ---------------------------------------------------------------------

TEST(Workspace, CheckInCreatesSequentialVersions) {
  Workspace ws("test");
  const Oid v1 = ws.CheckIn("cpu", "hdl", "model v1", "alice", 1);
  const Oid v2 = ws.CheckIn("cpu", "hdl", "model v2", "alice", 2);
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v2.version, 2);
  EXPECT_EQ(ws.LatestVersion("cpu", "hdl"), 2);
  EXPECT_EQ(ws.Read(v1)->content, "model v1");
  EXPECT_EQ(ws.Read(v2)->content, "model v2");
}

TEST(Workspace, CheckOutBlocksOtherUsers) {
  Workspace ws("test");
  ws.CheckIn("cpu", "hdl", "v1", "alice", 1);
  ws.CheckOut("cpu", "hdl", "alice", 2);
  EXPECT_EQ(ws.CheckedOutBy("cpu", "hdl"), "alice");
  EXPECT_THROW(ws.CheckOut("cpu", "hdl", "bob", 3), PermissionError);
  EXPECT_THROW(ws.CheckIn("cpu", "hdl", "v2", "bob", 3), PermissionError);
  // The holder may re-checkout and check in.
  EXPECT_NO_THROW(ws.CheckOut("cpu", "hdl", "alice", 4));
  EXPECT_NO_THROW(ws.CheckIn("cpu", "hdl", "v2", "alice", 5));
  EXPECT_EQ(ws.CheckedOutBy("cpu", "hdl"), "");
}

TEST(Workspace, CheckOutUnknownThrows) {
  Workspace ws("test");
  EXPECT_THROW(ws.CheckOut("ghost", "hdl", "alice", 1), NotFoundError);
}

TEST(Workspace, DeleteRollsBackLatest) {
  Workspace ws("test");
  ws.CheckIn("cpu", "hdl", "v1", "alice", 1);
  const Oid v2 = ws.CheckIn("cpu", "hdl", "v2", "alice", 2);
  ws.Delete(v2, "alice", 3);
  EXPECT_EQ(ws.LatestVersion("cpu", "hdl"), 1);
  EXPECT_FALSE(ws.Read(v2).has_value());
}

TEST(Workspace, DeleteLastVersionForgetsPair) {
  Workspace ws("test");
  const Oid v1 = ws.CheckIn("cpu", "hdl", "v1", "alice", 1);
  ws.Delete(v1, "alice", 2);
  EXPECT_EQ(ws.LatestVersion("cpu", "hdl"), 0);
}

TEST(Workspace, DeleteUnknownThrows) {
  Workspace ws("test");
  EXPECT_THROW(ws.Delete(Oid{"cpu", "hdl", 1}, "alice", 1), NotFoundError);
}

TEST(Workspace, ObserversSeeTransactions) {
  Workspace ws("test");
  std::vector<std::string> log;
  ws.AddObserver([&](const WorkspaceNotification& note) {
    log.push_back(std::string(WorkspaceActionName(note.action)) + " " +
                  FormatOid(note.oid) + " by " + note.user);
  });
  ws.CheckIn("cpu", "hdl", "v1", "alice", 1);
  ws.CheckOut("cpu", "hdl", "bob", 2);
  ws.CheckIn("cpu", "hdl", "v2", "bob", 3);

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "checkin <cpu.hdl.1> by alice");
  EXPECT_EQ(log[1], "checkout <cpu.hdl.1> by bob");
  EXPECT_EQ(log[2], "checkin <cpu.hdl.2> by bob");
}

TEST(Workspace, ForEachFileVisitsAllVersions) {
  Workspace ws("test");
  ws.CheckIn("cpu", "hdl", "v1", "alice", 1);
  ws.CheckIn("cpu", "hdl", "v2", "alice", 2);
  ws.CheckIn("reg", "hdl", "v1", "bob", 3);
  size_t count = 0;
  ws.ForEachFile([&](const Oid&, const DesignFile&) { ++count; });
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(ws.FileCount(), 3u);
}

}  // namespace
}  // namespace damocles::metadb
