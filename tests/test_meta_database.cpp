#include "metadb/meta_database.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace damocles::metadb {
namespace {

class MetaDatabaseTest : public ::testing::Test {
 protected:
  OidId Create(const std::string& block, const std::string& view) {
    return db_.CreateNextVersion(block, view, "tester", ++now_);
  }

  MetaDatabase db_;
  int64_t now_ = 0;
};

TEST_F(MetaDatabaseTest, CreateAssignsSequentialVersions) {
  const OidId v1 = Create("cpu", "hdl");
  const OidId v2 = Create("cpu", "hdl");
  EXPECT_EQ(db_.GetObject(v1).version, 1);
  EXPECT_EQ(db_.GetObject(v2).version, 2);
}

TEST_F(MetaDatabaseTest, CreateObjectRejectsDuplicates) {
  db_.CreateObject(Oid{"cpu", "hdl", 1}, "tester", 1);
  EXPECT_THROW(db_.CreateObject(Oid{"cpu", "hdl", 1}, "tester", 2),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, CreateObjectRejectsOutOfSequenceVersions) {
  EXPECT_THROW(db_.CreateObject(Oid{"cpu", "hdl", 2}, "tester", 1),
               IntegrityError);
  db_.CreateObject(Oid{"cpu", "hdl", 1}, "tester", 1);
  EXPECT_THROW(db_.CreateObject(Oid{"cpu", "hdl", 3}, "tester", 2),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, CreateObjectRejectsEmptyNames) {
  EXPECT_THROW(db_.CreateObject(Oid{"", "hdl", 1}, "t", 1), IntegrityError);
  EXPECT_THROW(db_.CreateObject(Oid{"cpu", "", 1}, "t", 1), IntegrityError);
}

TEST_F(MetaDatabaseTest, FindObjectExactTriplet) {
  const OidId id = Create("cpu", "hdl");
  EXPECT_EQ(db_.FindObject(Oid{"cpu", "hdl", 1}), id);
  EXPECT_FALSE(db_.FindObject(Oid{"cpu", "hdl", 2}).has_value());
  EXPECT_FALSE(db_.FindObject(Oid{"cpu", "netlist", 1}).has_value());
}

TEST_F(MetaDatabaseTest, FindLatestSkipsDeleted) {
  Create("cpu", "hdl");
  const OidId v2 = Create("cpu", "hdl");
  const OidId v3 = Create("cpu", "hdl");
  EXPECT_EQ(db_.FindLatest("cpu", "hdl"), v3);
  db_.DeleteObject(v3);
  EXPECT_EQ(db_.FindLatest("cpu", "hdl"), v2);
}

TEST_F(MetaDatabaseTest, FindLatestOfUnknownPair) {
  EXPECT_FALSE(db_.FindLatest("ghost", "hdl").has_value());
}

TEST_F(MetaDatabaseTest, VersionChainOldestFirst) {
  const OidId v1 = Create("cpu", "hdl");
  const OidId v2 = Create("cpu", "hdl");
  const auto chain = db_.VersionChain("cpu", "hdl");
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], v1);
  EXPECT_EQ(chain[1], v2);
}

TEST_F(MetaDatabaseTest, PreviousVersionWalksChain) {
  const OidId v1 = Create("cpu", "hdl");
  const OidId v2 = Create("cpu", "hdl");
  EXPECT_EQ(db_.PreviousVersion(v2), v1);
  EXPECT_FALSE(db_.PreviousVersion(v1).has_value());
}

TEST_F(MetaDatabaseTest, PropertiesSetGetRemove) {
  const OidId id = Create("cpu", "hdl");
  EXPECT_EQ(db_.GetProperty(id, "sim_result"), nullptr);
  db_.SetProperty(id, "sim_result", "good");
  ASSERT_NE(db_.GetProperty(id, "sim_result"), nullptr);
  EXPECT_EQ(*db_.GetProperty(id, "sim_result"), "good");
  EXPECT_TRUE(db_.RemoveProperty(id, "sim_result"));
  EXPECT_FALSE(db_.RemoveProperty(id, "sim_result"));
  EXPECT_EQ(db_.GetProperty(id, "sim_result"), nullptr);
}

TEST_F(MetaDatabaseTest, InvalidHandleThrows) {
  EXPECT_THROW(db_.GetObject(OidId(99)), NotFoundError);
  EXPECT_THROW(db_.GetObject(OidId()), NotFoundError);
  EXPECT_THROW(db_.GetLink(LinkId(0)), NotFoundError);
}

TEST_F(MetaDatabaseTest, CreateLinkWiresAdjacency) {
  const OidId hdl = Create("cpu", "hdl");
  const OidId sch = Create("cpu", "schematic");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, hdl, sch,
                                     {"outofdate"}, "derived",
                                     CarryPolicy::kMove);
  ASSERT_EQ(db_.OutLinks(hdl).size(), 1u);
  EXPECT_EQ(db_.OutLinks(hdl)[0], link);
  ASSERT_EQ(db_.InLinks(sch).size(), 1u);
  EXPECT_EQ(db_.InLinks(sch)[0], link);
  EXPECT_TRUE(db_.OutLinks(sch).empty());
  EXPECT_TRUE(db_.InLinks(hdl).empty());
}

TEST_F(MetaDatabaseTest, LinkPropagatesChecksList) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, a, b,
                                     {"outofdate", "lvs"}, "derived",
                                     CarryPolicy::kNone);
  EXPECT_TRUE(db_.GetLink(link).Propagates("outofdate"));
  EXPECT_TRUE(db_.GetLink(link).Propagates("lvs"));
  EXPECT_FALSE(db_.GetLink(link).Propagates("ckin"));
}

TEST_F(MetaDatabaseTest, SelfLinksRejected) {
  const OidId a = Create("cpu", "hdl");
  EXPECT_THROW(db_.CreateLink(LinkKind::kDerive, a, a, {}, "", {}),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, UseLinksRequireSameViewType) {
  const OidId parent = Create("cpu", "schematic");
  const OidId child = Create("reg", "schematic");
  const OidId other = Create("reg", "netlist");
  EXPECT_NO_THROW(db_.CreateLink(LinkKind::kUse, parent, child, {}, "", {}));
  EXPECT_THROW(db_.CreateLink(LinkKind::kUse, parent, other, {}, "", {}),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, DeriveLinksMayCrossViews) {
  const OidId a = Create("cpu", "schematic");
  const OidId b = Create("cpu", "netlist");
  EXPECT_NO_THROW(
      db_.CreateLink(LinkKind::kDerive, a, b, {}, "derive_from", {}));
}

TEST_F(MetaDatabaseTest, DeleteLinkDetachesAdjacency) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, a, b, {}, "", {});
  db_.DeleteLink(link);
  EXPECT_TRUE(db_.OutLinks(a).empty());
  EXPECT_TRUE(db_.InLinks(b).empty());
  EXPECT_FALSE(db_.GetLink(link).alive);
  // Idempotent.
  EXPECT_NO_THROW(db_.DeleteLink(link));
}

TEST_F(MetaDatabaseTest, DeleteObjectRemovesItsLinks) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  const OidId c = Create("cpu", "netlist");
  db_.CreateLink(LinkKind::kDerive, a, b, {}, "", {});
  db_.CreateLink(LinkKind::kDerive, b, c, {}, "", {});
  db_.DeleteObject(b);
  EXPECT_FALSE(db_.GetObject(b).alive);
  EXPECT_TRUE(db_.OutLinks(a).empty());
  EXPECT_TRUE(db_.InLinks(c).empty());
  EXPECT_FALSE(db_.FindObject(Oid{"cpu", "schematic", 1}).has_value());
}

TEST_F(MetaDatabaseTest, MoveLinkEndpointShiftsVersions) {
  // Paper Fig. 3: NetList -> GDSII.v5 becomes NetList -> GDSII.v6.
  const OidId netlist = Create("alu", "NetList");
  const OidId gdsii5 = Create("alu", "GDSII");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, netlist, gdsii5,
                                     {"OutOfDate"}, "derive_from",
                                     CarryPolicy::kMove);
  const OidId gdsii6 = Create("alu", "GDSII");
  db_.MoveLinkEndpoint(link, /*endpoint_from=*/false, gdsii6);

  EXPECT_EQ(db_.GetLink(link).to, gdsii6);
  EXPECT_TRUE(db_.InLinks(gdsii5).empty());
  ASSERT_EQ(db_.InLinks(gdsii6).size(), 1u);
  EXPECT_EQ(db_.InLinks(gdsii6)[0], link);
}

TEST_F(MetaDatabaseTest, MoveLinkEndpointRejectsSelfLink) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, a, b, {}, "", {});
  EXPECT_THROW(db_.MoveLinkEndpoint(link, /*endpoint_from=*/true, b),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, MoveLinkEndpointKeepsUseViewInvariant) {
  const OidId parent = Create("cpu", "schematic");
  const OidId child = Create("reg", "schematic");
  const OidId wrong_view = Create("reg", "netlist");
  const LinkId link =
      db_.CreateLink(LinkKind::kUse, parent, child, {}, "", {});
  EXPECT_THROW(db_.MoveLinkEndpoint(link, /*endpoint_from=*/false, wrong_view),
               IntegrityError);
}

TEST_F(MetaDatabaseTest, ConfigurationsSaveAndLookup) {
  const OidId a = Create("cpu", "hdl");
  Configuration config;
  config.name = "snapshot1";
  config.oids.push_back(a);
  const ConfigId id = db_.SaveConfiguration(config);
  EXPECT_EQ(db_.FindConfiguration("snapshot1"), id);
  EXPECT_EQ(db_.GetConfiguration(id).oids.size(), 1u);
  EXPECT_FALSE(db_.FindConfiguration("missing").has_value());
}

TEST_F(MetaDatabaseTest, ConfigurationReplacedByName) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "netlist");
  Configuration first;
  first.name = "snap";
  first.oids = {a};
  Configuration second;
  second.name = "snap";
  second.oids = {a, b};
  const ConfigId id1 = db_.SaveConfiguration(first);
  const ConfigId id2 = db_.SaveConfiguration(second);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(db_.GetConfiguration(id1).oids.size(), 2u);
}

TEST_F(MetaDatabaseTest, ConfigurationRequiresName) {
  EXPECT_THROW(db_.SaveConfiguration(Configuration{}), IntegrityError);
}

TEST_F(MetaDatabaseTest, ConfigurationValidatesHandles) {
  Configuration config;
  config.name = "bad";
  config.oids.push_back(OidId(42));
  EXPECT_THROW(db_.SaveConfiguration(config), NotFoundError);
}

TEST_F(MetaDatabaseTest, ConfigurationNamesSorted) {
  Create("cpu", "hdl");
  Configuration b;
  b.name = "beta";
  db_.SaveConfiguration(b);
  Configuration a;
  a.name = "alpha";
  db_.SaveConfiguration(a);
  const auto names = db_.ConfigurationNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
}

TEST_F(MetaDatabaseTest, StatsCountLiveAndDead) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  db_.SetProperty(a, "p", "v");
  const LinkId link = db_.CreateLink(LinkKind::kDerive, a, b, {}, "", {});
  db_.DeleteLink(link);
  db_.DeleteObject(b);

  const DatabaseStats stats = db_.Stats();
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.dead_objects, 1u);
  EXPECT_EQ(stats.live_links, 0u);
  EXPECT_EQ(stats.dead_links, 1u);
  EXPECT_EQ(stats.property_values, 1u);
}

TEST_F(MetaDatabaseTest, ForEachSkipsDead) {
  const OidId a = Create("cpu", "hdl");
  const OidId b = Create("cpu", "schematic");
  db_.DeleteObject(a);
  size_t count = 0;
  db_.ForEachObject([&](OidId id, const MetaObject&) {
    EXPECT_EQ(id, b);
    ++count;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(MetaDatabaseTest, VersionContinuesAfterDeletingLatest) {
  Create("cpu", "hdl");
  const OidId v2 = Create("cpu", "hdl");
  db_.DeleteObject(v2);
  const OidId v3 = Create("cpu", "hdl");
  EXPECT_EQ(db_.GetObject(v3).version, 3);
}

/// Chain-length sweep: version chains stay consistent at any length.
class VersionChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(VersionChainSweep, ChainInvariants) {
  MetaDatabase db;
  const int length = GetParam();
  for (int i = 0; i < length; ++i) {
    db.CreateNextVersion("blk", "view", "t", i);
  }
  const auto chain = db.VersionChain("blk", "view");
  ASSERT_EQ(chain.size(), static_cast<size_t>(length));
  for (int i = 0; i < length; ++i) {
    EXPECT_EQ(db.GetObject(chain[static_cast<size_t>(i)]).version, i + 1);
    if (i > 0) {
      EXPECT_EQ(db.PreviousVersion(chain[static_cast<size_t>(i)]),
                chain[static_cast<size_t>(i - 1)]);
    }
  }
  EXPECT_EQ(db.FindLatest("blk", "view"), chain.back());
}

INSTANTIATE_TEST_SUITE_P(Lengths, VersionChainSweep,
                         ::testing::Values(1, 2, 5, 16, 64));

}  // namespace
}  // namespace damocles::metadb
