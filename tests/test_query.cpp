#include "query/query.hpp"

#include <gtest/gtest.h>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "query/report.hpp"
#include "test_util.hpp"
#include "tools/scheduler.hpp"
#include "workload/edtc.hpp"

namespace damocles::query {
namespace {

using metadb::Oid;
using testutil::MakeEdtcServer;

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : server_(MakeEdtcServer()) {
    server_->CheckIn("CPU", "HDL_model", "m1", "alice");
    server_->CheckIn("CPU", "HDL_model", "m2", "alice");
    server_->CheckIn("CPU", "schematic", "s1", "bob");
    server_->CheckIn("REG", "schematic", "s1", "bob");
    server_->RegisterLink(metadb::LinkKind::kUse,
                          Oid{"CPU", "schematic", 1},
                          Oid{"REG", "schematic", 1});
    server_->RegisterLink(metadb::LinkKind::kDerive,
                          Oid{"CPU", "HDL_model", 2},
                          Oid{"CPU", "schematic", 1});
  }

  std::unique_ptr<engine::ProjectServer> server_;
};

TEST_F(QueryTest, FindByViewSorted) {
  ProjectQuery q(server_->database());
  const auto matches = q.FindByView("schematic");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].oid.block, "CPU");
  EXPECT_EQ(matches[1].oid.block, "REG");
}

TEST_F(QueryTest, FindByBlockAllViews) {
  ProjectQuery q(server_->database());
  const auto matches = q.FindByBlock("CPU");
  EXPECT_EQ(matches.size(), 3u);  // HDL_model v1+v2, schematic v1.
}

TEST_F(QueryTest, FindByProperty) {
  ProjectQuery q(server_->database());
  const auto good = q.FindByProperty("uptodate", "true");
  EXPECT_EQ(good.size(), 4u);
  const auto bad = q.FindByProperty("uptodate", "false");
  EXPECT_TRUE(bad.empty());
}

TEST_F(QueryTest, FindWhereArbitraryPredicate) {
  ProjectQuery q(server_->database());
  const auto v2s = q.FindWhere([](const metadb::MetaObject& object) {
    return object.version == 2;
  });
  ASSERT_EQ(v2s.size(), 1u);
  EXPECT_EQ(v2s[0].oid, (Oid{"CPU", "HDL_model", 2}));
}

TEST_F(QueryTest, FindMatchingBlueprintExpression) {
  // Reuse the blueprint expression engine for ad-hoc queries.
  const auto bp = blueprint::ParseBlueprint(
      "blueprint q view v let hit = ($view == schematic) and "
      "($uptodate == true) endview endblueprint");
  ProjectQuery q(server_->database());
  const auto matches = q.FindMatching(bp.views[0].assignments[0].expr);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(QueryTest, LatestVersionsPicksNewest) {
  ProjectQuery q(server_->database());
  const auto latest = q.LatestVersions(nullptr);
  ASSERT_EQ(latest.size(), 3u);  // CPU.HDL_model.2, CPU.schematic, REG.schematic.
  for (const Match& match : latest) {
    if (match.oid.block == "CPU" && match.oid.view == "HDL_model") {
      EXPECT_EQ(match.oid.version, 2);
    }
  }
}

TEST_F(QueryTest, OutOfDateAfterInvalidation) {
  server_->CheckIn("CPU", "HDL_model", "m3", "alice");  // Posts outofdate.
  ProjectQuery q(server_->database());
  const auto stale = q.OutOfDate();
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].oid, (Oid{"CPU", "schematic", 1}));
  EXPECT_EQ(stale[1].oid, (Oid{"REG", "schematic", 1}));
}

TEST_F(QueryTest, StateOfReportsContinuousAssignment) {
  ProjectQuery q(server_->database());
  const auto state = q.StateOf(Oid{"CPU", "schematic", 1});
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, "false");  // nl_sim_res is still 'bad'.
  EXPECT_FALSE(q.StateOf(Oid{"CPU", "HDL_model", 1}).has_value());
  EXPECT_THROW(q.StateOf(Oid{"no", "such", 1}), NotFoundError);
}

TEST_F(QueryTest, DistanceToPlannedState) {
  ProjectQuery q(server_->database());
  const auto blockers = q.DistanceToPlannedState(
      {{"sim_result", "good"}, {"uptodate", "true"}}, {"HDL_model"});
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0].oid, (Oid{"CPU", "HDL_model", 2}));
  EXPECT_EQ(blockers[0].property, "sim_result");
  EXPECT_EQ(blockers[0].actual_value, "bad");
}

TEST_F(QueryTest, PlannedStateScopesAllViewsWhenEmpty) {
  ProjectQuery q(server_->database());
  const auto blockers = q.DistanceToPlannedState({{"uptodate", "true"}}, {});
  EXPECT_TRUE(blockers.empty());  // Everything is up to date initially.
}

TEST_F(QueryTest, HierarchyMembersFollowsUseLinksOnly) {
  ProjectQuery q(server_->database());
  const auto members = q.HierarchyMembers(Oid{"CPU", "schematic", 1});
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].oid.block, "CPU");
  EXPECT_EQ(members[1].oid.block, "REG");
  EXPECT_THROW(q.HierarchyMembers(Oid{"no", "such", 1}), NotFoundError);
}

TEST_F(QueryTest, DerivationSourcesWalksUpstream) {
  ProjectQuery q(server_->database());
  const auto sources = q.DerivationSources(Oid{"CPU", "schematic", 1});
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].oid, (Oid{"CPU", "HDL_model", 2}));
}

TEST_F(QueryTest, QueryResultsBecomeConfigurations) {
  ProjectQuery q(server_->database());
  const auto matches = q.FindByView("schematic");
  metadb::Configuration config = q.ToConfiguration("schematics", matches, 42);
  EXPECT_EQ(config.oids.size(), 2u);
  EXPECT_EQ(config.created_at, 42);
  // Storable and retrievable.
  auto& db = const_cast<metadb::MetaDatabase&>(server_->database());
  const auto id = db.SaveConfiguration(std::move(config));
  EXPECT_EQ(db.GetConfiguration(id).name, "schematics");
}

TEST_F(QueryTest, ReportCountsAndFormats) {
  server_->CheckIn("CPU", "HDL_model", "m3", "alice");
  const ProjectReport report = BuildProjectReport(server_->database());
  EXPECT_EQ(report.total, 3u);
  EXPECT_EQ(report.out_of_date, 2u);

  const std::string text = FormatProjectReport(report);
  EXPECT_NE(text.find("<CPU.schematic.1>"), std::string::npos);
  EXPECT_NE(text.find("out-of-date 2"), std::string::npos);
}

TEST_F(QueryTest, BlockersFormatting) {
  ProjectQuery q(server_->database());
  const auto blockers = q.DistanceToPlannedState(
      {{"sim_result", "good"}}, {"HDL_model"});
  const std::string text = FormatBlockers(blockers);
  EXPECT_NE(text.find("sim_result"), std::string::npos);
  EXPECT_NE(text.find("needs 'good'"), std::string::npos);
  EXPECT_EQ(FormatBlockers({}), "planned state reached: no blockers\n");
}

}  // namespace
}  // namespace damocles::query
