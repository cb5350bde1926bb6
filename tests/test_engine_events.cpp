// Run-time engine event processing: phases, propagation, posts.
#include <gtest/gtest.h>

#include "blueprint/parser.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "engine/run_time_engine.hpp"

namespace damocles::engine {
namespace {

using events::Direction;
using events::EventMessage;
using metadb::LinkKind;
using metadb::MetaDatabase;
using metadb::Oid;
using metadb::OidId;

class EngineEventTest : public ::testing::Test {
 protected:
  EngineEventTest() : engine_(db_, clock_) {}

  void Load(const std::string& source) {
    engine_.LoadBlueprint(blueprint::ParseBlueprint(source));
  }

  EventMessage Event(const std::string& name, OidId target,
                     Direction direction = Direction::kDown,
                     const std::string& arg = "") {
    EventMessage event;
    event.name = name;
    event.direction = direction;
    event.target = db_.OidOf(target);
    event.arg = arg;
    event.user = "tester";
    return event;
  }

  std::string Prop(OidId id, const std::string& name) {
    const std::string* value = db_.GetProperty(id, name);
    return value == nullptr ? std::string("<absent>") : *value;
  }

  MetaDatabase db_;
  SimClock clock_;
  RunTimeEngine engine_;
};

// A stub executor recording invocations and optionally posting events.
class RecordingExecutor : public ScriptExecutor {
 public:
  int Execute(const ExecRequest& request) override {
    requests.push_back(request);
    return exit_status;
  }
  std::vector<ExecRequest> requests;
  int exit_status = 0;
};

TEST_F(EngineEventTest, AssignActionWritesProperty) {
  Load(R"(blueprint t
          view v
            property sim_result default bad
            when hdl_sim do sim_result = $arg done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("cpu", "v", "u");
  engine_.PostEvent(Event("hdl_sim", id, Direction::kUp, "good"));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "sim_result"), "good");
}

TEST_F(EngineEventTest, AssignSeesBuiltinVariables) {
  Load(R"(blueprint t
          view v
            property stamp default none
            when tag do stamp = "$user @ $date on $oid ($OID) ev=$event" done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("cpu", "v", "u");
  clock_.Advance(3661);
  engine_.PostEvent(Event("tag", id, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "stamp"),
            "tester @ day 0 01:01:01 on cpu,v,1 (<cpu.v.1>) ev=tag");
}

TEST_F(EngineEventTest, AssignChainSeesEarlierWrites) {
  Load(R"(blueprint t
          view v
            property a default 0
            property b default 0
            when ev do a = one; b = "$a-then-b" done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("x", "v", "u");
  engine_.PostEvent(Event("ev", id));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "b"), "one-then-b");
}

TEST_F(EngineEventTest, ContinuousAssignmentReevaluatedAfterAssigns) {
  Load(R"(blueprint t
          view v
            property r default bad
            let state = ($r == good)
            when result do r = $arg done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("x", "v", "u");
  EXPECT_EQ(Prop(id, "state"), "false");
  engine_.PostEvent(Event("result", id, Direction::kUp, "good"));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "state"), "true");
  engine_.PostEvent(Event("result", id, Direction::kUp, "3 errors"));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "state"), "false");
}

TEST_F(EngineEventTest, ExecRunsRegisteredScripts) {
  Load(R"(blueprint t
          view schematic
            when ckin do exec netlister "$oid" done
          endview
          endblueprint)");
  RecordingExecutor executor;
  engine_.SetScriptExecutor(&executor);
  const OidId id = engine_.OnCreateObject("cpu", "schematic", "u");
  engine_.PostEvent(Event("ckin", id, Direction::kUp));
  engine_.ProcessAll();

  ASSERT_EQ(executor.requests.size(), 1u);
  EXPECT_EQ(executor.requests[0].script, "netlister");
  ASSERT_EQ(executor.requests[0].args.size(), 1u);
  EXPECT_EQ(executor.requests[0].args[0], "cpu,schematic,1");
  EXPECT_EQ(executor.requests[0].event, "ckin");
  EXPECT_EQ(engine_.stats().exec_actions, 1u);
}

TEST_F(EngineEventTest, ExecWithoutExecutorIsCountedButSkipped) {
  Load(R"(blueprint t
          view v
            when ev do exec ghost.sh done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("x", "v", "u");
  engine_.PostEvent(Event("ev", id));
  EXPECT_NO_THROW(engine_.ProcessAll());
  EXPECT_EQ(engine_.stats().exec_actions, 1u);
}

TEST_F(EngineEventTest, ScriptsDispatchAfterTheWholeWave) {
  // Wrapper scripts are launched in phase 3 but their effects are
  // asynchronous: dispatch happens after the wave has fully propagated.
  Load(R"(blueprint t
          view a
            when ev do exec probe done
          endview
          view b
            property flag default no
            link_from a propagates ev type derived
            when ev do flag = yes done
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);

  // The probe captures b.flag at dispatch time: if scripts ran inline
  // (old behaviour) it would still read "no".
  class Probe : public ScriptExecutor {
   public:
    Probe(metadb::MetaDatabase& db, OidId b) : db_(db), b_(b) {}
    int Execute(const ExecRequest&) override {
      observed = *db_.GetProperty(b_, "flag");
      return 0;
    }
    std::string observed;

   private:
    metadb::MetaDatabase& db_;
    OidId b_;
  };
  Probe probe(db_, b);
  engine_.SetScriptExecutor(&probe);

  engine_.PostEvent(Event("ev", a, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(probe.observed, "yes");
}

TEST_F(EngineEventTest, RetemplateLinksFollowsNewBlueprint) {
  Load(R"(blueprint strict
          view b
            link_from a propagates outofdate type derived move
          endview
          view a
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  const auto link = engine_.OnCreateLink(LinkKind::kDerive, a, b);
  EXPECT_TRUE(db_.GetLink(link).Propagates("outofdate"));

  Load(R"(blueprint loose
          view b
            link_from a propagates nothing type derived move
          endview
          view a
          endview
          endblueprint)");
  EXPECT_EQ(engine_.RetemplateLinks(), 1u);
  EXPECT_FALSE(db_.GetLink(link).Propagates("outofdate"));
  EXPECT_TRUE(db_.GetLink(link).Propagates("nothing"));
  EXPECT_EQ(db_.GetLink(link).properties.at("PROPAGATE"), "nothing");
  // Idempotent: a second pass touches nothing.
  EXPECT_EQ(engine_.RetemplateLinks(), 0u);
}

TEST_F(EngineEventTest, NotifyReachesSink) {
  Load(R"(blueprint t
          view v
            when ckin do notify "$owner: Your oid $OID has been modified" done
          endview
          endblueprint)");
  std::vector<Notification> notifications;
  engine_.SetNotificationSink(
      [&](const Notification& n) { notifications.push_back(n); });
  const OidId id = engine_.OnCreateObject("cpu", "v", "alice");
  db_.SetProperty(id, "owner", "alice");
  engine_.PostEvent(Event("ckin", id, Direction::kUp));
  engine_.ProcessAll();

  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].message,
            "alice: Your oid <cpu.v.1> has been modified");
  EXPECT_EQ(notifications[0].event, "ckin");
}

TEST_F(EngineEventTest, OwnerFallsBackToCreator) {
  Load(R"(blueprint t
          view v
            when ping do notify "$owner" done
          endview
          endblueprint)");
  std::vector<Notification> notifications;
  engine_.SetNotificationSink(
      [&](const Notification& n) { notifications.push_back(n); });
  const OidId id = engine_.OnCreateObject("cpu", "v", "creator_carl");
  engine_.PostEvent(Event("ping", id));
  engine_.ProcessAll();
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].message, "creator_carl");
}

TEST_F(EngineEventTest, PropagationFollowsDirectionDown) {
  Load(R"(blueprint t
          view default
            property uptodate default true
            when outofdate do uptodate = false done
          endview
          view b
            link_from a propagates outofdate type derived
          endview
          view a
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);

  engine_.PostEvent(Event("outofdate", a, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(a, "uptodate"), "false");  // Target runs rules itself.
  EXPECT_EQ(Prop(b, "uptodate"), "false");  // Received by propagation.
  EXPECT_EQ(engine_.stats().propagated_deliveries, 1u);
}

TEST_F(EngineEventTest, PropagationDoesNotTravelAgainstDirection) {
  Load(R"(blueprint t
          view default
            property uptodate default true
            when outofdate do uptodate = false done
          endview
          view b
            link_from a propagates outofdate type derived
          endview
          view a
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);

  // Down from b: the a->b link is an in-link of b; nothing downstream.
  engine_.PostEvent(Event("outofdate", b, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(a, "uptodate"), "true");
  EXPECT_EQ(Prop(b, "uptodate"), "false");

  // Up from b reaches a.
  engine_.PostEvent(Event("outofdate", b, Direction::kUp));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(a, "uptodate"), "false");
}

TEST_F(EngineEventTest, PropagationFilteredByPropagateList) {
  Load(R"(blueprint t
          view default
            property seen default no
            when gossip do seen = yes done
          endview
          view b
            link_from a propagates othernews type derived
          endview
          view a
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);

  engine_.PostEvent(Event("gossip", a, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(a, "seen"), "yes");
  EXPECT_EQ(Prop(b, "seen"), "no");  // Link does not carry 'gossip'.
}

TEST_F(EngineEventTest, PropagationTraversesChains) {
  Load(R"(blueprint t
          view default
            property uptodate default true
            when outofdate do uptodate = false done
          endview
          view v1
            link_from v0 propagates outofdate type derived
          endview
          view v2
            link_from v1 propagates outofdate type derived
          endview
          view v0
          endview
          endblueprint)");
  const OidId v0 = engine_.OnCreateObject("x", "v0", "u");
  const OidId v1 = engine_.OnCreateObject("x", "v1", "u");
  const OidId v2 = engine_.OnCreateObject("x", "v2", "u");
  engine_.OnCreateLink(LinkKind::kDerive, v0, v1);
  engine_.OnCreateLink(LinkKind::kDerive, v1, v2);

  engine_.PostEvent(Event("outofdate", v0, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(v2, "uptodate"), "false");
  EXPECT_EQ(engine_.stats().propagated_deliveries, 2u);
  EXPECT_EQ(engine_.stats().max_wave_extent, 3u);
}

TEST_F(EngineEventTest, CyclicGraphsTerminate) {
  Load(R"(blueprint t
          view default
            property hits default none
            when loop do hits = yes done
          endview
          view r
            use_link propagates loop
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("a", "r", "u");
  const OidId b = engine_.OnCreateObject("b", "r", "u");
  const OidId c = engine_.OnCreateObject("c", "r", "u");
  engine_.OnCreateLink(LinkKind::kUse, a, b);
  engine_.OnCreateLink(LinkKind::kUse, b, c);
  engine_.OnCreateLink(LinkKind::kUse, c, a);  // Cycle.

  engine_.PostEvent(Event("loop", a, Direction::kDown));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(a, "hits"), "yes");
  EXPECT_EQ(Prop(b, "hits"), "yes");
  EXPECT_EQ(Prop(c, "hits"), "yes");
  // Each OID delivered exactly once: 2 propagated + 1 origin.
  EXPECT_EQ(engine_.stats().propagated_deliveries, 2u);
  EXPECT_EQ(engine_.stats().waves_truncated, 0u);
}

TEST_F(EngineEventTest, WaveTruncationGuard) {
  EngineOptions options;
  options.max_wave_deliveries = 2;
  RunTimeEngine small(db_, clock_, options);
  small.LoadBlueprint(blueprint::ParseBlueprint(R"(
      blueprint t
      view r
        use_link propagates flood
      endview
      endblueprint)"));
  const OidId a = small.OnCreateObject("a", "r", "u");
  const OidId b = small.OnCreateObject("b", "r", "u");
  const OidId c = small.OnCreateObject("c", "r", "u");
  const OidId d = small.OnCreateObject("d", "r", "u");
  small.OnCreateLink(LinkKind::kUse, a, b);
  small.OnCreateLink(LinkKind::kUse, b, c);
  small.OnCreateLink(LinkKind::kUse, c, d);

  EventMessage event;
  event.name = "flood";
  event.direction = Direction::kDown;
  event.target = db_.OidOf(a);
  small.PostEvent(event);
  small.ProcessAll();
  EXPECT_EQ(small.stats().waves_truncated, 1u);
}

TEST_F(EngineEventTest, DirectionPostStartsSubWaveFromCurrentOid) {
  // The paper's central pattern: ckin posts outofdate down.
  Load(R"(blueprint t
          view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
          endview
          view derived_view
            link_from golden propagates outofdate type derived
          endview
          view golden
          endview
          endblueprint)");
  const OidId golden = engine_.OnCreateObject("x", "golden", "u");
  const OidId derived = engine_.OnCreateObject("x", "derived_view", "u");
  engine_.OnCreateLink(LinkKind::kDerive, golden, derived);

  engine_.PostEvent(Event("ckin", golden, Direction::kUp));
  engine_.ProcessAll();
  // The origin keeps uptodate=true: the sub-wave's rules run at the
  // neighbours only, not at the posting OID.
  EXPECT_EQ(Prop(golden, "uptodate"), "true");
  EXPECT_EQ(Prop(derived, "uptodate"), "false");
}

TEST_F(EngineEventTest, PostToViewGoesThroughQueue) {
  Load(R"(blueprint t
          view a
            when ckin do post refresh down to c done
          endview
          view b
            link_from a propagates nothing type derived
          endview
          view c
            property refreshed default no
            link_from b propagates nothing type derived
            when refresh do refreshed = yes done
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  const OidId c = engine_.OnCreateObject("x", "c", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);
  engine_.OnCreateLink(LinkKind::kDerive, b, c);

  engine_.PostEvent(Event("ckin", a, Direction::kUp));
  engine_.ProcessAll();
  // Delivered to the nearest OID of view c in the down direction, two
  // hops away, even though the links propagate nothing.
  EXPECT_EQ(Prop(c, "refreshed"), "yes");
  EXPECT_EQ(engine_.stats().rule_posted_events, 1u);
}

TEST_F(EngineEventTest, PostToViewMissIsCounted) {
  Load(R"(blueprint t
          view a
            when ckin do post refresh down to missing_view done
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  engine_.PostEvent(Event("ckin", a, Direction::kUp));
  engine_.ProcessAll();
  EXPECT_EQ(engine_.stats().post_to_misses, 1u);
}

TEST_F(EngineEventTest, FifoOrderingAcrossPostedEvents) {
  Load(R"(blueprint t
          view v
            property log default empty
            when first do log = "$log|first"; post second down to v done
            when second do log = "$log|second" done
            when third do log = "$log|third" done
          endview
          view v2
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("x", "v", "u");
  const OidId other = engine_.OnCreateObject("y", "v", "u");
  engine_.OnCreateLink(LinkKind::kDerive, id, other);

  engine_.PostEvent(Event("first", id));
  engine_.PostEvent(Event("third", id));
  engine_.ProcessAll();
  // 'second' (posted during 'first') queues behind the already queued
  // 'third' — strict FIFO, paper §3.1.
  EXPECT_EQ(Prop(id, "log"), "empty|first|third");
  EXPECT_EQ(Prop(other, "log"), "empty|second");
}

TEST_F(EngineEventTest, DanglingEventsCountedOrThrow) {
  Load("blueprint t view v endview endblueprint");
  EventMessage ghost;
  ghost.name = "ev";
  ghost.target = Oid{"no", "such", 1};
  engine_.PostEvent(ghost);
  engine_.ProcessAll();
  EXPECT_EQ(engine_.stats().dangling_events, 1u);

  EngineOptions strict;
  strict.strict_targets = true;
  RunTimeEngine strict_engine(db_, clock_, strict);
  strict_engine.LoadBlueprint(
      blueprint::ParseBlueprint("blueprint t view v endview endblueprint"));
  strict_engine.PostEvent(ghost);
  EXPECT_THROW(strict_engine.ProcessAll(), NotFoundError);
}

TEST_F(EngineEventTest, EventsWithoutBlueprintJustJournal) {
  const OidId id = db_.CreateNextVersion("x", "v", "u", 0);
  EventMessage event;
  event.name = "ev";
  event.target = db_.OidOf(id);
  engine_.PostEvent(event);
  EXPECT_NO_THROW(engine_.ProcessAll());
  EXPECT_EQ(engine_.journal().Size(), 1u);
}

TEST_F(EngineEventTest, ReloadingBlueprintChangesRules) {
  Load(R"(blueprint strict
          view v
            property hits default 0
            when ev do hits = strict done
          endview
          endblueprint)");
  const OidId id = engine_.OnCreateObject("x", "v", "u");
  engine_.PostEvent(Event("ev", id));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "hits"), "strict");

  Load(R"(blueprint loose
          view v
            property hits default 0
            when ev do hits = loose done
          endview
          endblueprint)");
  engine_.PostEvent(Event("ev", id));
  engine_.ProcessAll();
  EXPECT_EQ(Prop(id, "hits"), "loose");
  EXPECT_EQ(engine_.Current().name, "loose");
}

TEST_F(EngineEventTest, JournalRecordsWholeWave) {
  Load(R"(blueprint t
          view default
            when outofdate do uptodate = false done
          endview
          view b
            link_from a propagates outofdate type derived
          endview
          view a
          endview
          endblueprint)");
  const OidId a = engine_.OnCreateObject("x", "a", "u");
  const OidId b = engine_.OnCreateObject("x", "b", "u");
  engine_.OnCreateLink(LinkKind::kDerive, a, b);
  engine_.PostEvent(Event("outofdate", a, Direction::kDown));
  engine_.ProcessAll();
  // One queue record + one propagated-delivery record.
  EXPECT_EQ(engine_.journal().Size(), 2u);
  EXPECT_EQ(engine_.journal().At(1).event.origin,
            events::EventOrigin::kPropagated);
}

}  // namespace
}  // namespace damocles::engine
