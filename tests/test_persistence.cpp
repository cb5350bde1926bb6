#include "metadb/persistence.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "metadb/config_builder.hpp"
#include "test_util.hpp"

namespace damocles::metadb {
namespace {

MetaDatabase MakeSampleDatabase() {
  MetaDatabase db;
  const OidId hdl1 = db.CreateNextVersion("cpu", "HDL_model", "alice", 10);
  const OidId hdl2 = db.CreateNextVersion("cpu", "HDL_model", "alice", 20);
  const OidId sch = db.CreateNextVersion("cpu", "schematic", "bob", 30);
  db.SetProperty(hdl1, "sim_result", "4 errors");
  db.SetProperty(hdl2, "sim_result", "good");
  db.SetProperty(sch, "uptodate", "true");
  db.SetProperty(sch, "note", "has \"quotes\" and \\backslash");
  const LinkId link = db.CreateLink(LinkKind::kDerive, hdl2, sch,
                                    {"outofdate", "lvs"}, "derived",
                                    CarryPolicy::kMove);
  db.GetLinkMutable(link).properties["PROPAGATE"] = "outofdate,lvs";

  Configuration config = BuildFullCheckpoint(db, "snap", 40);
  db.SaveConfiguration(std::move(config));

  // A tombstone, to prove dead slots survive the round trip.
  const OidId doomed = db.CreateNextVersion("tmp", "scratch", "bob", 50);
  db.DeleteObject(doomed);
  return db;
}

TEST(Persistence, RoundTripPreservesEverything) {
  const MetaDatabase original = MakeSampleDatabase();
  const std::string text = SaveDatabaseString(original);
  const MetaDatabase loaded = LoadDatabaseString(text);

  EXPECT_EQ(loaded.ObjectSlotCount(), original.ObjectSlotCount());
  EXPECT_EQ(loaded.LinkSlotCount(), original.LinkSlotCount());
  EXPECT_EQ(loaded.ConfigurationSlotCount(),
            original.ConfigurationSlotCount());

  // Objects keep identity, properties, liveness.
  for (size_t i = 0; i < original.ObjectSlotCount(); ++i) {
    const OidId id(static_cast<uint32_t>(i));
    const MetaObject& a = original.GetObject(id);
    const MetaObject& b = loaded.GetObject(id);
    EXPECT_EQ(original.OidOf(a), loaded.OidOf(b));
    EXPECT_EQ(testutil::PropertyTexts(original, id),
              testutil::PropertyTexts(loaded, id));
    EXPECT_EQ(a.created_at, b.created_at);
    EXPECT_EQ(original.SymbolText(a.created_by),
              loaded.SymbolText(b.created_by));
    EXPECT_EQ(a.alive, b.alive);
  }
  // Links keep endpoints, kinds, carry, PROPAGATE.
  for (size_t i = 0; i < original.LinkSlotCount(); ++i) {
    const Link& a = original.GetLink(LinkId(uint32_t(i)));
    const Link& b = loaded.GetLink(LinkId(uint32_t(i)));
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.propagates, b.propagates);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.carry, b.carry);
    EXPECT_EQ(a.properties, b.properties);
    EXPECT_EQ(a.alive, b.alive);
  }
  // Configurations keep their handle sets.
  const Configuration& config =
      loaded.GetConfiguration(*loaded.FindConfiguration("snap"));
  EXPECT_EQ(config.oids.size(), 3u);
  EXPECT_EQ(config.links.size(), 1u);
}

TEST(Persistence, SaveIsDeterministic) {
  const MetaDatabase db = MakeSampleDatabase();
  EXPECT_EQ(SaveDatabaseString(db), SaveDatabaseString(db));
}

TEST(Persistence, DoubleRoundTripIsStable) {
  const MetaDatabase db = MakeSampleDatabase();
  const std::string once = SaveDatabaseString(db);
  const std::string twice = SaveDatabaseString(LoadDatabaseString(once));
  EXPECT_EQ(once, twice);
}

TEST(Persistence, LoadedDatabaseRemainsUsable) {
  MetaDatabase loaded =
      LoadDatabaseString(SaveDatabaseString(MakeSampleDatabase()));
  // Indexes were rebuilt: lookups and new versions work.
  EXPECT_TRUE(loaded.FindObject(Oid{"cpu", "HDL_model", 2}).has_value());
  const OidId v3 = loaded.CreateNextVersion("cpu", "HDL_model", "carol", 99);
  EXPECT_EQ(loaded.GetObject(v3).version, 3);
  // Adjacency was rebuilt.
  const auto sch = loaded.FindObject(Oid{"cpu", "schematic", 1});
  ASSERT_TRUE(sch.has_value());
  EXPECT_EQ(loaded.InLinks(*sch).size(), 1u);
}

TEST(Persistence, RejectsMissingMagic) {
  EXPECT_THROW(LoadDatabaseString("not a database\n"), WireFormatError);
  EXPECT_THROW(LoadDatabaseString(""), WireFormatError);
}

TEST(Persistence, RejectsTruncatedInput) {
  const std::string text = SaveDatabaseString(MakeSampleDatabase());
  // Cut the file somewhere in the middle of the object section.
  const std::string truncated = text.substr(0, text.size() / 3);
  EXPECT_THROW(LoadDatabaseString(truncated), WireFormatError);
}

TEST(Persistence, RejectsGarbageLines) {
  std::string text = SaveDatabaseString(MakeSampleDatabase());
  text.insert(text.find("links "), "gibberish here\n");
  EXPECT_THROW(LoadDatabaseString(text), WireFormatError);
}

TEST(Persistence, ErrorsNameLineAndSection) {
  // A checkpoint torn mid-link-body reports both where (line) and what
  // part of the file (section) failed — the operator debugging a
  // recovery fallback needs both.
  const std::string text = SaveDatabaseString(MakeSampleDatabase());
  const std::string torn = text.substr(0, text.find("propagates"));
  try {
    LoadDatabaseString(torn);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find("(links)"), std::string::npos) << what;
  }
  // Truncation inside the object section names that section.
  try {
    LoadDatabaseString(text.substr(0, text.find("created")));
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("(objects)"), std::string::npos)
        << error.what();
  }
}

TEST(Persistence, RejectsGarbageSuffix) {
  // Text appended past the configs section (e.g. a torn write that
  // doubled part of the file) must fail loudly, not load silently.
  const std::string text = SaveDatabaseString(MakeSampleDatabase());
  try {
    LoadDatabaseString(text + "object 99 alive=1\n");
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("trailing content"), std::string::npos) << what;
    EXPECT_NE(what.find("(configs)"), std::string::npos) << what;
  }
  EXPECT_THROW(LoadDatabaseString(text + text), WireFormatError);
}

// --- Adversarial round trips (checkpoint-shaped databases) ------------------

/// Objects and links must keep their exact slot ids across a round
/// trip: recovery rebuilds adjacency from raw OidId/LinkId values, so a
/// shifted slot silently rewires the design graph.
void ExpectBitIdenticalIds(const MetaDatabase& original,
                           const MetaDatabase& loaded) {
  ASSERT_EQ(loaded.ObjectSlotCount(), original.ObjectSlotCount());
  ASSERT_EQ(loaded.LinkSlotCount(), original.LinkSlotCount());
  for (size_t i = 0; i < original.ObjectSlotCount(); ++i) {
    const MetaObject& object = original.GetObject(OidId(uint32_t(i)));
    if (!object.alive) continue;
    const auto found = loaded.FindObject(original.OidOf(object));
    ASSERT_TRUE(found.has_value()) << "slot " << i;
    EXPECT_EQ(found->value(), uint32_t(i));
  }
  for (size_t i = 0; i < original.LinkSlotCount(); ++i) {
    const Link& a = original.GetLink(LinkId(uint32_t(i)));
    const Link& b = loaded.GetLink(LinkId(uint32_t(i)));
    EXPECT_EQ(a.from.value(), b.from.value()) << "link slot " << i;
    EXPECT_EQ(a.to.value(), b.to.value()) << "link slot " << i;
  }
}

TEST(PersistenceAdversarial, EmptyDatabaseRoundTrips) {
  const MetaDatabase empty;
  const std::string once = SaveDatabaseString(empty);
  const MetaDatabase loaded = LoadDatabaseString(once);
  EXPECT_EQ(loaded.ObjectSlotCount(), 0u);
  EXPECT_EQ(loaded.LinkSlotCount(), 0u);
  EXPECT_EQ(SaveDatabaseString(loaded), once);
}

TEST(PersistenceAdversarial, TombstoneHeavyDatabaseRoundTrips) {
  // Mass-delete leaves mostly dead slots; live survivors must keep
  // their ids exactly.
  MetaDatabase db;
  std::vector<OidId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(db.CreateNextVersion("blk" + std::to_string(i % 8), "hdl",
                                       "fuzz", i));
  }
  for (int i = 0; i < 32; ++i) {
    ids.push_back(db.CreateNextVersion("blk" + std::to_string(i % 8), "sch",
                                       "fuzz", 100 + i));
  }
  std::vector<LinkId> links;
  for (size_t i = 0; i + 1 < ids.size(); i += 3) {
    links.push_back(db.CreateLink(LinkKind::kDerive, ids[i], ids[i + 1],
                                  {"outofdate"}, "derived",
                                  CarryPolicy::kNone));
  }
  // Delete most links first (DeleteObject requires detached endpoints),
  // then most objects.
  for (size_t i = 0; i < links.size(); ++i) {
    if (i % 4 != 0) db.DeleteLink(links[i]);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 5 != 0 && db.GetObject(ids[i]).alive &&
        db.InLinks(ids[i]).empty() && db.OutLinks(ids[i]).empty()) {
      db.DeleteObject(ids[i]);
    }
  }

  const std::string once = SaveDatabaseString(db);
  const MetaDatabase loaded = LoadDatabaseString(once);
  EXPECT_EQ(SaveDatabaseString(loaded), once);
  ExpectBitIdenticalIds(db, loaded);
}

TEST(PersistenceAdversarial, InterleavedDeleteRecreateRoundTrips) {
  // Delete/re-create churn (the state a snapshot taken mid-rebalance
  // sees): version chains with holes, slot ids far from dense.
  MetaDatabase db;
  for (int round = 0; round < 6; ++round) {
    std::vector<OidId> batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back(db.CreateNextVersion("churn" + std::to_string(i % 3),
                                           "view" + std::to_string(round % 2),
                                           "fuzz", round * 100 + i));
    }
    for (size_t i = 0; i < batch.size(); i += 2) {
      db.DeleteObject(batch[i]);
    }
  }
  const std::string once = SaveDatabaseString(db);
  const MetaDatabase loaded = LoadDatabaseString(once);
  EXPECT_EQ(SaveDatabaseString(loaded), once);
  ExpectBitIdenticalIds(db, loaded);
  // Version numbering continues after the holes, not inside them.
  const MetaDatabase* const_loaded = &loaded;
  int max_version = 0;
  const_loaded->ForEachObject([&](OidId, const MetaObject& object) {
    if (const_loaded->BlockOf(object) == "churn0") {
      max_version = std::max(max_version, object.version);
    }
  });
  MetaDatabase mutable_loaded = LoadDatabaseString(once);
  const OidId next =
      mutable_loaded.CreateNextVersion("churn0", "view0", "next", 999);
  EXPECT_GT(mutable_loaded.GetObject(next).version, max_version);
}

/// Property sweep: randomly built databases round-trip byte-identically.
class PersistenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistenceFuzz, RandomDatabaseRoundTrips) {
  damocles::Rng rng(GetParam());
  MetaDatabase db;
  std::vector<OidId> ids;

  const int blocks = static_cast<int>(rng.UniformInt(2, 6));
  const int views = static_cast<int>(rng.UniformInt(1, 4));
  for (int b = 0; b < blocks; ++b) {
    for (int v = 0; v < views; ++v) {
      const int versions = static_cast<int>(rng.UniformInt(1, 3));
      for (int k = 0; k < versions; ++k) {
        const OidId id = db.CreateNextVersion(
            "blk" + std::to_string(b), "view" + std::to_string(v), "fuzz",
            rng.UniformInt(0, 1000));
        ids.push_back(id);
        const int props = static_cast<int>(rng.UniformInt(0, 4));
        for (int p = 0; p < props; ++p) {
          db.SetProperty(id, "p" + std::to_string(p),
                         rng.Chance(0.5) ? "good" : "bad value with spaces");
        }
      }
    }
  }
  const int links = static_cast<int>(rng.UniformInt(0, 12));
  for (int l = 0; l < links; ++l) {
    const OidId from = ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    const OidId to = ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    if (from == to || !db.GetObject(from).alive || !db.GetObject(to).alive) {
      continue;
    }
    const CarryPolicy carry = static_cast<CarryPolicy>(rng.UniformInt(0, 2));
    try {
      db.CreateLink(rng.Chance(0.3) ? LinkKind::kUse : LinkKind::kDerive,
                    from, to, {"outofdate"}, "derive_from", carry);
    } catch (const IntegrityError&) {
      // Random endpoints may violate the use-link view invariant; fine.
    }
  }

  const std::string once = SaveDatabaseString(db);
  const std::string twice = SaveDatabaseString(LoadDatabaseString(once));
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

}  // namespace
}  // namespace damocles::metadb
