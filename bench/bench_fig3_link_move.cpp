// Figure 3 — template rule for a derive link from NetList to GDSII.
//
// The figure shows a MOVE derive link being shifted from GDSII.v5 to
// GDSII.v6 when the new version is created. We regenerate the shift
// (printed demo) and measure the version-creation cost as a function of
// the number of links hanging off the previous version — the cost of
// the inheritance scheme for heavily connected design objects.
#include "bench_util.hpp"

#include "blueprint/parser.hpp"
#include "common/clock.hpp"
#include "engine/run_time_engine.hpp"

namespace {

using namespace damocles;
using metadb::LinkKind;

constexpr const char* kFigureBlueprint = R"(
    blueprint f3
    view GDSII
      link_from NetList propagates OutOfDate type derive_from move
    endview
    view NetList
    endview
    endblueprint)";

/// A GDSII object with `n_links` incoming move-links from netlists;
/// creating the next version shifts all of them.
void BM_VersionCreationWithLinkCarry(benchmark::State& state) {
  const int n_links = static_cast<int>(state.range(0));
  metadb::MetaDatabase db;
  SimClock clock;
  engine::RunTimeEngine engine(db, clock);
  engine.LoadBlueprint(blueprint::ParseBlueprint(kFigureBlueprint));

  std::vector<metadb::OidId> netlists;
  for (int i = 0; i < n_links; ++i) {
    netlists.push_back(
        engine.OnCreateObject("net" + std::to_string(i), "NetList", "u"));
  }
  metadb::OidId gdsii = engine.OnCreateObject("alu", "GDSII", "u");
  for (const metadb::OidId netlist : netlists) {
    engine.OnCreateLink(LinkKind::kDerive, netlist, gdsii);
  }

  for (auto _ : state) {
    gdsii = engine.OnCreateObject("alu", "GDSII", "u");
    benchmark::DoNotOptimize(gdsii);
  }
  state.SetItemsProcessed(state.iterations() * n_links);
  state.SetLabel("links=" + std::to_string(n_links));
}
BENCHMARK(BM_VersionCreationWithLinkCarry)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void PrintSeries() {
  benchutil::PrintHeader(
      "Figure 3: move derive-link shifted across versions", "paper fig. 3",
      "The derive link <alu.NetList.8> -> <alu.GDSII.5> carries MOVE; "
      "creating v6 shifts it.");

  metadb::MetaDatabase db;
  SimClock clock;
  engine::RunTimeEngine engine(db, clock);
  engine.LoadBlueprint(blueprint::ParseBlueprint(kFigureBlueprint));

  metadb::OidId netlist;
  for (int v = 1; v <= 8; ++v) {
    netlist = engine.OnCreateObject("alu", "NetList", "u");
  }
  metadb::OidId gdsii;
  for (int v = 1; v <= 5; ++v) gdsii = engine.OnCreateObject("alu", "GDSII", "u");
  const metadb::LinkId link =
      engine.OnCreateLink(LinkKind::kDerive, netlist, gdsii);

  const auto show = [&](const char* when) {
    const metadb::Link& l = db.GetLink(link);
    std::printf("  %s: %s --%s/%s--> %s\n", when,
                FormatOid(db.OidOf(l.from)).c_str(),
                l.properties.at("PROPAGATE").c_str(), l.type.c_str(),
                FormatOid(db.OidOf(l.to)).c_str());
  };
  show("before");
  engine.OnCreateObject("alu", "GDSII", "u");
  show("after create new OID (move link)");
  std::printf("  links carried: %zu\n\n", engine.stats().links_carried);

  std::printf("%-10s %-24s\n", "links", "shifted per new version");
  for (const int n : {1, 8, 64, 256}) {
    metadb::MetaDatabase db2;
    SimClock clock2;
    engine::RunTimeEngine engine2(db2, clock2);
    engine2.LoadBlueprint(blueprint::ParseBlueprint(kFigureBlueprint));
    metadb::OidId target = engine2.OnCreateObject("alu", "GDSII", "u");
    for (int i = 0; i < n; ++i) {
      const metadb::OidId src =
          engine2.OnCreateObject("net" + std::to_string(i), "NetList", "u");
      engine2.OnCreateLink(LinkKind::kDerive, src, target);
    }
    engine2.ResetStats();
    engine2.OnCreateObject("alu", "GDSII", "u");
    std::printf("%-10d %-24zu\n", n, engine2.stats().links_carried);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
