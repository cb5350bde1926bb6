// Figure 2 — template rule for a property of view GDSII.
//
// The figure shows "property DRC default bad copy": creating GDSII v6
// copies the DRC value from v5. We regenerate the figure's behaviour
// (printed demo) and measure version-creation cost as a function of how
// many properties the template carries and of the carry policy mix.
#include "bench_util.hpp"

#include "blueprint/parser.hpp"
#include "common/clock.hpp"
#include "engine/run_time_engine.hpp"

namespace {

using namespace damocles;

std::string TemplateBlueprint(int n_properties, const char* carry) {
  std::string text = "blueprint f2\nview GDSII\n";
  for (int i = 0; i < n_properties; ++i) {
    text += "  property p" + std::to_string(i) + " default bad " + carry +
            "\n";
  }
  text += "endview\nendblueprint\n";
  return text;
}

void BM_VersionCreation(benchmark::State& state) {
  const int n_properties = static_cast<int>(state.range(0));
  const char* carry = state.range(1) == 0   ? ""
                      : state.range(1) == 1 ? "copy"
                                            : "move";
  metadb::MetaDatabase db;
  SimClock clock;
  engine::RunTimeEngine engine(db, clock);
  engine.LoadBlueprint(
      blueprint::ParseBlueprint(TemplateBlueprint(n_properties, carry)));

  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.OnCreateObject("alu", "GDSII", "bench"));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string("carry=") + (*carry ? carry : "default") +
                 " props=" + std::to_string(n_properties));
}
BENCHMARK(BM_VersionCreation)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({8, 2});

void PrintSeries() {
  benchutil::PrintHeader(
      "Figure 2: property template with copy inheritance", "paper fig. 2",
      "Creating <alu.GDSII.6> copies the DRC property from v5 instead of "
      "re-defaulting.");

  metadb::MetaDatabase db;
  SimClock clock;
  engine::RunTimeEngine engine(db, clock);
  engine.LoadBlueprint(blueprint::ParseBlueprint(R"(
      blueprint f2
      view GDSII
        property DRC default bad copy
      endview
      endblueprint)"));

  metadb::OidId v5;
  for (int v = 1; v <= 5; ++v) v5 = engine.OnCreateObject("alu", "GDSII", "u");
  db.SetProperty(v5, "DRC", "ok");
  std::printf("  %s  Prop: DRC = %s\n", FormatOid(db.OidOf(v5)).c_str(),
              db.GetProperty(v5, "DRC")->c_str());

  const metadb::OidId v6 = engine.OnCreateObject("alu", "GDSII", "u");
  std::printf("  -- create new OID (copy property) -->\n");
  std::printf("  %s  Prop: DRC = %s   <- copied, as in the figure\n",
              FormatOid(db.OidOf(v6)).c_str(),
              db.GetProperty(v6, "DRC")->c_str());
  std::printf("  properties carried so far: %zu\n\n",
              engine.stats().properties_carried);

  std::printf("%-10s %-10s %-22s\n", "props", "carry", "writes per creation");
  for (const int props : {1, 8, 32}) {
    for (const char* carry : {"", "copy", "move"}) {
      metadb::MetaDatabase db2;
      SimClock clock2;
      engine::RunTimeEngine engine2(db2, clock2);
      engine2.LoadBlueprint(
          blueprint::ParseBlueprint(TemplateBlueprint(props, carry)));
      engine2.OnCreateObject("alu", "GDSII", "u");
      engine2.ResetStats();
      engine2.OnCreateObject("alu", "GDSII", "u");
      std::printf("%-10d %-10s %-22zu\n", props, *carry ? carry : "default",
                  engine2.stats().property_writes);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  damocles::benchutil::RunBenchmarks(argc, argv);
  return 0;
}
