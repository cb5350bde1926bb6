// Project administration console: tasks, visualization and the wire
// command session.
//
// Extends the paper with its own future-work list (conclusion section):
// design tasks as a higher-level description of design activities, and
// visualization of the design state relative to its flow. The console
// drives the whole project through the textual command interface a
// remote client would use.
#include <cstdio>

#include "engine/wire_session.hpp"
#include "tasks/task_graph.hpp"
#include "tools/scheduler.hpp"
#include "viz/flow_viz.hpp"
#include "workload/edtc.hpp"

int main() {
  using namespace damocles;

  engine::ProjectServer server("console");
  server.InitializeBlueprint(workload::EdtcBlueprintText());
  tools::ToolScheduler scheduler(server);
  tools::Netlister netlister(server);
  scheduler.InstallStandardScripts(netlister);

  // --- The flow as the administrator sees it -----------------------------
  std::printf("%s\n", viz::RenderFlowDiagram(server.engine().Current())
                          .c_str());

  // --- Milestones: the tape-out task graph -------------------------------
  tasks::TaskGraph milestones;
  milestones.AddTask({"model_validated",
                      "HDL model passes simulation",
                      {{"CPU", "HDL_model", "sim_result", "good"}},
                      {}});
  milestones.AddTask({"front_end_current",
                      "all schematics up to date",
                      {{"", "schematic", "uptodate", "true"}},
                      {"model_validated"}});
  milestones.AddTask({"netlist_signoff",
                      "netlist simulated clean",
                      {{"CPU", "netlist", "sim_result", "good"}},
                      {"front_end_current"}});
  milestones.AddTask({"layout_signoff",
                      "DRC clean and LVS equivalent",
                      {{"CPU", "layout", "drc_result", "good"},
                       {"CPU", "layout", "lvs_result", "is_equiv"}},
                      {"netlist_signoff"}});

  const auto show_tasks = [&](const char* when) {
    std::printf("=== milestones %s (progress %.0f%%) ===\n%s\n", when,
                milestones.Progress(server.database()) * 100.0,
                tasks::FormatTaskReport(
                    milestones.EvaluateAll(server.database()))
                    .c_str());
  };
  show_tasks("at project start");

  // --- Designers work through the wire console ---------------------------
  engine::WireSession alice(server, "alice");
  engine::WireSession bob(server, "bob");
  const auto run = [](engine::WireSession& who, const char* line) {
    std::printf("%s> %s\n", who.user().c_str(), line);
    std::printf("%s", who.HandleLine(line).c_str());
  };

  run(alice, "checkin CPU HDL_model \"module cpu; endmodule\"");
  run(alice, "postEvent hdl_sim up CPU,HDL_model,1 \"good\"");
  std::printf("\n");
  show_tasks("after model validation");

  // Synthesis and back end run as tools (outside the console).
  tools::SynthesisTool synthesis(server);
  tools::LayoutEditor layout(server);
  tools::DrcTool drc(server, tools::VerdictModel{0.0});
  tools::LvsTool lvs(server, tools::VerdictModel{0.0});
  synthesis.Synthesize("CPU", {"REG"}, "bob");
  run(bob, "postEvent nl_sim up CPU,netlist,1 \"good\"");
  layout.Draw("CPU", "bob");
  drc.Check("CPU", "bob");
  lvs.Check("CPU", "bob");
  std::printf("\n");
  show_tasks("after back-end sign-off");

  run(bob, "blockers uptodate=true sim_result=good");
  run(bob, "checkpoint signoff_candidate");
  run(alice, "validate");

  // --- The state relative to the flow ------------------------------------
  std::printf("\n%s", viz::RenderBlockState(server.database(), "CPU").c_str());

  std::printf("\n=== Graphviz export (render with: dot -Tsvg) ===\n%s",
              viz::ExportDot(server.database()).c_str());
  return 0;
}
