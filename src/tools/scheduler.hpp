// Tool scheduling (paper §3.3).
//
// Two cooperating mechanisms:
//  * exec run-time rules give *automatic* invocation — the blueprint
//    fires "exec netlister $oid" on every schematic check-in;
//  * wrapper-side permission gating stops tools from running on stale
//    or failed inputs.
//
// The ToolScheduler binds script names to tools and keeps the ledger of
// automatic invocations that bench_claim_scheduling reports.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/project_server.hpp"
#include "tools/script_registry.hpp"
#include "tools/simulated_tools.hpp"

namespace damocles::tools {

/// Record of one scheduled invocation.
struct ScheduledRun {
  std::string script;
  metadb::Oid trigger;    ///< OID whose rule fired.
  std::string event;      ///< Triggering event.
  int exit_status = 0;
  int64_t timestamp = 0;
};

/// Binds blueprint exec-rules to the simulated tool suite.
class ToolScheduler {
 public:
  /// Installs the script executor on the server's engine. Throws Error
  /// when the server has more than one shard: scripts run only on a
  /// one-shard server, whose every exec rule fires on the calling
  /// thread.
  explicit ToolScheduler(engine::ProjectServer& server);

  /// Registers the standard EDTC tool scripts:
  ///   netlister / netlister.sh  -> Netlister::RunFromScript
  /// and wires the registry into the engine.
  void InstallStandardScripts(Netlister& netlister);

  /// Registers an arbitrary script.
  void Register(std::string name, ScriptFn fn);

  ScriptRegistry& registry() noexcept { return registry_; }

  /// Ledger of every scheduled run (script invocations via exec rules).
  const std::vector<ScheduledRun>& ledger() const noexcept { return ledger_; }

  size_t automatic_runs() const noexcept { return ledger_.size(); }

 private:
  engine::ProjectServer& server_;
  ScriptRegistry registry_;
  std::vector<ScheduledRun> ledger_;
};

}  // namespace damocles::tools
