#include "tools/scheduler.hpp"

namespace damocles::tools {

ToolScheduler::ToolScheduler(engine::ProjectServer& server)
    : server_(server), registry_(/*strict=*/false) {
  // The executor is installed on shard 0's engine. With more shards an
  // exec rule delivered on another lane would be counted and skipped,
  // and a script would call back into the server from a worker thread.
  const uint32_t shards = server_.sharded_engine()->num_shards();
  if (shards > 1) {
    throw Error("ToolScheduler: scripts need a one-shard server, not " +
                std::to_string(shards) + " shards");
  }
  server_.engine().SetScriptExecutor(&registry_);
}

void ToolScheduler::InstallStandardScripts(Netlister& netlister) {
  const auto run_netlister = [this, &netlister](
                                 const engine::ExecRequest& request) {
    const int status = netlister.RunFromScript(request);
    ledger_.push_back(ScheduledRun{request.script, request.target,
                                   request.event, status, request.timestamp});
    return status;
  };
  registry_.Register("netlister", run_netlister);
  registry_.Register("netlister.sh", run_netlister);
}

void ToolScheduler::Register(std::string name, ScriptFn fn) {
  registry_.Register(std::move(name),
                     [this, fn = std::move(fn)](
                         const engine::ExecRequest& request) {
                       const int status = fn(request);
                       ledger_.push_back(ScheduledRun{request.script,
                                                      request.target,
                                                      request.event, status,
                                                      request.timestamp});
                       return status;
                     });
}

}  // namespace damocles::tools
