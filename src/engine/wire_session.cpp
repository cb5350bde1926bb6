#include "engine/wire_session.hpp"

#include "blueprint/parser.hpp"
#include "blueprint/validator.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "query/report.hpp"
#include "viz/flow_viz.hpp"

namespace damocles::engine {

namespace {

std::string NextWord(std::string_view& rest) {
  size_t i = 0;
  while (i < rest.size() && rest[i] == ' ') ++i;
  const size_t start = i;
  while (i < rest.size() && rest[i] != ' ') ++i;
  std::string word(rest.substr(start, i - start));
  rest.remove_prefix(i);
  return word;
}

/// Remaining text as one argument: quoted or verbatim-trimmed.
std::string RestArgument(std::string_view rest) {
  const std::string_view trimmed = Trim(rest);
  if (!trimmed.empty() && trimmed.front() == '"') {
    size_t pos = 0;
    std::string out;
    if (UnquoteString(trimmed, pos, out)) return out;
  }
  return std::string(trimmed);
}

}  // namespace

/// Registry row + the member handler bound to it. The single table
/// below is the source of truth for dispatch, help, the README table
/// and the mux's read/mutate classification.
struct WireSession::Entry {
  WireCommandInfo info;
  Handler handler;
};

const std::vector<WireCommandInfo>& WireCommands() {
  static const std::vector<WireCommandInfo> infos = [] {
    std::vector<WireCommandInfo> out;
    for (const WireSession::Entry& entry : WireSession::Registry()) {
      out.push_back(entry.info);
    }
    return out;
  }();
  return infos;
}

const std::string& WireCommandHelp() {
  static const std::string help = [] {
    std::string out = "commands:\n";
    for (const WireCommandInfo& info : WireCommands()) {
      out += "  " + std::string(info.usage) + "\n      " +
             std::string(info.summary) + "\n";
    }
    return out;
  }();
  return help;
}

std::string WireCommandMarkdownTable() {
  std::string out =
      "| Command | Kind | Usage | Description |\n"
      "|---------|------|-------|-------------|\n";
  for (const WireCommandInfo& info : WireCommands()) {
    out += "| `" + std::string(info.name) + "` | " +
           (info.kind == WireCommandKind::kRead ? "read" : "mutate") +
           " | `" + std::string(info.usage) + "` | " +
           std::string(info.summary) + " |\n";
  }
  return out;
}

WireCommandKind ClassifyWireLine(std::string_view line) {
  std::string_view rest = line;
  const std::string command = NextWord(rest);
  for (const WireCommandInfo& info : WireCommands()) {
    if (info.name == command) return info.kind;
  }
  // Unknown (and empty) lines are reads: they produce an immediate
  // in-band error without occupying the mutation queue.
  return WireCommandKind::kRead;
}

bool WireLineAllowedDegraded(std::string_view line) {
  std::string_view rest = line;
  const std::string command = NextWord(rest);
  for (const WireCommandInfo& info : WireCommands()) {
    if (info.name != command) continue;
    return info.kind == WireCommandKind::kRead || info.allowed_degraded;
  }
  return true;  // Unknown lines answer in-band errors; always allowed.
}

std::string WireSession::HandleLine(std::string_view line) {
  ++commands_handled_;
  try {
    return Dispatch(line);
  } catch (const DegradedError& error) {
    // Read-only mode rejections are a distinct in-band class so
    // clients (and the chaos harness) can tell "retry after heal"
    // apart from "your command was wrong".
    return std::string("degraded: ") + error.what() + "\n";
  } catch (const Error& error) {
    return std::string("error: ") + error.what() + "\n";
  }
}

std::string WireSession::Dispatch(std::string_view line) {
  std::string_view rest = line;
  const std::string command = NextWord(rest);
  if (command.empty()) return WireCommandHelp();

  for (const Entry& entry : Registry()) {
    if (entry.info.name != command) continue;
    Context ctx;
    ctx.rest = rest;
    ctx.line = line;
    if (entry.info.kind == WireCommandKind::kRead) {
      // Reads answer from a snapshot: the latest published version
      // when snapshot reads are on (lock-free against committing
      // waves), the live database otherwise.
      ctx.snap = snapshot_reads_ ? server_.database().Latest()
                                 : metadb::Snapshot::Live(server_.database());
      last_read_epoch_ = ctx.snap.epoch();
    } else {
      // Mutations always see (and change) the live database.
      ctx.snap = metadb::Snapshot::Live(server_.database());
    }
    return (this->*entry.handler)(ctx);
  }
  return "error: unknown command '" + command + "' (try 'help')\n";
}

std::string WireSession::CmdPostEvent(Context& ctx) {
  server_.SubmitWireLine(ctx.line, user_);
  return "ok\n";
}

std::string WireSession::CmdCheckin(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string block = NextWord(rest);
  const std::string view = NextWord(rest);
  if (block.empty() || view.empty()) {
    return "error: usage: checkin <block> <view> [\"content\"]\n";
  }
  const std::string content = RestArgument(rest);
  const metadb::Oid oid = server_.CheckIn(block, view, content, user_);
  return "ok " + metadb::FormatOidWire(oid) + "\n";
}

std::string WireSession::CmdCheckout(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string block = NextWord(rest);
  const std::string view = NextWord(rest);
  if (block.empty() || view.empty()) {
    return "error: usage: checkout <block> <view>\n";
  }
  const metadb::Oid oid = server_.CheckOut(block, view, user_);
  return "ok " + metadb::FormatOidWire(oid) + "\n";
}

std::string WireSession::CmdLink(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string kind_word = NextWord(rest);
  const std::string from_word = NextWord(rest);
  const std::string to_word = NextWord(rest);
  if (to_word.empty()) {
    return "error: usage: link <use|derive> <from-oid> <to-oid>\n";
  }
  metadb::LinkKind kind;
  if (kind_word == "use") {
    kind = metadb::LinkKind::kUse;
  } else if (kind_word == "derive") {
    kind = metadb::LinkKind::kDerive;
  } else {
    return "error: link kind must be 'use' or 'derive'\n";
  }
  server_.RegisterLink(kind, metadb::ParseOidWire(from_word),
                       metadb::ParseOidWire(to_word));
  return "ok\n";
}

std::string WireSession::CmdQuery(Context& ctx) {
  const metadb::MetaDatabase& db = ctx.snap.db();
  query::ProjectQuery q(ctx.snap);
  std::string_view rest = ctx.rest;
  const std::string what = NextWord(rest);
  if (what == "outofdate") {
    const auto matches = q.OutOfDate();
    std::string out = std::to_string(matches.size()) + " out of date\n";
    for (const auto& match : matches) {
      out += "  " + metadb::FormatOid(match.oid) + "\n";
    }
    return out;
  }
  if (what == "state") {
    const metadb::Oid oid = metadb::ParseOidWire(NextWord(rest));
    const auto id = db.FindObject(oid);
    if (!id.has_value()) {
      return "error: no such OID " + metadb::FormatOid(oid) + "\n";
    }
    const metadb::MetaObject& object = db.GetObject(*id);
    std::string out = metadb::FormatOid(oid) + "\n";
    for (const metadb::Property& property : object.properties) {
      out += "  " + db.SymbolText(property.name) + " = '" + property.value +
             "'\n";
    }
    return out;
  }
  if (what == "block") {
    const std::string block = NextWord(rest);
    const auto matches = q.FindByBlock(block);
    std::string out = std::to_string(matches.size()) + " object(s)\n";
    for (const auto& match : matches) {
      out += "  " + metadb::FormatOid(match.oid) + "\n";
    }
    return out;
  }
  return "error: usage: query outofdate|state <oid>|block <block>\n";
}

std::string WireSession::CmdBlockers(Context& ctx) {
  std::string_view rest = ctx.rest;
  std::vector<query::PlannedProperty> plan;
  while (true) {
    const std::string pair = NextWord(rest);
    if (pair.empty()) break;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return "error: blockers arguments are <prop>=<value>\n";
    }
    plan.push_back(
        query::PlannedProperty{pair.substr(0, eq), pair.substr(eq + 1)});
  }
  if (plan.empty()) {
    return "error: usage: blockers <prop>=<value> [...]\n";
  }
  query::ProjectQuery q(ctx.snap);
  return query::FormatBlockers(q.DistanceToPlannedState(plan, {}));
}

std::string WireSession::CmdReport(Context& ctx) {
  return query::FormatProjectReport(query::BuildProjectReport(ctx.snap));
}

std::string WireSession::CmdViz(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string what = NextWord(rest);
  if (what == "block") {
    const std::string block = NextWord(rest);
    if (block.empty()) return "error: usage: viz block <block>\n";
    return viz::RenderBlockState(ctx.snap, block);
  }
  if (what == "dot") {
    return viz::ExportDot(ctx.snap);
  }
  return "error: usage: viz block <block>|dot\n";
}

std::string WireSession::CmdEpoch(Context& ctx) {
  return "epoch " + std::to_string(ctx.snap.epoch()) + "\n";
}

std::string WireSession::CmdCheckpoint(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string name = NextWord(rest);
  if (name.empty()) return "error: usage: checkpoint <name>\n";
  const metadb::ConfigId id = server_.SaveConfiguration(name);
  const size_t addresses =
      server_.database().GetConfiguration(id).AddressCount();
  return "ok checkpoint '" + name + "' with " + std::to_string(addresses) +
         " addresses\n";
}

std::string WireSession::CmdValidate(Context& ctx) {
  (void)ctx;
  if (!server_.engine().HasBlueprint()) {
    return "error: no blueprint installed\n";
  }
  return blueprint::FormatValidationReport(
      blueprint::ValidateBlueprint(server_.engine().Current()));
}

std::string WireSession::CmdAdvance(Context& ctx) {
  std::string_view rest = ctx.rest;
  int64_t seconds = 0;
  if (!ParseWhole(NextWord(rest), seconds)) {
    return "error: usage: advance <seconds>\n";
  }
  try {
    server_.AdvanceClock(seconds);
  } catch (const std::exception&) {
    return "error: usage: advance <seconds>\n";
  }
  return "ok " + server_.clock().FormatDate() + "\n";
}

std::string WireSession::CmdWalStatus(Context& ctx) {
  (void)ctx;
  const WalStatus status = server_.GetWalStatus();
  if (!status.enabled) return "wal off\n";
  std::string out = "wal on dir \"" + status.dir + "\" fsync " +
                    std::string(events::FsyncPolicyName(status.fsync)) + "\n";
  if (status.recovered) {
    out += "  recovered checkpoint " + std::to_string(status.checkpoint_id) +
           " (op-seq " + std::to_string(status.recovered_op_seq) + ")\n";
  } else {
    out += "  recovered no checkpoint\n";
  }
  out += "  replayed " + std::to_string(status.replayed_ops) +
         " op(s) through offset " + std::to_string(status.replayed_ops_offset) +
         "\n";
  out += "  restored " + std::to_string(status.restored_rows) +
         " journal row(s)\n";
  if (status.manifests_skipped > 0) {
    out += "  skipped " + std::to_string(status.manifests_skipped) +
           " torn manifest(s)\n";
  }
  out += "  ops logged " + std::to_string(status.ops_logged) +
         ", stream end " + std::to_string(status.ops_end_offset) +
         ", checkpoints taken " + std::to_string(status.checkpoints_taken) +
         "\n";
  if (status.last_checkpoint_id > 0) {
    out += "  chain tip " + std::to_string(status.last_checkpoint_id) +
           (status.last_checkpoint_delta ? " (delta)" : " (full)") + ", base " +
           std::to_string(status.chain_base_id) + ", length " +
           std::to_string(status.chain_length) + "\n";
  }
  out += std::string("  checkpoints ") +
         (status.background ? "background" : "inline") + ", retention ";
  if (status.retain_segments < 0) {
    out += "off\n";
  } else {
    out += "keep " + std::to_string(status.retain_segments) + ", pruned " +
           std::to_string(status.segments_pruned) + " segment(s) / " +
           std::to_string(status.bytes_pruned) + " byte(s), " +
           std::to_string(status.checkpoints_pruned) +
           " checkpoint file(s)\n";
  }
  if (status.gc_artifacts_removed > 0) {
    out += "  gc removed " + std::to_string(status.gc_artifacts_removed) +
           " orphaned artifact(s)\n";
  }
  if (status.failed_removals > 0) {
    out += "  warning: " + std::to_string(status.failed_removals) +
           " failed removal(s) — pruning is behind, disk may be leaking\n";
  }
  return out;
}

std::string WireSession::CmdWalCheckpoint(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string kind = NextWord(rest);
  CheckpointMode mode = CheckpointMode::kFull;
  if (kind == "delta") {
    mode = CheckpointMode::kDelta;
  } else if (!kind.empty() && kind != "full") {
    return "error: usage: wal-checkpoint [full|delta]\n";
  }
  const uint64_t id = server_.WalCheckpoint(mode);
  // Full checkpoints keep the pre-incremental reply byte-stable; a
  // delta (the request may have been silently upgraded to full when no
  // base existed) reports what it chained onto.
  const WalStatus status = server_.GetWalStatus();
  std::string out = "ok checkpoint " + std::to_string(id);
  if (status.last_checkpoint_id == id && status.last_checkpoint_delta) {
    out += " delta base " + std::to_string(status.chain_base_id);
  }
  return out + "\n";
}

std::string WireSession::CmdRecover(Context& ctx) {
  const std::string dir = RestArgument(ctx.rest);
  if (dir.empty()) return "error: usage: recover <wal-dir>\n";
  const size_t applied = server_.RecoverFrom(dir);
  return "ok replayed " + std::to_string(applied) + " op(s)\n";
}

std::string WireSession::CmdHealth(Context& ctx) {
  (void)ctx;
  const ServerHealth health = server_.GetHealth();
  std::string out =
      std::string("health ") + (health.degraded ? "degraded" : "ok") + "\n";
  if (!health.reason.empty()) out += "  reason: " + health.reason + "\n";
  out += std::string("  wal ") + (health.durable ? "on" : "off") +
         ", failures " + std::to_string(health.wal_failures) + ", retries " +
         std::to_string(health.wal_retries) + "\n";
  out += "  checkpoint failures " + std::to_string(health.checkpoint_failures) +
         ", heals " + std::to_string(health.heals) + "\n";
  if (health.prune_behind) {
    out += "  warning: pruning behind (" +
           std::to_string(health.failed_removals) +
           " failed removal(s)) — disk may be leaking\n";
  }
  return out;
}

std::string WireSession::CmdWalReopen(Context& ctx) {
  (void)ctx;
  const uint64_t id = server_.WalReopen();
  return "ok healed at checkpoint " + std::to_string(id) + "\n";
}

std::string WireSession::CmdFailpoint(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string verb = NextWord(rest);
  common::Failpoints& failpoints = common::Failpoints::Instance();
  if (verb == "set") {
    const std::string name = NextWord(rest);
    const std::string config = NextWord(rest);
    if (name.empty() || config.empty()) {
      return "error: usage: failpoint set <name> <config>\n";
    }
    failpoints.Configure(name, config);
    return "ok failpoint '" + name + "' armed\n";
  }
  if (verb == "clear") {
    const std::string name = NextWord(rest);
    if (name.empty()) return "error: usage: failpoint clear <name>|all\n";
    if (name == "all") {
      failpoints.ClearAll();
    } else {
      failpoints.Clear(name);
    }
    return "ok\n";
  }
  if (verb == "list") {
    const auto statuses = failpoints.List();
    if (statuses.empty()) return "no failpoints armed\n";
    std::string out;
    for (const common::FailpointStatus& status : statuses) {
      out += status.name + " " + status.config + " (evaluated " +
             std::to_string(status.evaluations) + ", hit " +
             std::to_string(status.hits) + ")\n";
    }
    return out;
  }
  return "error: usage: failpoint set <name> <config> | clear <name>|all | "
         "list\n";
}

std::string WireSession::CmdPolicyPropose(Context& ctx) {
  const std::string_view trimmed = Trim(ctx.rest);
  std::string text;
  std::string message;
  if (!trimmed.empty() && trimmed.front() == '"') {
    size_t pos = 0;
    if (!UnquoteString(trimmed, pos, text)) {
      return "error: usage: policy-propose \"<rule-text>\" [\"message\"]\n";
    }
    message = RestArgument(trimmed.substr(pos));
  } else {
    text = std::string(trimmed);
  }
  if (text.empty()) {
    return "error: usage: policy-propose \"<rule-text>\" [\"message\"]\n";
  }
  const uint64_t id = server_.PolicyPropose(text, user_, message);
  return "ok proposed version " + std::to_string(id) + "\n";
}

std::string WireSession::CmdPolicyValidate(Context& ctx) {
  std::string_view rest = ctx.rest;
  uint64_t id = 0;
  if (!ParseWhole(NextWord(rest), id)) {
    return "error: usage: policy-validate <version-id>\n";
  }
  const blueprint::ValidationReport report = server_.PolicyValidate(id);
  const policy::PolicyVersion version = server_.policy_store().Get(id);
  return "version " + std::to_string(id) + " " +
         policy::PolicyVersionStatusName(version.status) + "\n" +
         blueprint::FormatValidationReport(report);
}

std::string WireSession::CmdPolicyPromote(Context& ctx) {
  std::string_view rest = ctx.rest;
  uint64_t id = 0;
  if (!ParseWhole(NextWord(rest), id)) {
    return "error: usage: policy-promote <version-id>\n";
  }
  const policy::PolicyVersion version = server_.PolicyPromote(id);
  return "ok promoted version " + std::to_string(version.id) +
         " (engine generation " +
         std::to_string(server_.engine().compiled_rules().generation()) + ")\n";
}

std::string WireSession::CmdPolicyRollback(Context& ctx) {
  (void)ctx;
  const policy::PolicyVersion version = server_.PolicyRollback();
  return "ok rolled back to version " + std::to_string(version.id) +
         " (engine generation " +
         std::to_string(server_.engine().compiled_rules().generation()) + ")\n";
}

std::string WireSession::CmdPolicyLog(Context& ctx) {
  (void)ctx;
  const policy::PolicyStore& store = server_.policy_store();
  const std::vector<policy::PolicyVersion> versions = store.Versions();
  if (versions.empty()) return "no policy versions\n";
  std::string out;
  for (const policy::PolicyVersion& version : versions) {
    out += std::to_string(version.id) + " parent " +
           std::to_string(version.parent) + " " +
           policy::PolicyVersionStatusName(version.status);
    if (!version.author.empty()) out += " by " + version.author;
    if (!version.message.empty()) {
      out += " " + QuoteString(version.message);
    }
    out += "\n";
  }
  out += "active " + std::to_string(store.active_id()) + "\n";
  return out;
}

std::string WireSession::CmdShadowWave(Context& ctx) {
  std::string_view rest = ctx.rest;
  const std::string id_word = NextWord(rest);
  const std::string event = NextWord(rest);
  const std::string dir_word = NextWord(rest);
  const std::string oid_word = NextWord(rest);
  const std::string depth_word = NextWord(rest);
  const char* usage =
      "error: usage: shadow-wave <version-id> <event> <up|down> "
      "<block,view,version> [depth]\n";
  uint64_t id = 0;
  if (!ParseWhole(id_word, id) || event.empty() || oid_word.empty()) {
    return usage;
  }
  events::Direction direction;
  if (dir_word == "up") {
    direction = events::Direction::kUp;
  } else if (dir_word == "down") {
    direction = events::Direction::kDown;
  } else {
    return usage;
  }
  policy::ShadowWaveOptions options;
  if (!depth_word.empty() && !ParseWhole(depth_word, options.depth_cap)) {
    return usage;
  }
  const policy::PolicyVersion version = server_.policy_store().Get(id);
  const blueprint::Blueprint proposed =
      blueprint::ParseBlueprint(version.blueprint_text);
  return query::FormatShadowWaveReport(
      policy::TraceShadowWave(ctx.snap.db(), proposed, version.id, event,
                              direction, metadb::ParseOidWire(oid_word),
                              options));
}

std::string WireSession::CmdHelp(Context& ctx) {
  (void)ctx;
  return WireCommandHelp();
}

const std::vector<WireSession::Entry>& WireSession::Registry() {
  using Kind = WireCommandKind;
  static const std::vector<WireSession::Entry> registry = {
      {{"postEvent", "postEvent <ev> <up|down> <block,view,version> [\"arg\"]",
        "Post a tracking event into the propagation engine.", Kind::kMutate},
       &WireSession::CmdPostEvent},
      {{"checkin", "checkin <block> <view> [\"content\"]",
        "Check design data in; registers the new version and posts ckin.",
        Kind::kMutate},
       &WireSession::CmdCheckin},
      {{"checkout", "checkout <block> <view>",
        "Check the latest version out for editing.", Kind::kMutate},
       &WireSession::CmdCheckout},
      {{"link", "link <use|derive> <from-oid> <to-oid>",
        "Register a hierarchy or derivation link.", Kind::kMutate},
       &WireSession::CmdLink},
      {{"query", "query outofdate|state <oid>|block <block>",
        "Query project state (out-of-date set, one OID, one block).",
        Kind::kRead},
       &WireSession::CmdQuery},
      {{"blockers", "blockers <prop>=<value> [...]",
        "Distance to a planned state: what still blocks it.", Kind::kRead},
       &WireSession::CmdBlockers},
      {{"report", "report", "Per-(block, view) project state report.",
        Kind::kRead},
       &WireSession::CmdReport},
      {{"viz", "viz block <block>|dot",
        "Visualize one block's state, or export the graph as DOT.",
        Kind::kRead},
       &WireSession::CmdViz},
      {{"epoch", "epoch",
        "Snapshot epoch this session's reads are answering from.", Kind::kRead},
       &WireSession::CmdEpoch},
      {{"checkpoint", "checkpoint <name>",
        "Save a named configuration capturing every live object and link.",
        Kind::kMutate},
       &WireSession::CmdCheckpoint},
      {{"validate", "validate", "Validate the installed blueprint.",
        Kind::kRead},
       &WireSession::CmdValidate},
      {{"advance", "advance <seconds>", "Advance the simulated clock.",
        Kind::kMutate},
       &WireSession::CmdAdvance},
      {{"wal-status", "wal-status",
        "Durability state: WAL dir, fsync policy, recovery provenance.",
        Kind::kRead},
       &WireSession::CmdWalStatus},
      {{"wal-checkpoint", "wal-checkpoint [full|delta]",
        "Sync the WAL and write a durable checkpoint now: the complete "
        "database (full, default), or only the slots dirtied since the "
        "last checkpoint, chained onto it (delta).", Kind::kMutate},
       &WireSession::CmdWalCheckpoint},
      {{"recover", "recover <wal-dir>",
        "Replay another WAL directory's full operation history here.",
        Kind::kMutate},
       &WireSession::CmdRecover},
      {{"health", "health",
        "Fault-tolerance state: degraded flag, WAL failure counters.",
        Kind::kRead},
       &WireSession::CmdHealth},
      {{"wal-reopen", "wal-reopen",
        "Heal a degraded server: reopen the WAL and resume writes.",
        Kind::kMutate, /*allowed_degraded=*/true},
       &WireSession::CmdWalReopen},
      {{"failpoint", "failpoint set <name> <config>|clear <name>|list",
        "Arm, clear or list fault-injection points (failpoint builds only).",
        Kind::kMutate, /*allowed_degraded=*/true},
       &WireSession::CmdFailpoint},
      {{"policy-propose", "policy-propose \"<rule-text>\" [\"message\"]",
        "Register a candidate blueprint version (parsed, not installed).",
        Kind::kMutate},
       &WireSession::CmdPolicyPropose},
      {{"policy-validate", "policy-validate <version-id>",
        "Statically validate a proposed version; records the verdict.",
        Kind::kMutate},
       &WireSession::CmdPolicyValidate},
      {{"policy-promote", "policy-promote <version-id>",
        "Make a validated version the live rule set (no restart).",
        Kind::kMutate},
       &WireSession::CmdPolicyPromote},
      {{"policy-rollback", "policy-rollback",
        "Restore the previously promoted version's compiled tables.",
        Kind::kMutate},
       &WireSession::CmdPolicyRollback},
      {{"policy-log", "policy-log",
        "The policy commit chain: every version, status and the active id.",
        Kind::kRead},
       &WireSession::CmdPolicyLog},
      {{"shadow-wave",
        "shadow-wave <version-id> <event> <up|down> <block,view,version> "
        "[depth]",
        "Dry-run impact trace of a proposed version; touches nothing.",
        Kind::kRead},
       &WireSession::CmdShadowWave},
      {{"help", "help", "This command list.", Kind::kRead},
       &WireSession::CmdHelp},
  };
  return registry;
}

}  // namespace damocles::engine
