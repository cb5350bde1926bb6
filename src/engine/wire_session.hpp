// A line-oriented command session against the project server.
//
// The paper's tracking system is a network service: wrapper scripts and
// designers talk to it in plain text. This session implements that
// surface — postEvent plus the designer-facing query commands — so a
// telnet-style client, a wrapper script or a test can drive the whole
// system through one string-in/string-out interface.
//
// Commands are described by a registry (WireCommands()) instead of an
// if/else chain: one table drives dispatch, the generated `help` text,
// the README command table, and — crucially for the session mux — the
// read/mutate classification that decides whether a line may run
// lock-free on a pinned snapshot or must be serialized through the
// mutation queue.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "engine/project_server.hpp"
#include "metadb/snapshot.hpp"

namespace damocles::engine {

/// How a wire command relates to project state.
enum class WireCommandKind {
  kRead,    ///< Answerable from a snapshot; never mutates state.
  kMutate,  ///< Changes project state; the session mux serializes it.
};

/// One registry row: everything the dispatcher, the generated help
/// text, the README table and the mux's classifier need to know.
struct WireCommandInfo {
  std::string_view name;     ///< The command word.
  std::string_view usage;    ///< Full usage line.
  std::string_view summary;  ///< One-line description.
  WireCommandKind kind = WireCommandKind::kRead;
  /// Mutate commands the mux must still admit while the server is in
  /// degraded read-only mode — the heal/observability surface
  /// (wal-reopen, failpoint). Reads are always admitted.
  bool allowed_degraded = false;
};

/// The command registry, in the order `help` lists commands.
const std::vector<WireCommandInfo>& WireCommands();

/// The `help` response, generated from the registry.
const std::string& WireCommandHelp();

/// A GitHub-markdown table of the registry — the README's command table
/// is this text verbatim (a test keeps them from drifting).
std::string WireCommandMarkdownTable();

/// Classifies one wire line by its command word. Unknown or empty
/// commands classify as reads so they are answered (with an in-band
/// error) immediately instead of entering the mutation queue.
WireCommandKind ClassifyWireLine(std::string_view line);

/// True when `line` may run even while the server is degraded: every
/// read, plus the mutate commands flagged allowed_degraded above.
bool WireLineAllowedDegraded(std::string_view line);

/// One authenticated session (the user is fixed at construction, the
/// way a per-connection identity would be).
class WireSession {
 public:
  WireSession(ProjectServer& server, std::string user)
      : server_(server), user_(std::move(user)) {}

  /// Executes one command line and returns the textual response.
  /// Errors are reported in-band ("error: ..."), never thrown — a
  /// malformed remote command must not take the server down.
  std::string HandleLine(std::string_view line);

  /// When enabled, read commands pin database().Latest() and answer
  /// from that published snapshot — lock-free against committing
  /// waves. Off (the default), reads go against the live database,
  /// the single-threaded compatibility mode.
  void set_snapshot_reads(bool on) noexcept { snapshot_reads_ = on; }
  bool snapshot_reads() const noexcept { return snapshot_reads_; }

  /// Epoch the most recent read command answered from
  /// (Snapshot::kLiveEpoch when reading the live database).
  uint64_t last_read_epoch() const noexcept { return last_read_epoch_; }

  const std::string& user() const noexcept { return user_; }
  size_t commands_handled() const noexcept { return commands_handled_; }

 private:
  /// Per-line state threaded through a command handler.
  struct Context {
    std::string_view rest;  ///< The line after the command word.
    std::string_view line;  ///< The whole line.
    metadb::Snapshot snap;  ///< The read snapshot (pinned or live).
  };
  using Handler = std::string (WireSession::*)(Context&);
  struct Entry;  ///< Registry row + bound handler (defined in the .cpp).

  /// The dispatch table (registry rows bound to member handlers).
  /// WireCommands() projects the info columns out of it.
  static const std::vector<Entry>& Registry();
  friend const std::vector<WireCommandInfo>& WireCommands();

  std::string Dispatch(std::string_view line);

  std::string CmdPostEvent(Context& ctx);
  std::string CmdCheckin(Context& ctx);
  std::string CmdCheckout(Context& ctx);
  std::string CmdLink(Context& ctx);
  std::string CmdQuery(Context& ctx);
  std::string CmdBlockers(Context& ctx);
  std::string CmdReport(Context& ctx);
  std::string CmdViz(Context& ctx);
  std::string CmdEpoch(Context& ctx);
  std::string CmdCheckpoint(Context& ctx);
  std::string CmdValidate(Context& ctx);
  std::string CmdAdvance(Context& ctx);
  std::string CmdWalStatus(Context& ctx);
  std::string CmdWalCheckpoint(Context& ctx);
  std::string CmdRecover(Context& ctx);
  std::string CmdHealth(Context& ctx);
  std::string CmdWalReopen(Context& ctx);
  std::string CmdFailpoint(Context& ctx);
  std::string CmdPolicyPropose(Context& ctx);
  std::string CmdPolicyValidate(Context& ctx);
  std::string CmdPolicyPromote(Context& ctx);
  std::string CmdPolicyRollback(Context& ctx);
  std::string CmdPolicyLog(Context& ctx);
  std::string CmdShadowWave(Context& ctx);
  std::string CmdHelp(Context& ctx);

  ProjectServer& server_;
  std::string user_;
  size_t commands_handled_ = 0;
  bool snapshot_reads_ = false;
  uint64_t last_read_epoch_ = metadb::Snapshot::kLiveEpoch;
};

}  // namespace damocles::engine
