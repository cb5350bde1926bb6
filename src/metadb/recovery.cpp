#include "metadb/recovery.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "common/errno_string.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "metadb/persistence.hpp"

namespace damocles::metadb {

namespace {

constexpr const char* kManifestMagic = "damocles-wal-manifest v1";
constexpr const char* kWorkspaceMagic = "damocles-workspace v1";

std::string PadIndex(uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

[[noreturn]] void FailLine(const char* what, size_t line_no,
                           const std::string& message) {
  throw WireFormatError(std::string(what) + ", line " +
                        std::to_string(line_no) + ": " + message);
}

/// Cursor over one manifest / workspace line: quoted strings and
/// whitespace-separated integers.
struct LineCursor {
  std::string_view line;
  size_t pos = 0;
  size_t line_no = 0;
  const char* what = "";

  void SkipSpaces() {
    while (pos < line.size() && line[pos] == ' ') ++pos;
  }

  std::string Quoted(const char* field) {
    SkipSpaces();
    std::string out;
    if (!UnquoteString(line, pos, out)) {
      FailLine(what, line_no, std::string("expected quoted ") + field);
    }
    return out;
  }

  uint64_t U64(const char* field) {
    SkipSpaces();
    const size_t begin = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') ++pos;
    uint64_t value = 0;
    if (!ParseWhole(line.substr(begin, pos - begin), value)) {
      FailLine(what, line_no, std::string("expected number for ") + field);
    }
    return value;
  }

  int64_t I64(const char* field) {
    SkipSpaces();
    bool negative = false;
    if (pos < line.size() && line[pos] == '-') {
      negative = true;
      ++pos;
    }
    const uint64_t magnitude = U64(field);
    return negative ? -static_cast<int64_t>(magnitude)
                    : static_cast<int64_t>(magnitude);
  }

  void ExpectEnd() {
    SkipSpaces();
    if (pos != line.size()) {
      FailLine(what, line_no, "trailing garbage on line");
    }
  }
};

bool ReadFileToString(const std::string& path, std::string& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[1u << 16];
  out.clear();
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    out.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  return !failed;
}

/// Writes + fsyncs a file, throwing on failure; notifies the observer
/// with the final size so the crash harness can cut inside it.
///
/// "checkpoint.write" failpoint: `short:<n>` writes only the first n
/// bytes before failing (the partial file a real ENOSPC leaves behind);
/// `error` / `errno:<E>` fail after the full write. Either way the
/// previous manifest chain stays untouched — the manifest pointing at
/// this file is never written.
void WriteFileDurable(const std::string& path, const std::string& content,
                      events::WalAppendObserver* observer) {
  common::FailpointHit hit;
  const bool injected = DAMOCLES_FAILPOINT("checkpoint.write", &hit);
  std::string_view body(content);
  if (injected && hit.action == common::FailpointAction::kShortWrite) {
    body = body.substr(0, static_cast<size_t>(hit.param));
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw Error("checkpoint: cannot create " + path + ": " +
                common::ErrnoString(errno));
  }
  const bool write_ok =
      body.empty() ||
      std::fwrite(body.data(), 1, body.size(), file) == body.size();
  const bool flush_ok = std::fflush(file) == 0;
  const bool sync_ok = ::fsync(fileno(file)) == 0;
  std::fclose(file);
  if (injected) {
    const int err = hit.action == common::FailpointAction::kErrno
                        ? hit.error_number
                        : EIO;
    throw Error("checkpoint: write failed on " + path + ": " +
                common::ErrnoString(err) + " (injected)");
  }
  if (!write_ok || !flush_ok || !sync_ok) {
    throw Error("checkpoint: write failed on " + path);
  }
  if (observer != nullptr) observer->OnDurableExtent(path, content.size());
}

/// Directory fsync, so the manifest rename (and the WAL segments
/// created since the last checkpoint) survive power loss. Throws Error
/// when the directory cannot be opened or synced: a checkpoint whose
/// entries may not persist must not count as committed.
void SyncDirectory(const std::string& dir) {
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("checkpoint.dirsync", &hit)) {
    const int err = hit.action == common::FailpointAction::kErrno
                        ? hit.error_number
                        : EIO;
    throw Error("checkpoint: cannot sync directory " + dir + ": " +
                common::ErrnoString(err) + " (injected)");
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw Error("checkpoint: cannot open directory " + dir + ": " +
                common::ErrnoString(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  if (!synced) {
    throw Error("checkpoint: cannot sync directory " + dir + ": " +
                common::ErrnoString(err));
  }
}

/// (id, path) of every manifest file, sorted ascending by id.
std::vector<std::pair<uint64_t, std::string>> ListManifests(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> manifests;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, "manifest-") || !EndsWith(name, ".txt")) continue;
    uint64_t id = 0;
    if (!ParseWhole(std::string_view(name).substr(9, name.size() - 13), id)) {
      continue;
    }
    manifests.emplace_back(id, entry.path().string());
  }
  std::sort(manifests.begin(), manifests.end());
  return manifests;
}

}  // namespace

// --- Manifest text ---------------------------------------------------------

std::string FormatWalManifest(const WalManifest& manifest) {
  std::string out = kManifestMagic;
  out += "\n";
  out += "checkpoint " + std::to_string(manifest.checkpoint_id) + "\n";
  if (manifest.delta) {
    // Written only for delta checkpoints, so full manifests stay
    // byte-stable for servers predating incremental checkpoints.
    out += "kind delta\n";
    out += "base " + std::to_string(manifest.base_id) + "\n";
  }
  out += "op-seq " + std::to_string(manifest.op_seq) + "\n";
  out += "ops-offset " + std::to_string(manifest.ops_offset) + "\n";
  out += "clock " + std::to_string(manifest.clock_seconds) + "\n";
  out += "epoch-next " + std::to_string(manifest.epoch_next) + "\n";
  out += "epoch-waves " + std::to_string(manifest.epoch_waves) + "\n";
  out += "shards " + std::to_string(manifest.num_shards) + "\n";
  out += "db " + QuoteString(manifest.db_file) + " " +
         std::to_string(manifest.db_bytes) + "\n";
  out += "blueprint " + QuoteString(manifest.blueprint_file) + " " +
         std::to_string(manifest.blueprint_bytes) + "\n";
  out += "workspace " + QuoteString(manifest.workspace_file) + " " +
         std::to_string(manifest.workspace_bytes) + "\n";
  if (!manifest.policy_file.empty()) {
    // Written only when a policy store was checkpointed, so manifests
    // stay byte-stable for servers predating policy versioning.
    out += "policy " + QuoteString(manifest.policy_file) + " " +
           std::to_string(manifest.policy_bytes) + "\n";
  }
  for (const auto& [name, offset] : manifest.streams) {
    out += "stream " + QuoteString(name) + " " + std::to_string(offset) + "\n";
  }
  out += "end\n";
  return out;
}

WalManifest ParseWalManifest(const std::string& text) {
  constexpr const char* kWhat = "wal manifest";
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || lines[0] != kManifestMagic) {
    FailLine(kWhat, 1, std::string("expected magic '") + kManifestMagic + "'");
  }
  WalManifest manifest;
  bool saw_end = false;
  bool saw_db = false;
  bool saw_workspace = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line.empty()) {
      if (!saw_end) FailLine(kWhat, line_no, "unexpected blank line");
      continue;
    }
    if (saw_end) {
      FailLine(kWhat, line_no, "content after 'end'");
    }
    if (line == "end") {
      saw_end = true;
      continue;
    }
    const size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    LineCursor cursor{line, space == std::string::npos ? line.size() : space,
                      line_no, kWhat};
    if (key == "checkpoint") {
      manifest.checkpoint_id = cursor.U64("checkpoint id");
    } else if (key == "kind") {
      // Optional: absent (meaning "full") on manifests from before
      // incremental checkpoints.
      const std::string kind(Trim(line.substr(cursor.pos)));
      cursor.pos = line.size();
      if (kind == "delta") {
        manifest.delta = true;
      } else if (kind != "full") {
        FailLine(kWhat, line_no, "unknown checkpoint kind '" + kind + "'");
      }
    } else if (key == "base") {
      manifest.base_id = cursor.U64("base checkpoint id");
    } else if (key == "op-seq") {
      manifest.op_seq = cursor.U64("op-seq");
    } else if (key == "ops-offset") {
      manifest.ops_offset = cursor.U64("ops-offset");
    } else if (key == "clock") {
      manifest.clock_seconds = cursor.I64("clock");
    } else if (key == "epoch-next") {
      manifest.epoch_next = cursor.U64("epoch-next");
    } else if (key == "epoch-waves") {
      manifest.epoch_waves = cursor.U64("epoch-waves");
    } else if (key == "shards") {
      manifest.num_shards = static_cast<uint32_t>(cursor.U64("shards"));
    } else if (key == "db") {
      manifest.db_file = cursor.Quoted("file name");
      manifest.db_bytes = cursor.U64("byte count");
      saw_db = true;
    } else if (key == "blueprint") {
      manifest.blueprint_file = cursor.Quoted("file name");
      manifest.blueprint_bytes = cursor.U64("byte count");
    } else if (key == "workspace") {
      manifest.workspace_file = cursor.Quoted("file name");
      manifest.workspace_bytes = cursor.U64("byte count");
      saw_workspace = true;
    } else if (key == "policy") {
      // Optional: absent on manifests from before policy versioning.
      manifest.policy_file = cursor.Quoted("file name");
      manifest.policy_bytes = cursor.U64("byte count");
    } else if (key == "stream") {
      const std::string name = cursor.Quoted("stream name");
      const uint64_t offset = cursor.U64("offset");
      manifest.streams.emplace_back(name, offset);
    } else {
      FailLine(kWhat, line_no, "unknown key '" + key + "'");
    }
    cursor.ExpectEnd();
  }
  if (!saw_end) FailLine(kWhat, lines.size(), "missing 'end'");
  if (!saw_db) FailLine(kWhat, lines.size(), "missing 'db' entry");
  if (!saw_workspace) {
    FailLine(kWhat, lines.size(), "missing 'workspace' entry");
  }
  if (manifest.delta && manifest.base_id == 0) {
    FailLine(kWhat, lines.size(), "delta manifest missing 'base'");
  }
  if (!manifest.delta && manifest.base_id != 0) {
    FailLine(kWhat, lines.size(), "'base' entry on a full manifest");
  }
  if (manifest.delta && manifest.base_id >= manifest.checkpoint_id) {
    FailLine(kWhat, lines.size(),
             "delta base must precede the checkpoint id (chain must descend)");
  }
  return manifest;
}

std::string ManifestFileName(uint64_t checkpoint_id) {
  return "manifest-" + PadIndex(checkpoint_id) + ".txt";
}

std::string CheckpointFileName(uint64_t checkpoint_id,
                               const std::string& ext) {
  return "checkpoint-" + PadIndex(checkpoint_id) + "." + ext;
}

uint64_t LatestManifestId(const std::string& dir) {
  const auto manifests = ListManifests(dir);
  return manifests.empty() ? 0 : manifests.back().first;
}

// --- Workspace checkpoint text ---------------------------------------------

std::string SaveWorkspaceText(const Workspace& workspace) {
  std::string out = kWorkspaceMagic;
  out += "\n";
  workspace.ForEachFile([&out](const Oid& oid, const DesignFile& file) {
    out += "file " + QuoteString(oid.block) + " " + QuoteString(oid.view) +
           " " + std::to_string(oid.version) + " " +
           std::to_string(file.modified_at) + " " +
           QuoteString(file.content) + "\n";
  });
  workspace.ForEachLatest(
      [&out](std::string_view block, std::string_view view, int version) {
        out += "latest " + QuoteString(block) + " " + QuoteString(view) + " " +
               std::to_string(version) + "\n";
      });
  out += "end\n";
  return out;
}

void LoadWorkspaceText(const std::string& text, Workspace& workspace) {
  constexpr const char* kWhat = "workspace dump";
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || lines[0] != kWorkspaceMagic) {
    FailLine(kWhat, 1, std::string("expected magic '") + kWorkspaceMagic + "'");
  }
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line.empty()) {
      if (!saw_end) FailLine(kWhat, line_no, "unexpected blank line");
      continue;
    }
    if (saw_end) FailLine(kWhat, line_no, "content after 'end'");
    if (line == "end") {
      saw_end = true;
      continue;
    }
    const size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    LineCursor cursor{line, space == std::string::npos ? line.size() : space,
                      line_no, kWhat};
    if (key == "file") {
      Oid oid;
      oid.block = cursor.Quoted("block");
      oid.view = cursor.Quoted("view");
      oid.version = static_cast<int>(cursor.U64("version"));
      const int64_t modified_at = cursor.I64("modified_at");
      std::string content = cursor.Quoted("content");
      cursor.ExpectEnd();
      workspace.RestoreFile(oid, std::move(content), modified_at);
    } else if (key == "latest") {
      const std::string block = cursor.Quoted("block");
      const std::string view = cursor.Quoted("view");
      const int version = static_cast<int>(cursor.U64("version"));
      cursor.ExpectEnd();
      workspace.RestoreLatestVersion(block, view, version);
    } else {
      FailLine(kWhat, line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_end) FailLine(kWhat, lines.size(), "missing 'end'");
}

// --- Recovery --------------------------------------------------------------

RecoveryPlan BuildRecoveryPlan(const std::string& wal_dir) {
  RecoveryPlan plan;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(wal_dir, ec)) return plan;

  events::WalStreamData ops = events::ReadWalStream(wal_dir, "ops");
  plan.replay_ops_end = ops.valid_end;

  std::map<std::string, events::WalStreamData> row_streams;
  for (const std::string& name : events::ListWalStreams(wal_dir)) {
    if (name == "ops") continue;
    row_streams.emplace(name, events::ReadWalStream(wal_dir, name));
  }

  // Newest manifest whose checkpoint fully validates wins; torn or
  // incomplete checkpoint writes fall back to their predecessor. A
  // delta manifest validates only if its whole base→delta chain does:
  // every member's manifest and db/dbd file must load, and the deltas
  // must apply cleanly onto the base in order. A delta tip with a
  // broken chain is skipped exactly like a torn full checkpoint (its
  // own base, one step shorter, is tried next).
  auto manifests = ListManifests(wal_dir);
  const std::map<uint64_t, std::string> manifest_paths(manifests.begin(),
                                                       manifests.end());
  const auto load_part = [&](const std::string& file, uint64_t bytes,
                             std::string& out) {
    if (file.empty()) return bytes == 0;
    if (!ReadFileToString(wal_dir + "/" + file, out)) return false;
    return out.size() == bytes;
  };
  for (auto it = manifests.rbegin(); it != manifests.rend(); ++it) {
    const uint64_t tip_id = it->first;
    // (manifest, db text), tip first while following base pointers.
    std::vector<std::pair<WalManifest, std::string>> members;
    std::string blueprint_text;
    std::string workspace_text;
    std::string policy_text;
    bool valid = true;
    uint64_t next_id = tip_id;
    while (valid) {
      const auto path_it = manifest_paths.find(next_id);
      if (path_it == manifest_paths.end()) {
        valid = false;
        break;
      }
      std::string text;
      WalManifest manifest;
      valid = ReadFileToString(path_it->second, text);
      if (valid) {
        try {
          manifest = ParseWalManifest(text);
        } catch (const WireFormatError&) {
          valid = false;
        }
      }
      if (valid && manifest.checkpoint_id != next_id) valid = false;
      std::string db_text;
      if (valid) {
        valid = load_part(manifest.db_file, manifest.db_bytes, db_text);
      }
      if (!valid) break;
      const bool is_delta = manifest.delta;
      const uint64_t base_id = manifest.base_id;
      members.emplace_back(std::move(manifest), std::move(db_text));
      if (!is_delta) break;  // Reached the chain's full base.
      // ParseWalManifest enforces base < id, so the walk strictly
      // descends and cannot cycle.
      next_id = base_id;
    }
    if (valid) {
      const WalManifest& tip = members.front().first;
      valid = load_part(tip.blueprint_file, tip.blueprint_bytes,
                        blueprint_text) &&
              load_part(tip.workspace_file, tip.workspace_bytes,
                        workspace_text) &&
              // Trusted at the size level like the blueprint text; the
              // server parses it (and fails recovery loudly) when
              // rebuilding the store.
              load_part(tip.policy_file, tip.policy_bytes, policy_text);
    }
    if (valid) {
      // Parse proof over the whole chain: load the base, apply every
      // delta in order. A delta written against a different base (or
      // torn mid-write) fails here and the chain is passed over.
      try {
        MetaDatabase proof = LoadDatabaseString(members.back().second);
        for (size_t i = members.size() - 1; i-- > 0;) {
          ApplyDatabaseDeltaString(members[i].second, proof);
        }
        Workspace scratch("recovery-scratch");
        LoadWorkspaceText(workspace_text, scratch);
      } catch (const Error&) {
        valid = false;
      }
    }
    if (valid) {
      // Every checkpointed row offset must lie inside the stream's
      // intact prefix, or the pre-checkpoint journal is unrecoverable
      // from this manifest.
      for (const auto& [name, offset] : members.front().first.streams) {
        const auto stream_it = row_streams.find(name);
        const uint64_t valid_end =
            stream_it == row_streams.end() ? 0 : stream_it->second.valid_end;
        if (offset > valid_end) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) {
      ++plan.manifests_skipped;
      continue;
    }
    plan.have_checkpoint = true;
    plan.manifest = members.front().first;
    plan.db_text = std::move(members.back().second);
    for (size_t i = members.size() - 1; i-- > 0;) {
      plan.db_deltas.push_back(std::move(members[i].second));
    }
    for (auto member = members.rbegin(); member != members.rend(); ++member) {
      plan.chain_ids.push_back(member->first.checkpoint_id);
    }
    plan.blueprint_text = std::move(blueprint_text);
    plan.workspace_text = std::move(workspace_text);
    plan.policy_text = std::move(policy_text);
    break;
  }

  if (plan.have_checkpoint) {
    for (const auto& [name, offset] : plan.manifest.streams) {
      RecoveredStream recovered;
      recovered.name = name;
      const auto stream_it = row_streams.find(name);
      if (stream_it != row_streams.end()) {
        // A journal clear drops everything before it: only rows after
        // the last reset at-or-before the cutoff are restored.
        uint64_t reset_floor = 0;
        for (const uint64_t reset : stream_it->second.resets) {
          if (reset <= offset) reset_floor = std::max(reset_floor, reset);
        }
        for (const events::WalRestoredRow& row : stream_it->second.rows) {
          if (row.end_offset > reset_floor && row.end_offset <= offset) {
            recovered.rows.push_back(row);
          }
        }
      }
      plan.restored_rows += recovered.rows.size();
      plan.streams.push_back(std::move(recovered));
    }
  }

  const uint64_t cutoff = plan.have_checkpoint ? plan.manifest.op_seq : 0;
  plan.last_op_seq = cutoff;
  for (events::WalOpEntry& entry : ops.ops) {
    plan.last_op_seq = std::max(plan.last_op_seq, entry.op.op_seq);
    if (entry.op.op_seq > cutoff) plan.replay_ops.push_back(std::move(entry));
  }
  return plan;
}

std::string FormatWalCheckpointChains(const std::string& wal_dir) {
  namespace fs = std::filesystem;
  std::string out = "checkpoints:\n";
  const auto manifests = ListManifests(wal_dir);
  if (manifests.empty()) {
    return "checkpoints: none\n";
  }
  for (const auto& [id, path] : manifests) {
    out += "  manifest " + std::to_string(id) + ": ";
    WalManifest manifest;
    std::string text;
    if (!ReadFileToString(path, text)) {
      out += "UNREADABLE (cannot read " + path + ")\n";
      continue;
    }
    try {
      manifest = ParseWalManifest(text);
    } catch (const Error& error) {
      out += std::string("UNREADABLE (") + error.what() + ")\n";
      continue;
    }
    out += manifest.delta
               ? "delta base " + std::to_string(manifest.base_id)
               : "full";
    out += ", op-seq " + std::to_string(manifest.op_seq) + ", ops-offset " +
           std::to_string(manifest.ops_offset);
    std::error_code ec;
    const uint64_t db_bytes = fs::file_size(wal_dir + "/" + manifest.db_file, ec);
    out += ", db " + manifest.db_file +
           (ec ? " (MISSING)" : " (" + std::to_string(db_bytes) + " bytes)");
    out += "\n";
  }
  const RecoveryPlan plan = BuildRecoveryPlan(wal_dir);
  if (!plan.have_checkpoint) {
    out += "recovery chain: none (no valid checkpoint)\n";
    return out;
  }
  out += "recovery chain:";
  for (const uint64_t id : plan.chain_ids) {
    out += (id == plan.chain_ids.front() ? " " : " -> ") + std::to_string(id);
  }
  out += " (tip " + std::to_string(plan.manifest.checkpoint_id) +
         ", replays " + std::to_string(plan.replay_ops.size()) +
         " op(s) past offset " + std::to_string(plan.manifest.ops_offset) +
         ")\n";
  return out;
}

namespace {

constexpr const char* kCheckpointExts[] = {"db", "dbd", "bp", "ws", "ps"};

/// Removes `path` counting the outcome: removed vs failed (a missing
/// file is neither). fs::remove errors were previously discarded here,
/// silently leaking disk.
void RemoveCounted(const std::string& path, WalGcStats& stats) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::remove(path, ec)) {
    ++stats.artifacts_removed;
  } else if (ec) {
    ++stats.failed_removals;
  }
}

}  // namespace

WalGcStats PrepareWalDirectory(const std::string& wal_dir,
                               const RecoveryPlan& plan) {
  namespace fs = std::filesystem;
  std::error_code ec;
  WalGcStats stats;

  // Drop manifests newer than the chosen chain tip (torn or invalid)
  // together with their checkpoint files, plus temp leftovers from
  // killed manifest renames. Chain members all have ids <= the tip, so
  // a delta chain's base and intermediates are never touched.
  const uint64_t keep_id =
      plan.have_checkpoint ? plan.manifest.checkpoint_id : 0;
  for (const auto& [id, path] : ListManifests(wal_dir)) {
    if (id <= keep_id) continue;
    RemoveCounted(path, stats);
    for (const char* ext : kCheckpointExts) {
      RemoveCounted(wal_dir + "/" + CheckpointFileName(id, ext), stats);
    }
  }
  for (const auto& entry : fs::directory_iterator(wal_dir, ec)) {
    if (EndsWith(entry.path().filename().string(), ".tmp")) {
      RemoveCounted(entry.path().string(), stats);
    }
  }

  // Orphaned checkpoint files — written but never covered by a manifest
  // (a crash between the file writes and the manifest rename). Without
  // a manifest nothing can ever reference them; remove them by name.
  std::vector<std::string> orphans;
  {
    std::map<uint64_t, bool> manifest_ids;
    for (const auto& [id, path] : ListManifests(wal_dir)) {
      manifest_ids[id] = true;
    }
    std::error_code iter_ec;
    for (const auto& entry : fs::directory_iterator(wal_dir, iter_ec)) {
      const std::string name = entry.path().filename().string();
      if (!StartsWith(name, "checkpoint-")) continue;
      const size_t dot = name.rfind('.');
      if (dot == std::string::npos || dot <= 11) continue;
      uint64_t id = 0;
      if (!ParseWhole(std::string_view(name).substr(11, dot - 11), id)) {
        continue;
      }
      if (manifest_ids.find(id) == manifest_ids.end()) {
        orphans.push_back(entry.path().string());
      }
    }
  }
  for (const std::string& orphan : orphans) RemoveCounted(orphan, stats);

  // Cut the torn ops tail; cut every row stream back to its checkpoint
  // offset (replayed ops regenerate the rows past it). Streams the
  // manifest does not know restart from zero. Segments stranded below a
  // pruned gap (an interrupted retention pass) are swept first.
  for (const std::string& name : events::ListWalStreams(wal_dir)) {
    const events::WalPruneStats orphan_stats =
        events::RemoveOrphanedWalPrefix(wal_dir, name);
    stats.artifacts_removed += orphan_stats.segments_removed;
    stats.failed_removals += orphan_stats.failed_removals;
  }
  events::TruncateWalStream(wal_dir, "ops", plan.replay_ops_end,
                            &stats.failed_removals);
  for (const std::string& name : events::ListWalStreams(wal_dir)) {
    if (name == "ops") continue;
    uint64_t offset = 0;
    if (plan.have_checkpoint) {
      for (const auto& [stream_name, stream_offset] : plan.manifest.streams) {
        if (stream_name == name) {
          offset = stream_offset;
          break;
        }
      }
    }
    events::TruncateWalStream(wal_dir, name, offset, &stats.failed_removals);
  }
  return stats;
}

WalGcStats PruneWalCheckpoints(const std::string& wal_dir,
                               uint64_t keep_from_id) {
  WalGcStats stats;
  for (const auto& [id, path] : ListManifests(wal_dir)) {
    if (id >= keep_from_id) continue;
    RemoveCounted(path, stats);
    for (const char* ext : kCheckpointExts) {
      RemoveCounted(wal_dir + "/" + CheckpointFileName(id, ext), stats);
    }
  }
  return stats;
}

// --- Checkpointing ---------------------------------------------------------

uint64_t WriteWalCheckpoint(const std::string& wal_dir,
                            const CheckpointRequest& request) {
  namespace fs = std::filesystem;
  const uint64_t id = LatestManifestId(wal_dir) + 1;

  WalManifest manifest;
  manifest.checkpoint_id = id;
  manifest.delta = request.delta;
  manifest.base_id = request.delta ? request.base_id : 0;
  manifest.op_seq = request.op_seq;
  manifest.ops_offset = request.ops_offset;
  manifest.clock_seconds = request.clock_seconds;
  manifest.epoch_next = request.epoch_next;
  manifest.epoch_waves = request.epoch_waves;
  manifest.num_shards = request.num_shards;
  // Delta checkpoints store the dirty-slot delta under the "dbd"
  // extension so a delta file can never be mistaken for a full dump.
  manifest.db_file = CheckpointFileName(id, request.delta ? "dbd" : "db");
  manifest.db_bytes = request.db_text.size();
  manifest.blueprint_file = CheckpointFileName(id, "bp");
  manifest.blueprint_bytes = request.blueprint_text.size();
  manifest.workspace_file = CheckpointFileName(id, "ws");
  manifest.workspace_bytes = request.workspace_text.size();
  if (!request.policy_text.empty()) {
    manifest.policy_file = CheckpointFileName(id, "ps");
    manifest.policy_bytes = request.policy_text.size();
  }
  manifest.streams = request.streams;

  WriteFileDurable(wal_dir + "/" + manifest.db_file, request.db_text,
                   request.observer);
  WriteFileDurable(wal_dir + "/" + manifest.blueprint_file,
                   request.blueprint_text, request.observer);
  WriteFileDurable(wal_dir + "/" + manifest.workspace_file,
                   request.workspace_text, request.observer);
  if (!manifest.policy_file.empty()) {
    WriteFileDurable(wal_dir + "/" + manifest.policy_file,
                     request.policy_text, request.observer);
  }

  // Manifest last, via temp + rename: a crash mid-checkpoint leaves the
  // previous manifest chain intact and this one invisible.
  const std::string manifest_text = FormatWalManifest(manifest);
  const std::string final_path = wal_dir + "/" + ManifestFileName(id);
  const std::string tmp_path = final_path + ".tmp";
  WriteFileDurable(tmp_path, manifest_text, nullptr);
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("checkpoint.manifest.rename", &hit)) {
    // The tmp file stays behind, exactly like a crash between write and
    // rename; PrepareWalDirectory sweeps *.tmp on the next recovery.
    throw Error("checkpoint: cannot rename " + tmp_path +
                ": injected failure (failpoint checkpoint.manifest.rename)");
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    throw Error("checkpoint: cannot rename " + tmp_path + ": " + ec.message());
  }
  SyncDirectory(wal_dir);
  if (request.observer != nullptr) {
    request.observer->OnDurableExtent(final_path, manifest_text.size());
  }
  return id;
}

}  // namespace damocles::metadb
