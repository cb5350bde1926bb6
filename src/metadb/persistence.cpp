#include "metadb/persistence.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace damocles::metadb {

namespace {

constexpr std::string_view kMagic = "damocles-metadb v1";
constexpr std::string_view kDeltaMagic = "damocles-metadb-delta v1";

class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next non-empty line, trimmed. Returns false at end of stream.
  bool Next(std::string& line) {
    while (std::getline(in_, raw_)) {
      ++line_number_;
      const std::string_view trimmed = Trim(raw_);
      if (trimmed.empty()) continue;
      line.assign(trimmed);
      return true;
    }
    return false;
  }

  /// Names the file section subsequent failures report ("objects",
  /// "links", "configs"), so a truncated or corrupt checkpoint says
  /// where in the file it went wrong, not just the line number.
  void SetSection(const char* section) noexcept { section_ = section; }

  [[noreturn]] void Fail(const std::string& message) const {
    throw WireFormatError("metadb load, line " + std::to_string(line_number_) +
                          " (" + section_ + "): " + message);
  }

 private:
  std::istream& in_;
  std::string raw_;
  int line_number_ = 0;
  const char* section_ = "header";
};

int64_t ParseInt(LineReader& reader, std::string_view token) {
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    reader.Fail("expected integer, got '" + std::string(token) + "'");
  }
  return value;
}

std::string ParseQuoted(LineReader& reader, const std::string& line,
                        size_t& pos) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  std::string out;
  if (!UnquoteString(line, pos, out)) {
    reader.Fail("expected quoted string in '" + line + "'");
  }
  return out;
}

std::vector<std::string> ParseQuotedList(LineReader& reader,
                                         const std::string& line, size_t pos) {
  std::vector<std::string> values;
  while (true) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) return values;
    std::string value;
    if (!UnquoteString(line, pos, value)) {
      reader.Fail("expected quoted string in '" + line + "'");
    }
    values.push_back(std::move(value));
  }
}

// --- Shared per-slot records -------------------------------------------------
// Full and delta checkpoints use identical object/link/config records;
// only which slots appear (and the config header's explicit slot in
// deltas) differs.

void WriteObjectSlot(std::ostream& out, const MetaDatabase& db,
                     uint32_t slot) {
  const MetaObject& object = db.GetObject(OidId(slot));
  out << "object " << slot << " alive=" << (object.alive ? 1 : 0) << "\n";
  out << "  oid " << QuoteString(db.BlockOf(object)) << " "
      << QuoteString(db.ViewOf(object)) << " " << object.version << "\n";
  out << "  created " << object.created_at << " "
      << QuoteString(db.SymbolText(object.created_by)) << "\n";
  for (const Property& property : object.properties) {
    out << "  prop " << QuoteString(db.SymbolText(property.name)) << " "
        << QuoteString(property.value) << "\n";
  }
  out << "end\n";
}

void WriteLinkSlot(std::ostream& out, size_t slot, const Link& link) {
  out << "link " << slot << " alive=" << (link.alive ? 1 : 0) << " kind="
      << LinkKindName(link.kind) << " carry=" << CarryPolicyName(link.carry)
      << " from=" << link.from.value() << " to=" << link.to.value() << "\n";
  out << "  type " << QuoteString(link.type) << "\n";
  out << "  propagates";
  for (const std::string& event : link.propagates) {
    out << " " << QuoteString(event);
  }
  out << "\n";
  for (const auto& [name, value] : link.properties) {
    out << "  lprop " << QuoteString(name) << " " << QuoteString(value)
        << "\n";
  }
  out << "end\n";
}

/// Parses "object <slot> alive=<0|1>" + body through "end", interning
/// its names into `db`. Returns the slot index from the header.
size_t ParseObjectRecord(LineReader& reader, const std::string& header_line,
                         MetaDatabase& db, MetaObject& object) {
  const auto header = SplitWhitespace(header_line);
  if (header.size() != 3 || !StartsWith(header[2], "alive=")) {
    reader.Fail("malformed object header '" + header_line + "'");
  }
  const size_t slot = static_cast<size_t>(ParseInt(reader, header[1]));
  object.alive = header[2] == "alive=1";

  std::string line;
  while (true) {
    if (!reader.Next(line)) {
      reader.Fail("truncated: object body missing 'end'");
    }
    if (line == "end") break;
    if (StartsWith(line, "oid ")) {
      size_t pos = 4;
      object.block = db.Intern(ParseQuoted(reader, line, pos));
      object.view = db.Intern(ParseQuoted(reader, line, pos));
      object.version =
          static_cast<int>(ParseInt(reader, Trim(line.substr(pos))));
    } else if (StartsWith(line, "created ")) {
      const auto pieces = SplitWhitespace(line);
      if (pieces.size() < 2) reader.Fail("malformed created line");
      object.created_at = ParseInt(reader, pieces[1]);
      size_t pos = line.find('"');
      if (pos != std::string::npos) {
        object.created_by = db.Intern(ParseQuoted(reader, line, pos));
      }
    } else if (StartsWith(line, "prop ")) {
      size_t pos = 5;
      const SymbolId name = db.Intern(ParseQuoted(reader, line, pos));
      const std::string value = ParseQuoted(reader, line, pos);
      // The first record of a repeated name wins.
      if (object.FindProperty(name) == nullptr) {
        db.PutProperty(object, name, value);
      }
    } else {
      reader.Fail("unexpected object line '" + line + "'");
    }
  }
  return slot;
}

/// Parses "link <slot> alive= kind= carry= from= to=" + body through
/// "end". Returns the slot index from the header.
size_t ParseLinkRecord(LineReader& reader, const std::string& header_line,
                       Link& link) {
  const auto header = SplitWhitespace(header_line);
  if (header.size() != 7) {
    reader.Fail("malformed link header '" + header_line + "'");
  }
  const size_t slot = static_cast<size_t>(ParseInt(reader, header[1]));
  link.alive = header[2] == "alive=1";
  if (header[3] == "kind=use") {
    link.kind = LinkKind::kUse;
  } else if (header[3] == "kind=derive") {
    link.kind = LinkKind::kDerive;
  } else {
    reader.Fail("unknown link kind '" + header[3] + "'");
  }
  if (header[4] == "carry=none") {
    link.carry = CarryPolicy::kNone;
  } else if (header[4] == "carry=copy") {
    link.carry = CarryPolicy::kCopy;
  } else if (header[4] == "carry=move") {
    link.carry = CarryPolicy::kMove;
  } else {
    reader.Fail("unknown carry policy '" + header[4] + "'");
  }
  if (!StartsWith(header[5], "from=") || !StartsWith(header[6], "to=")) {
    reader.Fail("malformed link endpoints '" + header_line + "'");
  }
  link.from =
      OidId(static_cast<uint32_t>(ParseInt(reader, header[5].substr(5))));
  link.to = OidId(static_cast<uint32_t>(ParseInt(reader, header[6].substr(3))));

  std::string line;
  while (true) {
    if (!reader.Next(line)) {
      reader.Fail("truncated: link body missing 'end'");
    }
    if (line == "end") break;
    if (StartsWith(line, "type ")) {
      size_t pos = 5;
      link.type = ParseQuoted(reader, line, pos);
    } else if (StartsWith(line, "propagates")) {
      link.propagates = ParseQuotedList(reader, line, 10);
    } else if (StartsWith(line, "lprop ")) {
      size_t pos = 6;
      std::string name = ParseQuoted(reader, line, pos);
      std::string value = ParseQuoted(reader, line, pos);
      link.properties.emplace(std::move(name), std::move(value));
    } else {
      reader.Fail("unexpected link line '" + line + "'");
    }
  }
  return slot;
}

/// Parses a config body (from/coids/clinks) through "end"; the header
/// differs between full and delta formats and is parsed by the caller.
void ParseConfigBody(LineReader& reader, Configuration& config) {
  std::string line;
  while (true) {
    if (!reader.Next(line)) {
      reader.Fail("truncated: config body missing 'end'");
    }
    if (line == "end") break;
    if (StartsWith(line, "from ")) {
      size_t from_pos = 5;
      config.built_from = ParseQuoted(reader, line, from_pos);
    } else if (StartsWith(line, "coids")) {
      for (const std::string& token : SplitWhitespace(line.substr(5))) {
        config.oids.push_back(
            OidId(static_cast<uint32_t>(ParseInt(reader, token))));
      }
    } else if (StartsWith(line, "clinks")) {
      for (const std::string& token : SplitWhitespace(line.substr(6))) {
        config.links.push_back(
            LinkId(static_cast<uint32_t>(ParseInt(reader, token))));
      }
    } else {
      reader.Fail("unexpected config line '" + line + "'");
    }
  }
}

}  // namespace

void SaveDatabaseText(const MetaDatabase& db, std::ostream& out) {
  out << kMagic << "\n";

  out << "objects " << db.ObjectSlotCount() << "\n";
  for (size_t i = 0; i < db.ObjectSlotCount(); ++i) {
    WriteObjectSlot(out, db, static_cast<uint32_t>(i));
  }

  out << "links " << db.LinkSlotCount() << "\n";
  for (size_t i = 0; i < db.LinkSlotCount(); ++i) {
    WriteLinkSlot(out, i, db.GetLink(LinkId(static_cast<uint32_t>(i))));
  }

  out << "configs " << db.ConfigurationSlotCount() << "\n";
  for (size_t i = 0; i < db.ConfigurationSlotCount(); ++i) {
    const Configuration& config =
        db.GetConfiguration(ConfigId(static_cast<uint32_t>(i)));
    out << "config " << QuoteString(config.name) << " " << config.created_at
        << "\n";
    out << "  from " << QuoteString(config.built_from) << "\n";
    out << "  coids";
    for (const OidId id : config.oids) out << " " << id.value();
    out << "\n";
    out << "  clinks";
    for (const LinkId id : config.links) out << " " << id.value();
    out << "\n";
    out << "end\n";
  }
}

MetaDatabase LoadDatabaseText(std::istream& in) {
  LineReader reader(in);
  std::string line;

  if (!reader.Next(line) || line != kMagic) {
    reader.Fail("missing magic header '" + std::string(kMagic) + "'");
  }

  MetaDatabase db;

  if (!reader.Next(line) || !StartsWith(line, "objects ")) {
    reader.Fail("expected 'objects <count>'");
  }
  reader.SetSection("objects");
  const int64_t object_count = ParseInt(reader, Trim(line.substr(8)));
  for (int64_t i = 0; i < object_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "object ")) {
      reader.Fail("expected 'object <slot> alive=<0|1>'");
    }
    MetaObject object;
    ParseObjectRecord(reader, line, db, object);
    db.RestoreObjectSlot(std::move(object));
  }

  if (!reader.Next(line) || !StartsWith(line, "links ")) {
    reader.Fail("expected 'links <count>'");
  }
  reader.SetSection("links");
  const int64_t link_count = ParseInt(reader, Trim(line.substr(6)));
  for (int64_t i = 0; i < link_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "link ")) {
      reader.Fail("expected link header");
    }
    Link link;
    ParseLinkRecord(reader, line, link);
    db.RestoreLinkSlot(std::move(link));
  }

  if (!reader.Next(line) || !StartsWith(line, "configs ")) {
    reader.Fail("expected 'configs <count>'");
  }
  reader.SetSection("configs");
  const int64_t config_count = ParseInt(reader, Trim(line.substr(8)));
  for (int64_t i = 0; i < config_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "config ")) {
      reader.Fail("expected config header");
    }
    Configuration config;
    size_t pos = 7;
    config.name = ParseQuoted(reader, line, pos);
    config.created_at = ParseInt(reader, Trim(line.substr(pos)));
    ParseConfigBody(reader, config);
    db.RestoreConfigurationSlot(std::move(config));
  }

  // A checkpoint is exactly three sections; anything after the last
  // config is corruption (e.g. a torn write appending a second copy).
  if (reader.Next(line)) {
    reader.Fail("trailing content after configs: '" + line + "'");
  }

  return db;
}

std::string SaveDatabaseString(const MetaDatabase& db) {
  std::ostringstream out;
  SaveDatabaseText(db, out);
  return out.str();
}

MetaDatabase LoadDatabaseString(const std::string& text) {
  std::istringstream in(text);
  return LoadDatabaseText(in);
}

// --- Delta checkpoints -------------------------------------------------------

void SaveDatabaseDeltaText(const MetaDatabase& db, const DirtySet& dirty,
                           std::ostream& out) {
  out << kDeltaMagic << "\n";
  // Slot totals after application: a delta chained onto the wrong base
  // fails the count check instead of silently corrupting handles.
  out << "totals " << db.ObjectSlotCount() << " " << db.LinkSlotCount() << " "
      << db.ConfigurationSlotCount() << "\n";

  out << "objects " << dirty.objects.size() << "\n";
  for (const uint32_t slot : dirty.objects) {
    WriteObjectSlot(out, db, slot);
  }

  out << "links " << dirty.links.size() << "\n";
  for (const uint32_t slot : dirty.links) {
    WriteLinkSlot(out, slot, db.GetLink(LinkId(slot)));
  }

  out << "configs " << dirty.configs.size() << "\n";
  for (const uint32_t slot : dirty.configs) {
    const Configuration& config = db.GetConfiguration(ConfigId(slot));
    // Unlike the full format, the delta header carries the slot index:
    // deltas address existing slots, they do not enumerate from zero.
    out << "config " << slot << " " << QuoteString(config.name) << " "
        << config.created_at << "\n";
    out << "  from " << QuoteString(config.built_from) << "\n";
    out << "  coids";
    for (const OidId id : config.oids) out << " " << id.value();
    out << "\n";
    out << "  clinks";
    for (const LinkId id : config.links) out << " " << id.value();
    out << "\n";
    out << "end\n";
  }
}

void ApplyDatabaseDeltaText(std::istream& in, MetaDatabase& db) {
  LineReader reader(in);
  std::string line;

  if (!reader.Next(line) || line != kDeltaMagic) {
    reader.Fail("missing delta magic header '" + std::string(kDeltaMagic) +
                "'");
  }
  if (!reader.Next(line) || !StartsWith(line, "totals ")) {
    reader.Fail("expected 'totals <objects> <links> <configs>'");
  }
  const auto totals = SplitWhitespace(line.substr(7));
  if (totals.size() != 3) {
    reader.Fail("malformed totals line '" + line + "'");
  }
  const auto expected_objects =
      static_cast<size_t>(ParseInt(reader, totals[0]));
  const auto expected_links = static_cast<size_t>(ParseInt(reader, totals[1]));
  const auto expected_configs =
      static_cast<size_t>(ParseInt(reader, totals[2]));

  if (!reader.Next(line) || !StartsWith(line, "objects ")) {
    reader.Fail("expected 'objects <count>'");
  }
  reader.SetSection("objects");
  const int64_t object_count = ParseInt(reader, Trim(line.substr(8)));
  for (int64_t i = 0; i < object_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "object ")) {
      reader.Fail("expected 'object <slot> alive=<0|1>'");
    }
    MetaObject object;
    const size_t slot = ParseObjectRecord(reader, line, db, object);
    try {
      db.ApplyObjectSlot(slot, std::move(object));
    } catch (const Error& error) {
      reader.Fail(error.what());
    }
  }

  if (!reader.Next(line) || !StartsWith(line, "links ")) {
    reader.Fail("expected 'links <count>'");
  }
  reader.SetSection("links");
  const int64_t link_count = ParseInt(reader, Trim(line.substr(6)));
  for (int64_t i = 0; i < link_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "link ")) {
      reader.Fail("expected link header");
    }
    Link link;
    const size_t slot = ParseLinkRecord(reader, line, link);
    try {
      db.ApplyLinkSlot(slot, std::move(link));
    } catch (const Error& error) {
      reader.Fail(error.what());
    }
  }

  if (!reader.Next(line) || !StartsWith(line, "configs ")) {
    reader.Fail("expected 'configs <count>'");
  }
  reader.SetSection("configs");
  const int64_t config_count = ParseInt(reader, Trim(line.substr(8)));
  for (int64_t i = 0; i < config_count; ++i) {
    if (!reader.Next(line) || !StartsWith(line, "config ")) {
      reader.Fail("expected config header");
    }
    const auto header = SplitWhitespace(line);
    if (header.size() < 2) reader.Fail("malformed config header '" + line + "'");
    const size_t slot = static_cast<size_t>(ParseInt(reader, header[1]));
    Configuration config;
    size_t pos = 7 + header[1].size();
    config.name = ParseQuoted(reader, line, pos);
    config.created_at = ParseInt(reader, Trim(line.substr(pos)));
    ParseConfigBody(reader, config);
    try {
      db.ApplyConfigurationSlot(slot, std::move(config));
    } catch (const Error& error) {
      reader.Fail(error.what());
    }
  }

  if (reader.Next(line)) {
    reader.Fail("trailing content after configs: '" + line + "'");
  }

  reader.SetSection("totals");
  if (db.ObjectSlotCount() != expected_objects ||
      db.LinkSlotCount() != expected_links ||
      db.ConfigurationSlotCount() != expected_configs) {
    reader.Fail(
        "slot totals mismatch after application (delta applied to the "
        "wrong base): have " +
        std::to_string(db.ObjectSlotCount()) + "/" +
        std::to_string(db.LinkSlotCount()) + "/" +
        std::to_string(db.ConfigurationSlotCount()) + ", delta expects " +
        std::to_string(expected_objects) + "/" +
        std::to_string(expected_links) + "/" +
        std::to_string(expected_configs));
  }

  // Replaced link slots bypass adjacency maintenance; rebuild once so
  // the applied state is indistinguishable from a full-checkpoint load.
  db.RebuildLinkAdjacency();
}

std::string SaveDatabaseDeltaString(const MetaDatabase& db,
                                    const DirtySet& dirty) {
  std::ostringstream out;
  SaveDatabaseDeltaText(db, dirty, out);
  return out.str();
}

void ApplyDatabaseDeltaString(const std::string& text, MetaDatabase& db) {
  std::istringstream in(text);
  ApplyDatabaseDeltaText(in, db);
}

}  // namespace damocles::metadb
