#include "events/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/errno_string.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"

namespace damocles::events {

namespace {

constexpr char kWalMagic[8] = {'D', 'M', 'W', 'A', 'L', '1', '\n', '\0'};
constexpr uint32_t kWalFormatVersion = 1;
constexpr size_t kWalHeaderSize = 36;
constexpr size_t kWalFrameOverhead = 9;  // u32 length + u8 type + u32 crc.
constexpr uint32_t kMaxRecordPayload = 64u << 20;
// journal_symbol_cache_ sentinel: journal id not yet interned here.
constexpr uint32_t kNoCachedSymbol = UINT32_MAX;

/// Writer-owned buffer threshold: appended frames accumulate here and
/// are handed to the OS in one write() once the threshold is crossed
/// (or at an explicit Flush/Sync).
constexpr size_t kWalWriteBufferBytes = 64u << 10;

// --- Little-endian encode / decode helpers ---------------------------------

void PutU32(unsigned char* out, uint32_t value) noexcept {
  out[0] = static_cast<unsigned char>(value);
  out[1] = static_cast<unsigned char>(value >> 8);
  out[2] = static_cast<unsigned char>(value >> 16);
  out[3] = static_cast<unsigned char>(value >> 24);
}

void PutU64(unsigned char* out, uint64_t value) noexcept {
  PutU32(out, static_cast<uint32_t>(value));
  PutU32(out + 4, static_cast<uint32_t>(value >> 32));
}

uint32_t GetU32(const unsigned char* in) noexcept {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

uint64_t GetU64(const unsigned char* in) noexcept {
  return static_cast<uint64_t>(GetU32(in)) |
         (static_cast<uint64_t>(GetU32(in + 4)) << 32);
}

void AppendU8(std::string& out, uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void AppendU32(std::string& out, uint32_t value) {
  unsigned char buf[4];
  PutU32(buf, value);
  out.append(reinterpret_cast<const char*>(buf), 4);
}

void AppendU64(std::string& out, uint64_t value) {
  unsigned char buf[8];
  PutU64(buf, value);
  out.append(reinterpret_cast<const char*>(buf), 8);
}

void AppendI32(std::string& out, int32_t value) {
  AppendU32(out, static_cast<uint32_t>(value));
}

void AppendI64(std::string& out, int64_t value) {
  AppendU64(out, static_cast<uint64_t>(value));
}

void AppendString(std::string& out, std::string_view text) {
  AppendU32(out, static_cast<uint32_t>(text.size()));
  out.append(text);
}

/// Bounds-checked cursor over a record payload. Throws WireFormatError
/// on underrun so every malformed payload surfaces as a torn record.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    Need(1);
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint16_t U16() {
    Need(2);
    const uint16_t value =
        static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_]) |
                              (static_cast<uint8_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return value;
  }

  uint32_t U32() {
    Need(4);
    const uint32_t value =
        GetU32(reinterpret_cast<const unsigned char*>(data_.data()) + pos_);
    pos_ += 4;
    return value;
  }

  uint64_t U64() {
    Need(8);
    const uint64_t value =
        GetU64(reinterpret_cast<const unsigned char*>(data_.data()) + pos_);
    pos_ += 8;
    return value;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  std::string String() {
    const uint32_t length = U32();
    Need(length);
    std::string text(data_.substr(pos_, length));
    pos_ += length;
    return text;
  }

  bool AtEnd() const noexcept { return pos_ == data_.size(); }

  void ExpectEnd() const {
    if (!AtEnd()) {
      throw WireFormatError("wal: trailing bytes in record payload");
    }
  }

 private:
  void Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      throw WireFormatError("wal: record payload truncated");
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
};

void EncodeOid(std::string& out, const metadb::Oid& oid) {
  AppendString(out, oid.block);
  AppendString(out, oid.view);
  AppendI32(out, oid.version);
}

metadb::Oid DecodeOid(ByteReader& reader) {
  metadb::Oid oid;
  oid.block = reader.String();
  oid.view = reader.String();
  oid.version = reader.I32();
  return oid;
}

EventMessage DecodeEvent(ByteReader& reader) {
  EventMessage event;
  event.name = reader.String();
  event.direction = static_cast<Direction>(reader.U8());
  event.target = DecodeOid(reader);
  event.arg = reader.String();
  event.user = reader.String();
  event.timestamp = reader.I64();
  event.origin = static_cast<EventOrigin>(reader.U8());
  const uint16_t extras = reader.U16();
  event.extra_args.reserve(extras);
  for (uint16_t i = 0; i < extras; ++i) {
    event.extra_args.push_back(reader.String());
  }
  return event;
}

/// Reads a whole file into `out`. Returns false (with `error` set) on
/// any I/O failure.
bool ReadFileBytes(const std::string& path, std::string& out,
                   std::string& error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  std::array<char, 1u << 16> buffer;
  out.clear();
  size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    out.append(buffer.data(), got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    error = "read error on " + path;
    return false;
  }
  return true;
}

/// Parses a segment header into `info`. Returns false with info.error
/// set when the header is short, mismatched or CRC-corrupt.
bool ParseSegmentHeader(const std::string& bytes, WalSegmentInfo& info) {
  if (bytes.size() < kWalHeaderSize) {
    info.error = "short header (" + std::to_string(bytes.size()) + " of " +
                 std::to_string(kWalHeaderSize) + " bytes)";
    return false;
  }
  const unsigned char* buf =
      reinterpret_cast<const unsigned char*>(bytes.data());
  if (std::memcmp(buf, kWalMagic, sizeof kWalMagic) != 0) {
    info.error = "bad magic";
    return false;
  }
  const uint32_t stored_crc = GetU32(buf + 32);
  if (Crc32(buf, 32) != stored_crc) {
    info.error = "header CRC mismatch";
    return false;
  }
  info.version = GetU32(buf + 8);
  info.shard_id = GetU32(buf + 12);
  info.base_offset = GetU64(buf + 16);
  info.epoch_floor = GetU64(buf + 24);
  if (info.version != kWalFormatVersion) {
    info.error = "unsupported format version " + std::to_string(info.version);
    return false;
  }
  info.header_valid = true;
  return true;
}

/// Segment files of `stream` in `dir`, sorted by index.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir, const std::string& stream) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  const std::string prefix = stream + "-";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, prefix) || !EndsWith(name, ".wal")) continue;
    const std::string_view digits = std::string_view(name).substr(
        prefix.size(), name.size() - prefix.size() - 4);
    uint64_t index = 0;
    if (!ParseWhole(digits, index)) continue;
    segments.emplace_back(index, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

// --- CRC32 -----------------------------------------------------------------

uint32_t Crc32(const void* data, size_t size, uint32_t seed) noexcept {
  // Slicing-by-8: tables[t][b] is the CRC of byte b followed by t zero
  // bytes, so eight input bytes fold in one step. Output is identical
  // to the classic byte-at-a-time form (which the tail loop still is).
  static const std::array<std::array<uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      tables[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = tables[0][i];
      for (size_t t = 1; t < 8; ++t) {
        crc = (crc >> 8) ^ tables[0][crc & 0xFFu];
        tables[t][i] = crc;
      }
    }
    return tables;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    crc ^= GetU32(bytes);
    const uint32_t next = GetU32(bytes + 4);
    crc = kTables[7][crc & 0xFFu] ^ kTables[6][(crc >> 8) & 0xFFu] ^
          kTables[5][(crc >> 16) & 0xFFu] ^ kTables[4][crc >> 24] ^
          kTables[3][next & 0xFFu] ^ kTables[2][(next >> 8) & 0xFFu] ^
          kTables[1][(next >> 16) & 0xFFu] ^ kTables[0][next >> 24];
    bytes += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Enums -----------------------------------------------------------------

bool IsWalOpType(WalRecordType type) noexcept {
  return (static_cast<uint8_t>(type) & 0x10u) != 0;
}

const char* FsyncPolicyName(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "?";
}

FsyncPolicy ParseFsyncPolicy(std::string_view text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "batch") return FsyncPolicy::kBatch;
  if (text == "every_record") return FsyncPolicy::kEveryRecord;
  throw WireFormatError("unknown fsync policy '" + std::string(text) +
                        "' (expected none|batch|every_record)");
}

// --- Operation records -----------------------------------------------------

namespace {

// Shared payload encoders: EncodeWalOp and the writer's zero-copy
// Append*Op paths go through the same functions so the two can never
// drift apart.

// The event and check-in payloads are the per-operation hot path, so
// they are encoded with one buffer grow and raw pointer stores instead
// of a string-append call per field. Byte-identical to the Append*
// form the cold payloads below still use.

/// Extends `out` by `n` bytes and returns a pointer to the new region.
unsigned char* GrowBuffer(std::string& out, size_t n) {
  const size_t old = out.size();
  out.resize(old + n);
  return reinterpret_cast<unsigned char*>(out.data()) + old;
}

unsigned char* PutString(unsigned char* p, std::string_view text) {
  PutU32(p, static_cast<uint32_t>(text.size()));
  std::memcpy(p + 4, text.data(), text.size());
  return p + 4 + text.size();
}

void EncodeEventPayload(std::string& out, uint64_t op_seq,
                        const EventMessage& event) {
  if (event.extra_args.size() > 0xFFFF) {
    throw Error("wal: more than 65535 extra args on event '" + event.name +
                "'");
  }
  size_t size = 8 + 4 + event.name.size() + 1 + 4 +
                event.target.block.size() + 4 + event.target.view.size() + 4 +
                4 + event.arg.size() + 4 + event.user.size() + 8 + 1 + 2;
  for (const std::string& extra : event.extra_args) {
    size += 4 + extra.size();
  }
  unsigned char* p = GrowBuffer(out, size);
  PutU64(p, op_seq);
  p = PutString(p + 8, event.name);
  *p++ = static_cast<unsigned char>(event.direction);
  p = PutString(p, event.target.block);
  p = PutString(p, event.target.view);
  PutU32(p, static_cast<uint32_t>(event.target.version));
  p = PutString(p + 4, event.arg);
  p = PutString(p, event.user);
  PutU64(p, static_cast<uint64_t>(event.timestamp));
  p += 8;
  *p++ = static_cast<unsigned char>(event.origin);
  *p++ = static_cast<unsigned char>(event.extra_args.size() & 0xFF);
  *p++ = static_cast<unsigned char>(event.extra_args.size() >> 8);
  for (const std::string& extra : event.extra_args) {
    p = PutString(p, extra);
  }
}

void EncodeCheckInPayload(std::string& out, uint64_t op_seq,
                          std::string_view block, std::string_view view,
                          std::string_view content, std::string_view user) {
  unsigned char* p =
      GrowBuffer(out, 8 + 16 + block.size() + view.size() + content.size() +
                          user.size());
  PutU64(p, op_seq);
  p = PutString(p + 8, block);
  p = PutString(p, view);
  p = PutString(p, content);
  PutString(p, user);
}

void EncodeLinkPayload(std::string& out, uint64_t op_seq, uint8_t link_kind,
                       const metadb::Oid& from, const metadb::Oid& to) {
  AppendU64(out, op_seq);
  AppendU8(out, link_kind);
  EncodeOid(out, from);
  EncodeOid(out, to);
}

void EncodeBlueprintPayload(std::string& out, uint64_t op_seq,
                            std::string_view text) {
  AppendU64(out, op_seq);
  AppendString(out, text);
}

void EncodeClockPayload(std::string& out, uint64_t op_seq, int64_t seconds) {
  AppendU64(out, op_seq);
  AppendI64(out, seconds);
}

void EncodePolicyProposePayload(std::string& out, uint64_t op_seq,
                                std::string_view text,
                                std::string_view author,
                                std::string_view message) {
  AppendU64(out, op_seq);
  AppendString(out, text);
  AppendString(out, author);
  AppendString(out, message);
}

void EncodePolicyVersionPayload(std::string& out, uint64_t op_seq,
                                uint64_t policy_version) {
  AppendU64(out, op_seq);
  AppendU64(out, policy_version);
}

void EncodePolicyRollbackPayload(std::string& out, uint64_t op_seq) {
  AppendU64(out, op_seq);
}

void EncodeConfigurationPayload(std::string& out, uint64_t op_seq,
                                std::string_view name, int64_t timestamp) {
  AppendU64(out, op_seq);
  AppendString(out, name);
  AppendI64(out, timestamp);
}

}  // namespace

std::string EncodeWalOp(const WalOpRecord& op) {
  std::string payload;
  switch (op.type) {
    case WalRecordType::kOpEvent:
      EncodeEventPayload(payload, op.op_seq, op.event);
      break;
    case WalRecordType::kOpCheckIn:
      EncodeCheckInPayload(payload, op.op_seq, op.block, op.view, op.content,
                           op.user);
      break;
    case WalRecordType::kOpLink:
      EncodeLinkPayload(payload, op.op_seq, op.link_kind, op.link_from,
                        op.link_to);
      break;
    case WalRecordType::kOpBlueprint:
      EncodeBlueprintPayload(payload, op.op_seq, op.text);
      break;
    case WalRecordType::kOpClock:
      EncodeClockPayload(payload, op.op_seq, op.clock_seconds);
      break;
    case WalRecordType::kOpPolicyPropose:
      EncodePolicyProposePayload(payload, op.op_seq, op.text, op.user,
                                 op.content);
      break;
    case WalRecordType::kOpPolicyValidate:
    case WalRecordType::kOpPolicyPromote:
      EncodePolicyVersionPayload(payload, op.op_seq, op.policy_version);
      break;
    case WalRecordType::kOpPolicyRollback:
      EncodePolicyRollbackPayload(payload, op.op_seq);
      break;
    case WalRecordType::kOpConfiguration:
      EncodeConfigurationPayload(payload, op.op_seq, op.text, op.clock_seconds);
      break;
    default:
      throw Error("EncodeWalOp: record type " +
                  std::to_string(static_cast<int>(op.type)) +
                  " is not an operation");
  }
  return payload;
}

WalOpRecord DecodeWalOp(WalRecordType type, std::string_view payload) {
  WalOpRecord op;
  op.type = type;
  ByteReader reader(payload);
  op.op_seq = reader.U64();
  switch (type) {
    case WalRecordType::kOpEvent:
      op.event = DecodeEvent(reader);
      break;
    case WalRecordType::kOpCheckIn:
      op.block = reader.String();
      op.view = reader.String();
      op.content = reader.String();
      op.user = reader.String();
      break;
    case WalRecordType::kOpLink:
      op.link_kind = reader.U8();
      op.link_from = DecodeOid(reader);
      op.link_to = DecodeOid(reader);
      break;
    case WalRecordType::kOpBlueprint:
      op.text = reader.String();
      break;
    case WalRecordType::kOpClock:
      op.clock_seconds = reader.I64();
      break;
    case WalRecordType::kOpPolicyPropose:
      op.text = reader.String();
      op.user = reader.String();
      op.content = reader.String();
      break;
    case WalRecordType::kOpPolicyValidate:
    case WalRecordType::kOpPolicyPromote:
      op.policy_version = reader.U64();
      break;
    case WalRecordType::kOpPolicyRollback:
      break;
    case WalRecordType::kOpConfiguration:
      op.text = reader.String();
      op.clock_seconds = reader.I64();
      break;
    default:
      throw WireFormatError("DecodeWalOp: record type " +
                            std::to_string(static_cast<int>(type)) +
                            " is not an operation");
  }
  reader.ExpectEnd();
  return op;
}

// --- Writer ----------------------------------------------------------------

WalWriter::WalWriter(WalWriterOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) throw Error("wal: empty directory");
  if (options_.stream.empty()) throw Error("wal: empty stream name");
  // Continue where the stream left off: a brand-new segment right after
  // the last one on disk, so this writer's symbol table starts fresh.
  const auto segments = ListSegments(options_.dir, options_.stream);
  if (!segments.empty()) {
    const auto& [last_index, last_path] = segments.back();
    std::string bytes;
    std::string io_error;
    if (!ReadFileBytes(last_path, bytes, io_error)) {
      throw Error("wal: cannot continue stream '" + options_.stream +
                  "': " + io_error);
    }
    WalSegmentInfo info;
    if (!ParseSegmentHeader(bytes, info)) {
      throw Error("wal: cannot continue stream '" + options_.stream + "': " +
                  last_path + ": " + info.error);
    }
    segment_index_ = last_index + 1;
    base_offset_ = info.base_offset + bytes.size();
  } else {
    segment_index_ = 1;
    base_offset_ = 0;
  }
  OpenSegment();
}

WalWriter::~WalWriter() {
  try {
    CloseSegment();
  } catch (const Error&) {
    // Destructors must not throw; a failed final flush surfaces as a
    // torn tail on the next recovery, which is exactly what the format
    // is built to absorb.
  }
}

void WalWriter::OpenSegment() {
  path_ = options_.dir + "/" +
          WalSegmentFileName(options_.stream, segment_index_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw WalIoError("wal: cannot create segment " + path_ + ": " +
                     common::ErrnoString(errno));
  }
  write_buffer_.clear();
  write_buffer_.reserve(kWalWriteBufferBytes);
  stream_symbols_.clear();
  journal_symbol_cache_.clear();
  file_bytes_ = 0;
  unsigned char header[kWalHeaderSize];
  std::memcpy(header, kWalMagic, sizeof kWalMagic);
  PutU32(header + 8, kWalFormatVersion);
  PutU32(header + 12, options_.shard_id);
  PutU64(header + 16, base_offset_);
  PutU64(header + 24, options_.epoch_floor ? options_.epoch_floor() : 0);
  PutU32(header + 32, Crc32(header, 32));
  WriteRaw(header, sizeof header);
}

void WalWriter::CloseSegment() {
  if (fd_ < 0) return;
  Flush();
  if (options_.fsync != FsyncPolicy::kNone) {
    ::fsync(fd_);
  }
  ::close(fd_);
  fd_ = -1;
}

void WalWriter::MaybeRoll() {
  if (file_bytes_ < options_.segment_bytes) return;
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("wal.roll", &hit)) {
    throw WalIoError("wal: injected segment-roll failure on stream '" +
                     options_.stream + "' (failpoint wal.roll)");
  }
  // CloseSegment flushes; a failed flush leaves this segment open (with
  // the unwritten tail still buffered) so a retried append can resume.
  CloseSegment();
  base_offset_ += file_bytes_;
  ++segment_index_;
  OpenSegment();
}

void WalWriter::WriteRaw(const void* data, size_t size) {
  write_buffer_.append(static_cast<const char*>(data), size);
  file_bytes_ += size;
  dirty_ = true;
  if (write_buffer_.size() >= kWalWriteBufferBytes) Flush();
}

size_t WalWriter::BeginRecord(WalRecordType type) {
  const size_t mark = write_buffer_.size();
  // Length placeholder (back-patched by EndRecord) + the type byte.
  write_buffer_.append("\0\0\0\0", 4);
  write_buffer_.push_back(static_cast<char>(type));
  return mark;
}

void WalWriter::EndRecord(size_t mark) {
  const size_t payload_size = write_buffer_.size() - mark - 5;
  if (payload_size > kMaxRecordPayload) {
    throw Error("wal: record payload exceeds " +
                std::to_string(kMaxRecordPayload) + " bytes");
  }
  PutU32(reinterpret_cast<unsigned char*>(write_buffer_.data() + mark),
         static_cast<uint32_t>(payload_size));
  // Type byte and payload sit contiguously in the buffer: one CRC pass.
  const uint32_t crc = Crc32(write_buffer_.data() + mark + 4,
                             1 + payload_size);
  unsigned char tail[4];
  PutU32(tail, crc);
  write_buffer_.append(reinterpret_cast<const char*>(tail), sizeof tail);
  file_bytes_ += payload_size + kWalFrameOverhead;
  dirty_ = true;
  // Count before the spill check below: the frame is committed to the
  // buffer even when the flush it triggers fails.
  ++frames_appended_;
  // The spill check runs at frame granularity — a mid-record durable
  // extent is exactly the torn tail recovery truncates (the crash fuzz
  // exercises these offsets). Between BeginRecord and EndRecord nothing
  // may flush: the buffer holds an unframed prefix.
  if (write_buffer_.size() >= kWalWriteBufferBytes) Flush();
}

void WalWriter::WriteRecord(WalRecordType type, std::string_view payload) {
  const size_t mark = BeginRecord(type);
  write_buffer_.append(payload.data(), payload.size());
  EndRecord(mark);
}

uint32_t WalWriter::InternStreamSymbol(const std::string& text) {
  const auto it = stream_symbols_.find(text);
  if (it != stream_symbols_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(stream_symbols_.size());
  std::string payload;
  AppendU32(payload, id);
  AppendString(payload, text);
  // Register first: once framed, the record is in the stream even when
  // the flush it triggers throws, and defining the id a second time
  // would read as "symbol id out of order" — a torn stream.
  stream_symbols_.emplace(text, id);
  WriteRecord(WalRecordType::kSymbol, payload);
  return id;
}

uint32_t WalWriter::InternJournalSymbol(const EventJournal& journal,
                                        SymbolId id) {
  if (id >= journal_symbol_cache_.size()) {
    journal_symbol_cache_.resize(id + 1, kNoCachedSymbol);
  }
  uint32_t& slot = journal_symbol_cache_[id];
  if (slot == kNoCachedSymbol) {
    slot = InternStreamSymbol(journal.SymbolText(id));
  }
  return slot;
}

void WalWriter::EndAppendGroup() {
  if (options_.fsync == FsyncPolicy::kEveryRecord) Sync();
}

void WalWriter::CheckAppendFailpoint() {
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("wal.append", &hit)) {
    throw WalIoError("wal: injected append failure on stream '" +
                     options_.stream + "' (failpoint wal.append)");
  }
}

void WalWriter::AppendRowAt(const EventJournal& journal, size_t index) {
  const EventJournal::Row& row = journal.RawRow(index);
  // Intern every symbol before the row frame opens: a first-sight
  // symbol emits its own kSymbol record, which must precede the row's
  // frame in the stream (the encode below then only hits the cache).
  const uint32_t name = InternJournalSymbol(journal, row.name);
  const uint32_t block = InternJournalSymbol(journal, row.block);
  const uint32_t view = InternJournalSymbol(journal, row.view);
  const uint32_t arg = InternJournalSymbol(journal, row.arg);
  const uint32_t user = InternJournalSymbol(journal, row.user);
  for (uint16_t i = 0; i < row.extra_count; ++i) {
    InternJournalSymbol(journal, journal.ExtraPoolAt(row.extra_begin + i));
  }
  const size_t mark = BeginRecord(WalRecordType::kRow);
  unsigned char* p =
      GrowBuffer(write_buffer_, 44 + 4 * size_t{row.extra_count});
  PutU32(p, name);
  PutU32(p + 4, block);
  PutU32(p + 8, view);
  PutU32(p + 12, arg);
  PutU32(p + 16, user);
  PutU32(p + 20, static_cast<uint32_t>(row.version));
  PutU64(p + 24, static_cast<uint64_t>(row.timestamp));
  PutU64(p + 32, row.epoch);
  p[40] = row.direction;
  p[41] = row.origin;
  p[42] = static_cast<unsigned char>(row.extra_count & 0xFF);
  p[43] = static_cast<unsigned char>(row.extra_count >> 8);
  p += 44;
  for (uint16_t i = 0; i < row.extra_count; ++i) {
    const SymbolId extra = journal.ExtraPoolAt(row.extra_begin + i);
    PutU32(p, InternJournalSymbol(journal, extra));
    p += 4;
  }
  EndRecord(mark);
}

void WalWriter::SyncJournal(const EventJournal& journal) {
  const bool reset = journal_rows_ == kUnknownRows ||
                     journal_clears_ != journal.clears();
  size_t next = reset ? 0 : journal_rows_;
  // Unknown until the sync below succeeds: any failure on the way
  // makes the next call rewrite the stream's content from a reset.
  journal_rows_ = kUnknownRows;
  if (reset || next < journal.Size()) CheckAppendFailpoint();
  if (reset) {
    MaybeRoll();
    WriteRecord(WalRecordType::kReset, {});
    last_reset_end_ = logical_end();
    // The journal may have rebuilt its symbol table since the cache
    // was filled; cached ids would name the wrong text.
    journal_symbol_cache_.clear();
  }
  for (; next < journal.Size(); ++next) {
    MaybeRoll();
    AppendRowAt(journal, next);
  }
  Sync();
  journal_rows_ = journal.Size();
  journal_clears_ = journal.clears();
}

void WalWriter::ResumeJournal(const EventJournal& journal, size_t rows) {
  journal_rows_ = rows;
  journal_clears_ = journal.clears();
}

void WalWriter::AppendOp(const WalOpRecord& op) {
  CheckAppendFailpoint();
  MaybeRoll();
  WriteRecord(op.type, EncodeWalOp(op));
  EndAppendGroup();
}

void WalWriter::AppendCheckInOp(uint64_t op_seq, std::string_view block,
                                std::string_view view,
                                std::string_view content,
                                std::string_view user) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpCheckIn);
  EncodeCheckInPayload(write_buffer_, op_seq, block, view, content, user);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendEventOp(uint64_t op_seq, const EventMessage& event) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpEvent);
  try {
    EncodeEventPayload(write_buffer_, op_seq, event);
  } catch (...) {
    // Drop the half-open frame so the stream stays well-formed.
    write_buffer_.resize(mark);
    throw;
  }
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendLinkOp(uint64_t op_seq, uint8_t link_kind,
                             const metadb::Oid& from, const metadb::Oid& to) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpLink);
  EncodeLinkPayload(write_buffer_, op_seq, link_kind, from, to);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendBlueprintOp(uint64_t op_seq, std::string_view text) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpBlueprint);
  EncodeBlueprintPayload(write_buffer_, op_seq, text);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendClockOp(uint64_t op_seq, int64_t clock_seconds) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpClock);
  EncodeClockPayload(write_buffer_, op_seq, clock_seconds);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendPolicyProposeOp(uint64_t op_seq, std::string_view text,
                                      std::string_view author,
                                      std::string_view message) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpPolicyPropose);
  EncodePolicyProposePayload(write_buffer_, op_seq, text, author, message);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendPolicyVersionOp(WalRecordType type, uint64_t op_seq,
                                      uint64_t policy_version) {
  if (type != WalRecordType::kOpPolicyValidate &&
      type != WalRecordType::kOpPolicyPromote) {
    throw Error("AppendPolicyVersionOp: record type " +
                std::to_string(static_cast<int>(type)) +
                " carries no version id");
  }
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(type);
  EncodePolicyVersionPayload(write_buffer_, op_seq, policy_version);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendPolicyRollbackOp(uint64_t op_seq) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpPolicyRollback);
  EncodePolicyRollbackPayload(write_buffer_, op_seq);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::AppendConfigurationOp(uint64_t op_seq, std::string_view name,
                                      int64_t timestamp) {
  CheckAppendFailpoint();
  MaybeRoll();
  const size_t mark = BeginRecord(WalRecordType::kOpConfiguration);
  EncodeConfigurationPayload(write_buffer_, op_seq, name, timestamp);
  EndRecord(mark);
  EndAppendGroup();
}

void WalWriter::Flush() {
  if (fd_ < 0 || !dirty_) return;
  // "wal.flush" failpoint: fail outright (error / errno), or tear the
  // write — only `short:<n>` bytes reach the file before the failure,
  // exactly what a disk filling up mid-write leaves behind.
  bool inject_fail = false;
  int inject_errno = EIO;
  size_t inject_cap = 0;
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("wal.flush", &hit)) {
    inject_fail = true;
    if (hit.action == common::FailpointAction::kErrno) {
      inject_errno = hit.error_number;
    }
    if (hit.action == common::FailpointAction::kShortWrite) {
      inject_cap = static_cast<size_t>(hit.param);
    }
  }
  const char* data = write_buffer_.data();
  size_t left = write_buffer_.size();
  size_t written = 0;
  while (left > 0) {
    size_t ask = left;
    if (inject_fail) {
      if (inject_cap <= written) break;
      ask = std::min(ask, inject_cap - written);
    }
    const ssize_t wrote = ::write(fd_, data, ask);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (wrote == 0) break;
    data += wrote;
    left -= static_cast<size_t>(wrote);
    written += static_cast<size_t>(wrote);
  }
  if (left > 0) {
    const int err = inject_fail ? inject_errno : errno;
    // Consume what did reach the file so a retry after backoff starts
    // at the first unwritten byte — re-writing the whole buffer would
    // splice duplicate bytes mid-stream and corrupt every later frame.
    write_buffer_.erase(0, written);
    throw WalIoError("wal: write failed on " + path_ + " after " +
                     std::to_string(written) + " bytes: " +
                     common::ErrnoString(err) +
                     (inject_fail ? " (injected)" : ""));
  }
  write_buffer_.clear();
  dirty_ = false;
  if (options_.observer != nullptr) {
    options_.observer->OnDurableExtent(path_, file_bytes_);
  }
}

void WalWriter::Sync() {
  if (fd_ < 0) return;
  Flush();
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("wal.fsync", &hit)) {
    const int err = hit.action == common::FailpointAction::kErrno
                        ? hit.error_number
                        : EIO;
    throw WalIoError("wal: fsync failed on " + path_ + ": " +
                     common::ErrnoString(err) + " (injected)");
  }
  if (::fsync(fd_) != 0) {
    throw WalIoError("wal: fsync failed on " + path_ + ": " +
                     common::ErrnoString(errno));
  }
}

// --- Reader ----------------------------------------------------------------

std::string WalSegmentFileName(const std::string& stream, uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return stream + "-" + digits + ".wal";
}

std::vector<std::string> ListWalStreams(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> streams;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!EndsWith(name, ".wal")) continue;
    const std::string stem = name.substr(0, name.size() - 4);
    const size_t dash = stem.rfind('-');
    if (dash == std::string::npos || dash == 0) continue;
    const std::string digits = stem.substr(dash + 1);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    streams.push_back(stem.substr(0, dash));
  }
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  return streams;
}

WalStreamData ReadWalStream(const std::string& dir, const std::string& stream) {
  WalStreamData data;
  const auto segments = ListSegments(dir, stream);
  bool stopped = false;
  std::vector<std::string> symbols;  // Segment-local, dense from 0.

  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const auto& [index, path] = segments[seg];
    WalSegmentInfo info;
    info.path = path;
    info.index = index;

    std::string bytes;
    std::string io_error;
    const bool read_ok = ReadFileBytes(path, bytes, io_error);
    info.file_bytes = bytes.size();

    if (stopped) {
      if (read_ok) ParseSegmentHeader(bytes, info);
      info.error = "unreachable (stream torn in an earlier segment)";
      data.segments.push_back(std::move(info));
      continue;
    }

    if (!read_ok || !ParseSegmentHeader(bytes, info)) {
      if (!read_ok) info.error = io_error;
      data.torn = true;
      data.error = path + ": " + info.error;
      data.segments.push_back(std::move(info));
      stopped = true;
      continue;
    }

    if (seg == 0) {
      data.valid_end = info.base_offset;
    } else if (info.base_offset > data.valid_end) {
      // Forward gap: the segments below this one were (partially)
      // pruned — a retention pass interrupted mid-prune can persist a
      // later unlink without the earlier ones. Everything below the gap
      // is an orphaned prefix of data the committed checkpoint already
      // covers; drop what was collected and restart at this segment,
      // exactly as if the whole prefix had been pruned.
      data.rows.clear();
      data.resets.clear();
      data.ops.clear();
      for (WalSegmentInfo& prior : data.segments) {
        if (prior.error.empty()) {
          prior.error = "orphaned prefix (pruned gap below segment " +
                        std::to_string(index) + ")";
        }
      }
      data.valid_end = info.base_offset;
    } else if (info.base_offset != data.valid_end) {
      info.torn = true;
      info.error = "base offset discontinuity (header says " +
                   std::to_string(info.base_offset) + ", stream ends at " +
                   std::to_string(data.valid_end) + ")";
      data.torn = true;
      data.error = path + ": " + info.error;
      data.segments.push_back(std::move(info));
      stopped = true;
      continue;
    }

    symbols.clear();  // Fresh table per segment, mirroring the writer.
    size_t pos = kWalHeaderSize;
    std::string torn_reason;
    while (pos < bytes.size()) {
      if (bytes.size() - pos < kWalFrameOverhead) {
        torn_reason = "short frame";
        break;
      }
      const unsigned char* frame =
          reinterpret_cast<const unsigned char*>(bytes.data()) + pos;
      const uint32_t length = GetU32(frame);
      if (length > kMaxRecordPayload) {
        torn_reason = "implausible record length";
        break;
      }
      if (bytes.size() - pos < kWalFrameOverhead + length) {
        torn_reason = "short record";
        break;
      }
      const uint32_t stored_crc = GetU32(frame + 5 + length);
      if (Crc32(frame + 4, 1 + length) != stored_crc) {
        torn_reason = "record CRC mismatch";
        break;
      }
      const auto type = static_cast<WalRecordType>(frame[4]);
      const std::string_view payload(bytes.data() + pos + 5, length);
      const uint64_t end_offset =
          info.base_offset + pos + kWalFrameOverhead + length;
      try {
        if (type == WalRecordType::kSymbol) {
          ByteReader reader(payload);
          const uint32_t id = reader.U32();
          std::string text = reader.String();
          reader.ExpectEnd();
          if (id != symbols.size()) {
            torn_reason = "symbol id out of order";
            break;
          }
          symbols.push_back(std::move(text));
          ++info.symbols;
        } else if (type == WalRecordType::kRow) {
          ByteReader reader(payload);
          uint32_t ids[5];
          for (uint32_t& id : ids) {
            id = reader.U32();
            if (id >= symbols.size()) {
              throw WireFormatError("wal: row references unknown symbol");
            }
          }
          WalRestoredRow restored;
          restored.event.name = symbols[ids[0]];
          restored.event.target.block = symbols[ids[1]];
          restored.event.target.view = symbols[ids[2]];
          restored.event.arg = symbols[ids[3]];
          restored.event.user = symbols[ids[4]];
          restored.event.target.version = reader.I32();
          restored.event.timestamp = reader.I64();
          restored.event.wave_epoch = reader.U64();
          restored.event.direction = static_cast<Direction>(reader.U8());
          restored.event.origin = static_cast<EventOrigin>(reader.U8());
          const uint16_t extras = reader.U16();
          restored.event.extra_args.reserve(extras);
          for (uint16_t i = 0; i < extras; ++i) {
            const uint32_t id = reader.U32();
            if (id >= symbols.size()) {
              throw WireFormatError("wal: row references unknown symbol");
            }
            restored.event.extra_args.push_back(symbols[id]);
          }
          reader.ExpectEnd();
          restored.end_offset = end_offset;
          data.rows.push_back(std::move(restored));
        } else if (type == WalRecordType::kReset) {
          if (!payload.empty()) {
            throw WireFormatError("wal: reset record carries a payload");
          }
          data.resets.push_back(end_offset);
        } else if (IsWalOpType(type)) {
          WalOpEntry entry;
          entry.op = DecodeWalOp(type, payload);
          entry.end_offset = end_offset;
          data.ops.push_back(std::move(entry));
        } else {
          throw WireFormatError("wal: unknown record type " +
                                std::to_string(frame[4]));
        }
      } catch (const WireFormatError& e) {
        torn_reason = e.what();
        break;
      }
      pos += kWalFrameOverhead + length;
      ++info.records;
    }

    info.valid_bytes = pos;
    data.valid_end = info.base_offset + pos;
    if (!torn_reason.empty()) {
      info.torn = true;
      info.error = torn_reason + " at offset " + std::to_string(pos);
      data.torn = true;
      data.error = path + ": " + info.error;
      stopped = true;
    }
    data.segments.push_back(std::move(info));
  }
  return data;
}

void TruncateWalStream(const std::string& dir, const std::string& stream,
                       uint64_t logical_offset, size_t* failed_removals) {
  namespace fs = std::filesystem;
  const auto segments = ListSegments(dir, stream);
  bool delete_rest = false;
  const auto remove_counted = [failed_removals](const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec && failed_removals != nullptr) ++*failed_removals;
  };
  for (const auto& [index, path] : segments) {
    if (delete_rest) {
      remove_counted(path);
      continue;
    }
    std::string bytes;
    std::string io_error;
    WalSegmentInfo info;
    if (!ReadFileBytes(path, bytes, io_error) ||
        !ParseSegmentHeader(bytes, info)) {
      // Unreadable header: nothing past this point is recoverable.
      remove_counted(path);
      delete_rest = true;
      continue;
    }
    const uint64_t end = info.base_offset + bytes.size();
    if (info.base_offset >= logical_offset) {
      remove_counted(path);
      delete_rest = true;
    } else if (end > logical_offset) {
      const uint64_t keep = logical_offset - info.base_offset;
      if (keep < kWalHeaderSize) {
        remove_counted(path);
      } else {
        std::error_code ec;
        fs::resize_file(path, keep, ec);
        if (ec) {
          throw Error("wal: cannot truncate " + path + ": " + ec.message());
        }
      }
      delete_rest = true;
    }
  }
}

WalPruneStats PruneWalSegments(const std::string& dir,
                               const std::string& stream,
                               uint64_t floor_offset, int retain_segments) {
  namespace fs = std::filesystem;
  WalPruneStats stats;
  if (retain_segments < 0) return stats;  // Retention disabled.
  const auto segments = ListSegments(dir, stream);
  if (segments.size() <= 1) return stats;  // Never touch the newest segment.

  // The prunable prefix: consecutive leading segments wholly below the
  // committed floor. Stop at the first segment recovery might need.
  std::vector<std::pair<std::string, uint64_t>> prunable;  // (path, bytes)
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    const auto& [index, path] = segments[i];
    std::string bytes;
    std::string io_error;
    WalSegmentInfo info;
    if (!ReadFileBytes(path, bytes, io_error) ||
        !ParseSegmentHeader(bytes, info)) {
      break;  // Unreadable header: leave it for recovery to judge.
    }
    if (info.base_offset + bytes.size() > floor_offset) break;
    prunable.emplace_back(path, bytes.size());
  }
  if (prunable.size() <= static_cast<size_t>(retain_segments)) return stats;

  // Oldest first, so an interrupted prune leaves a removed prefix plus
  // a contiguous remainder (never a mid-chain hole).
  const size_t remove_count =
      prunable.size() - static_cast<size_t>(retain_segments);
  for (size_t i = 0; i < remove_count; ++i) {
    std::error_code ec;
    common::FailpointHit hit;
    if (DAMOCLES_FAILPOINT("wal.prune", &hit)) {
      throw WalIoError("wal: prune failed on " + prunable[i].first +
                       ": injected failure (failpoint wal.prune)");
    }
    if (fs::remove(prunable[i].first, ec)) {
      ++stats.segments_removed;
      stats.bytes_removed += prunable[i].second;
    } else if (ec) {
      ++stats.failed_removals;
    }
  }
  return stats;
}

WalPruneStats RemoveOrphanedWalPrefix(const std::string& dir,
                                      const std::string& stream) {
  namespace fs = std::filesystem;
  WalPruneStats stats;
  const auto segments = ListSegments(dir, stream);
  if (segments.size() <= 1) return stats;

  // Find the last forward gap in the chain; everything below it is the
  // orphaned prefix ReadWalStream's gap handling already skips.
  size_t first_reachable = 0;
  uint64_t expected_end = 0;
  bool have_end = false;
  std::vector<uint64_t> sizes(segments.size(), 0);
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [index, path] = segments[i];
    std::string bytes;
    std::string io_error;
    WalSegmentInfo info;
    if (!ReadFileBytes(path, bytes, io_error) ||
        !ParseSegmentHeader(bytes, info)) {
      break;  // Torn tail territory: recovery's truncation owns it.
    }
    sizes[i] = bytes.size();
    if (have_end && info.base_offset > expected_end) first_reachable = i;
    expected_end = info.base_offset + bytes.size();
    have_end = true;
  }
  for (size_t i = 0; i < first_reachable; ++i) {
    std::error_code ec;
    if (fs::remove(segments[i].second, ec)) {
      ++stats.segments_removed;
      stats.bytes_removed += sizes[i];
    } else if (ec) {
      ++stats.failed_removals;
    }
  }
  return stats;
}

std::string FormatWalInspection(const std::string& dir, bool* any_torn) {
  if (any_torn != nullptr) *any_torn = false;
  std::string out = "wal directory: " + dir + "\n";
  const std::vector<std::string> streams = ListWalStreams(dir);
  if (streams.empty()) {
    out += "  (no streams)\n";
    return out;
  }
  for (const std::string& stream : streams) {
    const WalStreamData data = ReadWalStream(dir, stream);
    if (data.torn && any_torn != nullptr) *any_torn = true;
    out += "stream \"" + stream + "\": " +
           std::to_string(data.segments.size()) +
           " segment(s), valid through offset " +
           std::to_string(data.valid_end);
    out += data.torn ? " (TORN)\n" : "\n";
    for (const WalSegmentInfo& info : data.segments) {
      out += "  " + std::filesystem::path(info.path).filename().string() + ": ";
      if (!info.header_valid) {
        out += "INVALID HEADER (" + info.error + ")\n";
        continue;
      }
      out += "v" + std::to_string(info.version) + " shard " +
             std::to_string(info.shard_id) + " base " +
             std::to_string(info.base_offset) + " epoch-floor " +
             std::to_string(info.epoch_floor) + ", " +
             std::to_string(info.valid_bytes) + "/" +
             std::to_string(info.file_bytes) + " bytes, " +
             std::to_string(info.records) + " record(s), " +
             std::to_string(info.symbols) + " symbol(s)";
      if (info.torn) {
        // The physical offset where the intact prefix ends — the torn
        // tail begins at this byte of the segment file.
        out += " — TORN: " + info.error + " (torn tail at byte " +
               std::to_string(info.valid_bytes) + ")";
      } else if (!info.error.empty()) {
        out += " — " + info.error;
      } else {
        out += " — ok";
      }
      out += "\n";
    }
    out += "  rows " + std::to_string(data.rows.size()) + ", resets " +
           std::to_string(data.resets.size()) + ", ops " +
           std::to_string(data.ops.size()) + "\n";
  }
  return out;
}

namespace {

/// Minimal JSON string escaper — stream names and error messages only
/// contain text we generate, but a hostile segment error must not break
/// the document.
std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

const char* JsonBool(bool value) { return value ? "true" : "false"; }

}  // namespace

std::string FormatWalInspectionJson(const std::string& dir, bool* any_torn) {
  bool torn_somewhere = false;
  std::string out = "{\"dir\": " + JsonQuote(dir) + ", \"streams\": [";
  const std::vector<std::string> streams = ListWalStreams(dir);
  for (size_t s = 0; s < streams.size(); ++s) {
    const WalStreamData data = ReadWalStream(dir, streams[s]);
    if (data.torn) torn_somewhere = true;
    if (s != 0) out += ", ";
    out += "{\"name\": " + JsonQuote(streams[s]) +
           ", \"valid_end\": " + std::to_string(data.valid_end) +
           ", \"torn\": " + JsonBool(data.torn) +
           ", \"error\": " + JsonQuote(data.error) +
           ", \"rows\": " + std::to_string(data.rows.size()) +
           ", \"resets\": " + std::to_string(data.resets.size()) +
           ", \"ops\": " + std::to_string(data.ops.size()) +
           ", \"segments\": [";
    for (size_t i = 0; i < data.segments.size(); ++i) {
      const WalSegmentInfo& info = data.segments[i];
      if (i != 0) out += ", ";
      out += "{\"file\": " +
             JsonQuote(std::filesystem::path(info.path).filename().string()) +
             ", \"index\": " + std::to_string(info.index) +
             ", \"version\": " + std::to_string(info.version) +
             ", \"shard\": " + std::to_string(info.shard_id) +
             ", \"base_offset\": " + std::to_string(info.base_offset) +
             ", \"epoch_floor\": " + std::to_string(info.epoch_floor) +
             ", \"file_bytes\": " + std::to_string(info.file_bytes) +
             ", \"valid_bytes\": " + std::to_string(info.valid_bytes) +
             ", \"records\": " + std::to_string(info.records) +
             ", \"symbols\": " + std::to_string(info.symbols) +
             ", \"header_valid\": " + JsonBool(info.header_valid) +
             ", \"torn\": " + JsonBool(info.torn);
      if (info.torn) {
        // Same convention as the text report: the torn tail begins at
        // the first byte past the intact record prefix.
        out += ", \"torn_offset\": " + std::to_string(info.valid_bytes);
      }
      out += ", \"error\": " + JsonQuote(info.error) + "}";
    }
    out += "]}";
  }
  out += "], \"torn\": ";
  out += JsonBool(torn_somewhere);
  out += "}\n";
  if (any_torn != nullptr) *any_torn = torn_somewhere;
  return out;
}

}  // namespace damocles::events
