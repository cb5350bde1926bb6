#include "policy/policy_store.hpp"

#include <utility>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace damocles::policy {

namespace {

constexpr const char* kStoreMagic = "policystore";
constexpr const char* kStoreVersion = "v1";

PolicyVersionStatus ParseStatusName(std::string_view name, size_t pos) {
  for (const PolicyVersionStatus status :
       {PolicyVersionStatus::kProposed, PolicyVersionStatus::kValidated,
        PolicyVersionStatus::kRejected, PolicyVersionStatus::kPromoted,
        PolicyVersionStatus::kSuperseded, PolicyVersionStatus::kRolledBack}) {
    if (name == PolicyVersionStatusName(status)) return status;
  }
  throw WireFormatError("policy store: unknown status '" + std::string(name) +
                        "' at offset " + std::to_string(pos));
}

/// Token cursor over the serialized store. Quoted strings may span
/// lines (QuoteString does not escape newlines), so parsing is a flat
/// token stream, not line-based.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  std::string_view Word() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    if (pos_ == start) Fail("unexpected end of input");
    return text_.substr(start, pos_ - start);
  }

  void Expect(std::string_view word) {
    const std::string_view got = Word();
    if (got != word) {
      Fail("expected '" + std::string(word) + "', got '" + std::string(got) +
           "'");
    }
  }

  uint64_t U64() {
    const std::string_view word = Word();
    uint64_t value = 0;
    for (const char c : word) {
      if (c < '0' || c > '9') Fail("expected number, got '" + std::string(word) + "'");
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    return value;
  }

  std::string Quoted() {
    SkipSpace();
    std::string out;
    if (!UnquoteString(text_, pos_, out)) Fail("expected quoted string");
    return out;
  }

  size_t pos() const noexcept { return pos_; }

  [[noreturn]] void Fail(const std::string& why) const {
    throw WireFormatError("policy store: " + why + " at offset " +
                          std::to_string(pos_));
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const char* PolicyVersionStatusName(PolicyVersionStatus status) noexcept {
  switch (status) {
    case PolicyVersionStatus::kProposed:
      return "proposed";
    case PolicyVersionStatus::kValidated:
      return "validated";
    case PolicyVersionStatus::kRejected:
      return "rejected";
    case PolicyVersionStatus::kPromoted:
      return "promoted";
    case PolicyVersionStatus::kSuperseded:
      return "superseded";
    case PolicyVersionStatus::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

uint64_t PolicyStore::Propose(std::string blueprint_text, std::string author,
                              std::string message) {
  // Parse outside the lock: rejecting malformed text must not block
  // concurrent readers, and a throw leaves the store untouched.
  blueprint::ParseBlueprint(blueprint_text);
  std::lock_guard<std::mutex> lock(mutex_);
  PolicyVersion version;
  version.id = next_id_++;
  version.parent = promoted_stack_.empty() ? 0 : promoted_stack_.back();
  version.author = std::move(author);
  version.message = std::move(message);
  version.blueprint_text = std::move(blueprint_text);
  version.status = PolicyVersionStatus::kProposed;
  versions_.push_back(std::move(version));
  return versions_.back().id;
}

blueprint::ValidationReport PolicyStore::Validate(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  PolicyVersion& version = Locate(id);
  if (version.status != PolicyVersionStatus::kProposed &&
      version.status != PolicyVersionStatus::kValidated &&
      version.status != PolicyVersionStatus::kRejected) {
    throw IntegrityError("policy version " + std::to_string(id) +
                         " is " + PolicyVersionStatusName(version.status) +
                         "; only proposed versions validate");
  }
  const blueprint::ValidationReport report =
      blueprint::ValidateBlueprint(blueprint::ParseBlueprint(
          version.blueprint_text));
  version.status = report.HasErrors() ? PolicyVersionStatus::kRejected
                                      : PolicyVersionStatus::kValidated;
  return report;
}

PolicyVersion PolicyStore::Promote(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  PolicyVersion& version = Locate(id);
  if (!promoted_stack_.empty() && promoted_stack_.back() == id) {
    throw IntegrityError("policy version " + std::to_string(id) +
                         " is already active");
  }
  switch (version.status) {
    case PolicyVersionStatus::kValidated:
    case PolicyVersionStatus::kSuperseded:
    case PolicyVersionStatus::kRolledBack:
      break;
    case PolicyVersionStatus::kProposed:
      throw IntegrityError("policy version " + std::to_string(id) +
                           " has not been validated; run policy-validate");
    case PolicyVersionStatus::kRejected:
      throw IntegrityError("policy version " + std::to_string(id) +
                           " failed validation and cannot be promoted");
    case PolicyVersionStatus::kPromoted:
      throw IntegrityError("policy version " + std::to_string(id) +
                           " is already promoted");
  }
  if (!promoted_stack_.empty()) {
    Locate(promoted_stack_.back()).status = PolicyVersionStatus::kSuperseded;
  }
  promoted_stack_.push_back(id);
  version.status = PolicyVersionStatus::kPromoted;
  return version;
}

PolicyVersion PolicyStore::Rollback() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (promoted_stack_.size() < 2) {
    throw IntegrityError(
        "policy rollback: no previously promoted version to return to");
  }
  Locate(promoted_stack_.back()).status = PolicyVersionStatus::kRolledBack;
  promoted_stack_.pop_back();
  PolicyVersion& active = Locate(promoted_stack_.back());
  active.status = PolicyVersionStatus::kPromoted;
  return active;
}

uint64_t PolicyStore::Adopt(std::string blueprint_text, std::string author,
                            std::string message) {
  std::lock_guard<std::mutex> lock(mutex_);
  PolicyVersion version;
  version.id = next_id_++;
  version.parent = promoted_stack_.empty() ? 0 : promoted_stack_.back();
  version.author = std::move(author);
  version.message = std::move(message);
  version.blueprint_text = std::move(blueprint_text);
  version.status = PolicyVersionStatus::kPromoted;
  if (!promoted_stack_.empty()) {
    Locate(promoted_stack_.back()).status = PolicyVersionStatus::kSuperseded;
  }
  versions_.push_back(std::move(version));
  promoted_stack_.push_back(versions_.back().id);
  return versions_.back().id;
}

uint64_t PolicyStore::active_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return promoted_stack_.empty() ? 0 : promoted_stack_.back();
}

PolicyVersion PolicyStore::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > versions_.size()) {
    throw NotFoundError("unknown policy version " + std::to_string(id));
  }
  return versions_[id - 1];
}

std::vector<PolicyVersion> PolicyStore::Versions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return versions_;
}

std::vector<uint64_t> PolicyStore::PromotedChain() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return promoted_stack_;
}

size_t PolicyStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return versions_.size();
}

std::string PolicyStore::ActiveBlueprintText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (promoted_stack_.empty()) return "";
  return versions_[promoted_stack_.back() - 1].blueprint_text;
}

std::string PolicyStore::SerializeText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out += kStoreMagic;
  out += ' ';
  out += kStoreVersion;
  out += '\n';
  out += "next-id " + std::to_string(next_id_) + "\n";
  out += "stack " + std::to_string(promoted_stack_.size());
  for (const uint64_t id : promoted_stack_) out += " " + std::to_string(id);
  out += '\n';
  for (const PolicyVersion& version : versions_) {
    out += "version " + std::to_string(version.id) + " " +
           std::to_string(version.parent) + " " +
           PolicyVersionStatusName(version.status) + " " +
           QuoteString(version.author) + " " + QuoteString(version.message) +
           " " + QuoteString(version.blueprint_text) + "\n";
  }
  out += "end\n";
  return out;
}

void PolicyStore::RestoreFromText(std::string_view text) {
  // Parse into locals first: a malformed dump must leave the live
  // table untouched.
  Cursor cursor(text);
  cursor.Expect(kStoreMagic);
  cursor.Expect(kStoreVersion);
  cursor.Expect("next-id");
  const uint64_t next_id = cursor.U64();
  cursor.Expect("stack");
  const uint64_t stack_size = cursor.U64();
  std::vector<uint64_t> stack;
  stack.reserve(stack_size);
  for (uint64_t i = 0; i < stack_size; ++i) stack.push_back(cursor.U64());
  std::vector<PolicyVersion> versions;
  while (true) {
    const std::string_view word = cursor.Word();
    if (word == "end") break;
    if (word != "version") {
      cursor.Fail("expected 'version' or 'end', got '" + std::string(word) +
                  "'");
    }
    PolicyVersion version;
    version.id = cursor.U64();
    version.parent = cursor.U64();
    version.status = ParseStatusName(cursor.Word(), cursor.pos());
    version.author = cursor.Quoted();
    version.message = cursor.Quoted();
    version.blueprint_text = cursor.Quoted();
    if (version.id != versions.size() + 1) {
      cursor.Fail("version ids must be dense from 1");
    }
    versions.push_back(std::move(version));
  }
  if (next_id != versions.size() + 1) {
    cursor.Fail("next-id does not match the version count");
  }
  for (const uint64_t id : stack) {
    if (id == 0 || id > versions.size()) cursor.Fail("stack id out of range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  versions_ = std::move(versions);
  promoted_stack_ = std::move(stack);
  next_id_ = next_id;
}

PolicyVersion& PolicyStore::Locate(uint64_t id) {
  if (id == 0 || id > versions_.size()) {
    throw NotFoundError("unknown policy version " + std::to_string(id));
  }
  return versions_[id - 1];
}

}  // namespace damocles::policy
