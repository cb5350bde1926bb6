// Versioned blueprint/policy store with a commit-chain lifecycle.
//
// The paper treats the project BluePrint as a static artifact the
// administrator installs once; everything around it (waves, snapshots,
// WAL, sessions) has since become versioned and concurrent. This module
// makes the blueprint itself versioned: every candidate rule file is a
// PolicyVersion moving through
//
//   propose -> validate -> promote -> (supersede | rollback)
//
// like a git-style change table with a gated promotion lifecycle.
// Promotion is what the live engines observe — the server compiles the
// promoted text through the existing compiled_rules generation counter,
// so per-OID rule bindings rebind lazily without a stop-the-world
// reload. The store itself is pure bookkeeping: it never touches an
// engine, which is what lets shadow waves trace a *proposed* version
// against a pinned snapshot without observable side effects.
//
// Thread safety: all public methods are safe to call concurrently; the
// store serializes internally. Reads hand out copies, never references,
// so a wire session inspecting a version races nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "blueprint/validator.hpp"

namespace damocles::policy {

/// Lifecycle state of one policy version. The active version is always
/// the top of the promotion stack and always kPromoted.
enum class PolicyVersionStatus : uint8_t {
  kProposed,    ///< Registered, parseable, not yet validated.
  kValidated,   ///< Passed static validation; eligible for promotion.
  kRejected,    ///< Failed static validation; terminal.
  kPromoted,    ///< The active version live engines are bound to.
  kSuperseded,  ///< Was active; a newer promotion replaced it.
  kRolledBack,  ///< Was active; explicitly rolled back.
};

const char* PolicyVersionStatusName(PolicyVersionStatus status) noexcept;

/// One entry of the commit chain.
struct PolicyVersion {
  uint64_t id = 0;      ///< Monotone from 1; never reused.
  uint64_t parent = 0;  ///< Active version at propose time (0 = none).
  std::string author;
  std::string message;
  std::string blueprint_text;
  PolicyVersionStatus status = PolicyVersionStatus::kProposed;
};

/// The versioned policy table. Mutations throw Error subclasses on
/// lifecycle violations (promote before validate, rollback past the
/// root, ...) and leave the store unchanged, so a WAL-logged operation
/// is appended only after the transition actually happened.
class PolicyStore {
 public:
  /// Registers a candidate version. Parses `blueprint_text` to reject
  /// malformed rule files at the door (throws ParseError); a proposal
  /// never mutates engine state. Returns the new version id.
  uint64_t Propose(std::string blueprint_text, std::string author,
                   std::string message);

  /// Statically validates a proposed version and records the verdict:
  /// kValidated when the report carries no errors, kRejected otherwise.
  /// Deterministic, so replaying the operation reproduces the verdict.
  /// Throws NotFoundError for unknown ids and IntegrityError when the
  /// version already moved past validation.
  blueprint::ValidationReport Validate(uint64_t id);

  /// Makes `id` the active version. Requires kValidated (first
  /// promotion) or kSuperseded/kRolledBack (re-promotion / roll
  /// forward); the previously active version becomes kSuperseded.
  /// Returns a copy of the newly active version.
  PolicyVersion Promote(uint64_t id);

  /// Reverts to the previously promoted version: the active version
  /// becomes kRolledBack, its predecessor on the promotion stack
  /// becomes active again. Throws IntegrityError when no predecessor
  /// exists (the root install cannot be rolled back).
  PolicyVersion Rollback();

  /// Registers an externally installed blueprint (the classic
  /// InitializeBlueprint path) as proposed+validated+promoted in one
  /// step, keeping the chain complete. The caller has already parsed
  /// the text; Adopt does not re-validate.
  uint64_t Adopt(std::string blueprint_text, std::string author,
                 std::string message);

  /// Id of the active version (0 before the first promotion/adoption).
  uint64_t active_id() const;

  /// Copy of one version. Throws NotFoundError for unknown ids.
  PolicyVersion Get(uint64_t id) const;

  /// Copies of every version, id order.
  std::vector<PolicyVersion> Versions() const;

  /// Promotion stack bottom-to-top; the top is the active version.
  std::vector<uint64_t> PromotedChain() const;

  size_t size() const;

  /// Blueprint text of the active version ("" before the first).
  std::string ActiveBlueprintText() const;

  /// Serializes the full table (next id, promotion stack, every
  /// version) to the checkpoint text format; RestoreFromText is the
  /// exact inverse.
  std::string SerializeText() const;

  /// Replaces the store's contents from SerializeText output. Throws
  /// WireFormatError on malformed input, leaving the store unchanged.
  void RestoreFromText(std::string_view text);

 private:
  PolicyVersion& Locate(uint64_t id);

  mutable std::mutex mutex_;
  std::vector<PolicyVersion> versions_;  ///< Id order (id = index + 1).
  std::vector<uint64_t> promoted_stack_;
  uint64_t next_id_ = 1;
};

}  // namespace damocles::policy
