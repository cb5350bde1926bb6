// Compiled run-time rule tables: how the engine matches rules.
//
// Matching rules by walking the default view's rule list plus the
// target view's, comparing event-name strings, costs three scans per
// delivery (one per rule phase); on large blueprints that would be the
// dominant non-propagation cost of a wave.
//
// CompiledRules flattens the blueprint once, at install time, into
// phase-partitioned action lists keyed by (view SymbolId, event
// SymbolId): for every tracked view and every event either the default
// view or that view reacts to, one RuleSet holds the assign actions
// (phase 1), the exec/notify actions (phase 3, relative order preserved)
// and the post actions (phase 4, posted-event names pre-interned) — with
// the default view's actions prepended, i.e. default-view rules first,
// then the view's own, in declaration order. Untracked views resolve to
// a default-view-only table. A delivery then costs one Resolve (cached
// per OID by the engine) plus one integer-hash Find.
//
// RuleSets hold pointers into the Blueprint that was compiled; the
// engine recompiles whenever it installs a blueprint. Every name the
// tables key on — views, events, posted events, written properties —
// resolves at compile time through one caller-supplied symbol function
// (the engine passes the meta-database's interner), so the tables share
// the database's symbol space and a delivery never hashes a name.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blueprint/ast.hpp"
#include "common/symbol.hpp"

namespace damocles::blueprint {

class CompiledRules {
 public:
  /// A post action with its posted-event name pre-interned, so starting
  /// the sub-wave needs no string hashing.
  struct CompiledPost {
    const ActionPost* action = nullptr;
    SymbolId event_sym = SymbolTable::kNoSymbol;
  };

  /// An assignment with its property name resolved by Compile's symbol
  /// function.
  template <typename Assignment>
  struct Resolved {
    const Assignment* action = nullptr;
    SymbolId property = SymbolTable::kNoSymbol;
  };
  using CompiledAssign = Resolved<ActionAssign>;
  using CompiledAssignment = Resolved<ContinuousAssignment>;

  /// Resolves a name to its (database) symbol, interning it if new.
  using Symbols = std::function<SymbolId(std::string_view)>;

  /// Phase-partitioned actions for one (view, event) pair. Default-view
  /// rules come first, then the specific view's, preserving rule and
  /// action order within each.
  struct RuleSet {
    std::vector<CompiledAssign> assigns;           ///< Phase 1.
    std::vector<const Action*> execs_and_notifies; ///< Phase 3 (exec|notify).
    std::vector<CompiledPost> posts;               ///< Phase 4.
  };

  /// A view name resolved against the compiled blueprint. Valid until
  /// the next Compile; the engine caches one per OID, tagged with
  /// generation().
  struct Binding {
    /// Key for Find: the view's own symbol when the blueprint tracks
    /// the view, kNoSymbol to use the default-view-only tables.
    SymbolId rule_view = SymbolTable::kNoSymbol;
    /// Continuous assignments to re-evaluate at OIDs of the view
    /// (default view's first, then the view's own).
    const std::vector<CompiledAssignment>* assignments = nullptr;
  };

  /// Flattens `blueprint` into the tables, resolving every view, event
  /// and assigned property name through `symbol`. Link-template
  /// PROPAGATE names go through `symbol` too, although no table keys on
  /// them: a templated link then never needs a new symbol mid-wave.
  /// Pointers into `blueprint` are kept; it must outlive the tables
  /// (the engine recompiles on install).
  /// `source_version` stamps the PolicyStore version the blueprint was
  /// compiled from (0 = unversioned / direct install), so every cached
  /// rule binding can be traced back to a commit-chain entry.
  void Compile(const Blueprint& blueprint, const Symbols& symbol,
               uint64_t source_version = 0);

  void Clear();

  /// Monotonic compile counter (0 = never compiled); the engine uses it
  /// to invalidate cached Bindings across blueprint reloads.
  uint32_t generation() const noexcept { return generation_; }

  /// PolicyStore version id the current tables were compiled from
  /// (0 = unversioned). Travels with generation(): a generation bump
  /// re-stamps the source version, which is how a pinned reader can
  /// name the exact policy commit its bindings came from.
  uint64_t source_version() const noexcept { return source_version_; }

  /// Resolves an interned view name to its rule tables.
  Binding Resolve(SymbolId view_sym) const;

  /// The actions for (resolved view, event), or nullptr when neither
  /// the view nor the default view reacts to the event. One
  /// integer-hash lookup.
  const RuleSet* Find(const Binding& binding, SymbolId event_sym) const {
    if (binding.rule_view == SymbolTable::kNoSymbol) {
      const auto it = default_rules_.find(event_sym);
      return it == default_rules_.end() ? nullptr : &it->second;
    }
    const auto it = rules_.find(Key(binding.rule_view, event_sym));
    return it == rules_.end() ? nullptr : &it->second;
  }

  /// Compiled (view, event) rule sets, counting the default-only table.
  size_t rule_set_count() const noexcept {
    return rules_.size() + default_rules_.size();
  }

 private:
  static constexpr uint64_t Key(SymbolId view, SymbolId event) noexcept {
    return (static_cast<uint64_t>(view) << 32) | event;
  }

  /// splitmix64 finalizer (std::hash<uint64_t> is the identity on
  /// libstdc++ and these keys are dense structured integers).
  struct KeyHash {
    size_t operator()(uint64_t key) const noexcept {
      key += 0x9e3779b97f4a7c15ull;
      key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
      key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
      return static_cast<size_t>(key ^ (key >> 31));
    }
  };

  static void AppendActions(const RuntimeRule& rule, const Symbols& symbol,
                            RuleSet& set);

  /// (view sym, event sym) -> actions, for every tracked view.
  std::unordered_map<uint64_t, RuleSet, KeyHash> rules_;
  /// event sym -> default-view actions, for untracked views.
  std::unordered_map<SymbolId, RuleSet> default_rules_;
  /// view sym -> merged continuous-assignment list, for tracked views.
  std::unordered_map<SymbolId, std::vector<CompiledAssignment>> assignments_;
  /// Default view's continuous assignments, for untracked views.
  std::vector<CompiledAssignment> default_assignments_;
  uint32_t generation_ = 0;
  uint64_t source_version_ = 0;
};

}  // namespace damocles::blueprint
