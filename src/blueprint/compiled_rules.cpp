#include "blueprint/compiled_rules.hpp"

namespace damocles::blueprint {

void CompiledRules::Clear() {
  rules_.clear();
  default_rules_.clear();
  assignments_.clear();
  default_assignments_.clear();
}

void CompiledRules::AppendActions(const RuntimeRule& rule,
                                  const Symbols& symbol, RuleSet& set) {
  for (const Action& action : rule.actions) {
    if (const auto* assign = std::get_if<ActionAssign>(&action)) {
      set.assigns.push_back({assign, symbol(assign->property)});
    } else if (std::get_if<ActionExec>(&action) != nullptr ||
               std::get_if<ActionNotify>(&action) != nullptr) {
      // Phase 3 runs exec and notify interleaved in declaration order;
      // keeping the variant pointer preserves that order.
      set.execs_and_notifies.push_back(&action);
    } else if (const auto* post = std::get_if<ActionPost>(&action)) {
      set.posts.push_back(CompiledPost{post, symbol(post->event)});
    }
  }
}

void CompiledRules::Compile(const Blueprint& blueprint, const Symbols& symbol,
                            uint64_t source_version) {
  Clear();
  ++generation_;
  source_version_ = source_version;

  const ViewTemplate* default_view = blueprint.DefaultView();
  if (default_view != nullptr) {
    for (const ContinuousAssignment& assignment : default_view->assignments) {
      default_assignments_.push_back(
          {&assignment, symbol(assignment.property)});
    }
    for (const RuntimeRule& rule : default_view->rules) {
      AppendActions(rule, symbol, default_rules_[symbol(rule.event)]);
    }
  }

  for (const ViewTemplate& view : blueprint.views) {
    for (const LinkTemplate& link : view.links) {
      for (const std::string& event : link.propagates) symbol(event);
    }
    const SymbolId view_sym = symbol(view.name);
    if (assignments_.find(view_sym) != assignments_.end()) {
      continue;  // Duplicate view declaration: first wins, like FindView.
    }
    // Every view merges {default view, specific view} — for the
    // "default" view itself that pairs it with itself, running its
    // rules and assignments twice, as recorded journals expect.
    const ViewTemplate* sources[2] = {default_view, &view};
    std::vector<CompiledAssignment>& assignments = assignments_[view_sym];
    for (const ViewTemplate* source : sources) {
      if (source == nullptr) continue;
      for (const ContinuousAssignment& assignment : source->assignments) {
        assignments.push_back({&assignment, symbol(assignment.property)});
      }
      for (const RuntimeRule& rule : source->rules) {
        AppendActions(rule, symbol, rules_[Key(view_sym, symbol(rule.event))]);
      }
    }
  }
}

CompiledRules::Binding CompiledRules::Resolve(SymbolId view_sym) const {
  const auto it = assignments_.find(view_sym);
  if (it == assignments_.end()) {
    return Binding{SymbolTable::kNoSymbol, &default_assignments_};
  }
  return Binding{view_sym, &it->second};
}

}  // namespace damocles::blueprint
