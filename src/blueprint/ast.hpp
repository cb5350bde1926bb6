// Abstract syntax of a parsed project BluePrint.
//
// Two rule classes, per paper §3.2: template rules (configuration
// information — properties, links, continuous assignments per view) and
// run-time rules (when <event> do <actions> done).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "blueprint/expr.hpp"
#include "blueprint/string_template.hpp"
#include "events/event.hpp"
#include "metadb/link.hpp"

namespace damocles::blueprint {

/// Template rule: a property attached to every new OID of a view.
/// `carry` says where the initial value of a non-first version comes
/// from (paper Fig. 2: "property DRC default bad copy").
struct PropertyTemplate {
  std::string name;
  std::string default_value;
  metadb::CarryPolicy carry = metadb::CarryPolicy::kNone;
};

/// Template rule: a link expected between views. Use links stay within
/// one view type and have an empty `from_view` (paper §3.2: "the use
/// link does not specify a parent view name").
struct LinkTemplate {
  metadb::LinkKind kind = metadb::LinkKind::kDerive;
  std::string from_view;  ///< Source view name; empty for use links.
  std::vector<std::string> propagates;  ///< PROPAGATE property content.
  std::string type;                     ///< TYPE property content.
  metadb::CarryPolicy carry = metadb::CarryPolicy::kNone;
};

/// Template rule: `let <property> = <expr>` — continuously re-evaluated.
struct ContinuousAssignment {
  std::string property;
  Expr expr;

  ContinuousAssignment(std::string property_name, Expr expression)
      : property(std::move(property_name)), expr(std::move(expression)) {}
  ContinuousAssignment(ContinuousAssignment&&) noexcept = default;
  ContinuousAssignment& operator=(ContinuousAssignment&&) noexcept = default;
  ContinuousAssignment Clone() const {
    return ContinuousAssignment(property, expr.Clone());
  }
};

/// Run-time action: `<property> = <value>`.
struct ActionAssign {
  std::string property;
  StringTemplate value;
};

/// Run-time action: `exec <script> [args...]`.
struct ActionExec {
  StringTemplate script;
  std::vector<StringTemplate> args;
};

/// Run-time action: `notify "<message>"`.
struct ActionNotify {
  StringTemplate message;
};

/// Run-time action: `post <event> up|down [to <View>] ["arg"]`.
struct ActionPost {
  std::string event;
  events::Direction direction = events::Direction::kDown;
  std::string to_view;  ///< Empty = propagate from the current OID.
  StringTemplate arg;
};

using Action = std::variant<ActionAssign, ActionExec, ActionNotify,
                            ActionPost>;

/// Run-time rule: `when <event> do <action>; ... done`.
struct RuntimeRule {
  std::string event;
  std::vector<Action> actions;
};

/// Everything declared for one view.
struct ViewTemplate {
  std::string name;
  std::vector<PropertyTemplate> properties;
  std::vector<LinkTemplate> links;
  std::vector<ContinuousAssignment> assignments;
  std::vector<RuntimeRule> rules;

  ViewTemplate() = default;
  ViewTemplate(ViewTemplate&&) noexcept = default;
  ViewTemplate& operator=(ViewTemplate&&) noexcept = default;
  ViewTemplate(const ViewTemplate&) = delete;
  ViewTemplate& operator=(const ViewTemplate&) = delete;

  /// Deep copy (assignments hold move-only expression trees, so copying
  /// is explicit; the sharded engine clones one blueprint per shard).
  ViewTemplate Clone() const;

  const PropertyTemplate* FindProperty(std::string_view property_name) const;
};

/// A complete parsed blueprint. The view named "default" (if present)
/// applies to all views (paper §3.4: "these two rules are added ... to
/// the special default view which applies to all the views").
struct Blueprint {
  std::string name;
  std::vector<ViewTemplate> views;

  Blueprint() = default;
  Blueprint(Blueprint&&) noexcept = default;
  Blueprint& operator=(Blueprint&&) noexcept = default;
  Blueprint(const Blueprint&) = delete;
  Blueprint& operator=(const Blueprint&) = delete;

  /// Deep copy; see ViewTemplate::Clone.
  Blueprint Clone() const;

  static constexpr const char* kDefaultViewName = "default";

  /// The template for `view_name`, or nullptr when the blueprint does
  /// not track that view.
  const ViewTemplate* FindView(std::string_view view_name) const;

  /// The special default view, or nullptr if none was declared.
  const ViewTemplate* DefaultView() const;

  /// True when `view_name` is tracked (has its own template).
  bool Tracks(std::string_view view_name) const {
    return FindView(view_name) != nullptr;
  }

  /// The link template a new `kind` link from a `from_view` OID to a
  /// `to_view` OID takes, or nullptr. link_from templates live in the
  /// *target* view, use_link templates in the shared view of both
  /// endpoints; the specific view is searched first, then the default.
  const LinkTemplate* FindLinkTemplate(metadb::LinkKind kind,
                                       std::string_view from_view,
                                       std::string_view to_view) const;
};

}  // namespace damocles::blueprint
