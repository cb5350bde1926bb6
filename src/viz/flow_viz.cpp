#include "viz/flow_viz.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/strings.hpp"

namespace damocles::viz {

using metadb::Link;
using metadb::LinkId;
using metadb::LinkKind;
using metadb::MetaObject;
using metadb::OidId;

std::string RenderFlowDiagram(const blueprint::Blueprint& bp) {
  std::string text = "flow '" + bp.name + "'\n";
  for (const blueprint::ViewTemplate& view : bp.views) {
    if (view.name == blueprint::Blueprint::kDefaultViewName) continue;
    text += "  [" + view.name + "]\n";
    for (const blueprint::PropertyTemplate& property : view.properties) {
      text += "      . " + property.name + " (default '" +
              property.default_value + "')\n";
    }
    for (const blueprint::ContinuousAssignment& assignment :
         view.assignments) {
      text += "      . " + assignment.property + " = " +
              assignment.expr.ToSource() + "\n";
    }
    for (const blueprint::LinkTemplate& link : view.links) {
      if (link.kind == LinkKind::kUse) {
        text += "      <hierarchy> use_link propagates " +
                Join(link.propagates, ", ") + "\n";
      } else {
        text += "      <-- " + link.from_view;
        if (!link.type.empty()) text += " (" + link.type + ")";
        text += " propagates " + Join(link.propagates, ", ") + "\n";
      }
    }
    for (const blueprint::RuntimeRule& rule : view.rules) {
      text += "      on " + rule.event + ": " +
              std::to_string(rule.actions.size()) + " action(s)\n";
    }
  }
  const blueprint::ViewTemplate* default_view = bp.DefaultView();
  if (default_view != nullptr) {
    text += "  [*] default view: " +
            std::to_string(default_view->properties.size()) +
            " propert(ies), " + std::to_string(default_view->rules.size()) +
            " rule(s) applied to every view\n";
  }
  return text;
}

std::string RenderBlockState(const metadb::Snapshot& snapshot,
                             std::string_view block) {
  const metadb::MetaDatabase& db = snapshot.db();
  // Collect the latest version of every view this block has.
  std::map<std::string, OidId> latest;
  db.ForEachObject([&](OidId id, const MetaObject& object) {
    if (db.BlockOf(object) != block) return;
    const auto it = latest.find(db.ViewOf(object));
    if (it == latest.end() ||
        db.GetObject(it->second).version < object.version) {
      latest[db.ViewOf(object)] = id;
    }
  });

  std::string text = "block '" + std::string(block) + "'\n";
  if (latest.empty()) {
    text += "  (no tracked data)\n";
    return text;
  }
  for (const auto& [view, id] : latest) {
    const MetaObject& object = db.GetObject(id);
    const std::string uptodate = db.PropertyOr(object, "uptodate", "-");
    const std::string state = db.PropertyOr(object, "state", "-");
    text += "  [" + view + "] v" + std::to_string(object.version) +
            "  uptodate=" + uptodate + " state=" + state + "\n";
    for (const metadb::Property& property : object.properties) {
      const std::string& name = db.SymbolText(property.name);
      if (name == "uptodate" || name == "state") continue;
      text += "      . " + name + " = '" + property.value + "'\n";
    }
    for (const LinkId link_id : db.InLinks(id)) {
      const Link& link = db.GetLink(link_id);
      text += "      <-- " + FormatOid(db.OidOf(link.from));
      if (!link.type.empty()) text += " (" + link.type + ")";
      text += "\n";
    }
  }
  return text;
}

std::string RenderBlockState(const metadb::MetaDatabase& db,
                             std::string_view block) {
  return RenderBlockState(metadb::Snapshot::Live(db), block);
}

namespace {

std::string DotId(const metadb::Oid& oid) {
  std::string id = oid.block + "__" + oid.view + "__" +
                   std::to_string(oid.version);
  for (char& c : id) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
  }
  return id;
}

std::string DotEscape(const std::string& text) {
  return ReplaceAll(text, "\"", "\\\"");
}

}  // namespace

std::string ExportDot(const metadb::Snapshot& snapshot,
                      const DotOptions& options) {
  const metadb::MetaDatabase& db = snapshot.db();
  // Select the nodes.
  std::set<uint32_t> included;
  if (options.latest_only) {
    std::map<std::string, OidId> latest;
    db.ForEachObject([&](OidId id, const MetaObject& object) {
      std::string key = db.BlockOf(object);
      key.push_back('\0');
      key += db.ViewOf(object);
      const auto it = latest.find(key);
      if (it == latest.end() ||
          db.GetObject(it->second).version < object.version) {
        latest[key] = id;
      }
    });
    for (const auto& [key, id] : latest) included.insert(id.value());
  } else {
    db.ForEachObject(
        [&](OidId id, const MetaObject&) { included.insert(id.value()); });
  }

  std::string dot = "digraph damocles {\n  rankdir=LR;\n"
                    "  node [shape=box, fontname=\"monospace\"];\n";
  db.ForEachObject([&](OidId id, const MetaObject& object) {
    if (!included.contains(id.value())) return;
    std::string color = "lightgrey";
    if (options.color_by_state) {
      const std::string uptodate = db.PropertyOr(object, "uptodate", "");
      if (uptodate == "true") color = "palegreen";
      if (uptodate == "false") color = "lightcoral";
    }
    const metadb::Oid oid = db.OidOf(object);
    dot += "  " + DotId(oid) + " [label=\"" + DotEscape(FormatOid(oid)) +
           "\", style=filled, fillcolor=" + color + "];\n";
  });
  db.ForEachLink([&](LinkId, const Link& link) {
    if (!included.contains(link.from.value()) ||
        !included.contains(link.to.value())) {
      return;
    }
    dot += "  " + DotId(db.OidOf(link.from)) + " -> " +
           DotId(db.OidOf(link.to));
    std::string attrs;
    if (link.kind == LinkKind::kUse) attrs += "style=dashed";
    if (options.label_links) {
      if (!attrs.empty()) attrs += ", ";
      std::string label = link.type;
      if (!link.propagates.empty()) {
        if (!label.empty()) label += "\\n";
        label += Join(link.propagates, ",");
      }
      attrs += "label=\"" + DotEscape(label) + "\"";
    }
    if (!attrs.empty()) dot += " [" + attrs + "]";
    dot += ";\n";
  });
  dot += "}\n";
  return dot;
}

std::string ExportDot(const metadb::MetaDatabase& db,
                      const DotOptions& options) {
  return ExportDot(metadb::Snapshot::Live(db), options);
}

}  // namespace damocles::viz
