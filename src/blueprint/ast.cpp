#include "blueprint/ast.hpp"

namespace damocles::blueprint {

ViewTemplate ViewTemplate::Clone() const {
  ViewTemplate copy;
  copy.name = name;
  copy.properties = properties;
  copy.links = links;
  copy.assignments.reserve(assignments.size());
  for (const ContinuousAssignment& assignment : assignments) {
    copy.assignments.push_back(assignment.Clone());
  }
  copy.rules = rules;
  return copy;
}

Blueprint Blueprint::Clone() const {
  Blueprint copy;
  copy.name = name;
  copy.views.reserve(views.size());
  for (const ViewTemplate& view : views) copy.views.push_back(view.Clone());
  return copy;
}

const PropertyTemplate* ViewTemplate::FindProperty(
    std::string_view property_name) const {
  for (const PropertyTemplate& property : properties) {
    if (property.name == property_name) return &property;
  }
  return nullptr;
}

const ViewTemplate* Blueprint::FindView(std::string_view view_name) const {
  for (const ViewTemplate& view : views) {
    if (view.name == view_name) return &view;
  }
  return nullptr;
}

const ViewTemplate* Blueprint::DefaultView() const {
  return FindView(kDefaultViewName);
}

const LinkTemplate* Blueprint::FindLinkTemplate(metadb::LinkKind kind,
                                               std::string_view from_view,
                                               std::string_view to_view) const {
  const ViewTemplate* sources[2] = {FindView(to_view), DefaultView()};
  for (const ViewTemplate* source : sources) {
    if (source == nullptr) continue;
    for (const LinkTemplate& candidate : source->links) {
      if (candidate.kind != kind) continue;
      if (kind == metadb::LinkKind::kUse) return &candidate;
      if (candidate.from_view == from_view) return &candidate;
    }
  }
  return nullptr;
}

}  // namespace damocles::blueprint
