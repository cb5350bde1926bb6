// Link objects: the typed, annotated relations between meta-objects.
//
// Paper §2: "The relationship between the design objects are represented
// in the meta-database by Links. ... DAMOCLES distinguishes between two
// classes of Links: use links which represent hierarchy and derive links
// which represent other relationships."  Each Link carries a PROPAGATE
// property enumerating the events allowed through it.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metadb/ids.hpp"

namespace damocles::metadb {

/// The two classes of links the paper distinguishes.
enum class LinkKind {
  kUse,     ///< Hierarchy within one view type (parent -> component).
  kDerive,  ///< Any other relation (derivation, equivalence, ...).
};

/// What happens to a link instance when a new version of an endpoint
/// OID is created (paper Fig. 3: the "move" keyword shifts the link from
/// the old version to the new version).
enum class CarryPolicy {
  kNone,  ///< The link stays on the old version.
  kCopy,  ///< A duplicate link is attached to the new version.
  kMove,  ///< The link is shifted to the new version.
};

const char* LinkKindName(LinkKind kind) noexcept;
const char* CarryPolicyName(CarryPolicy policy) noexcept;

/// A directed, annotated relation `from -> to`.
///
/// Orientation follows the blueprint declaration: `link_from X ... `
/// inside `view Y` creates links X -> Y, and a use link points from the
/// hierarchical parent to the component. Event direction `down` travels
/// along the orientation, `up` against it.
struct Link {
  LinkKind kind = LinkKind::kDerive;
  OidId from;  ///< Source endpoint (parent / origin view).
  OidId to;    ///< Target endpoint (child / derived view).

  /// The PROPAGATE property: event names allowed through this link.
  std::vector<std::string> propagates;

  /// The TYPE property of derive links ("composition", "equivalence",
  /// "depend_on", "derive_from", ...). Informational only — "link types
  /// are, in a way, like comments" (paper §3.2).
  std::string type;

  /// Version-carry behaviour of this link instance.
  CarryPolicy carry = CarryPolicy::kNone;

  /// Free-form property/value annotations beyond PROPAGATE and TYPE.
  std::map<std::string, std::string> properties;

  bool alive = true;

  /// True if `event` is allowed to propagate through this link.
  bool Propagates(std::string_view event) const {
    return std::find(propagates.begin(), propagates.end(), event) !=
           propagates.end();
  }
};

}  // namespace damocles::metadb
