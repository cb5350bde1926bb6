// Synthetic design-object workload generators.
//
// The paper evaluates on real Motorola projects we cannot have, so
// every bench runs on synthesized
// workloads: block hierarchies, multi-view flow graphs and stochastic
// design-session traces, all seeded and deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/project_server.hpp"

namespace damocles::workload {

// --- Hierarchies -------------------------------------------------------------

/// Shape of a generated block hierarchy (a full `fanout`-ary tree of
/// the given depth; depth 0 = a single block).
struct HierarchySpec {
  int depth = 3;
  int fanout = 4;
  std::string view = "schematic";
  std::string root_block = "top";
};

/// A generated hierarchy, root first, in breadth-first order.
struct GeneratedHierarchy {
  std::vector<std::string> blocks;
  metadb::Oid root;
  size_t use_links = 0;
};

/// Number of blocks a spec will generate: (f^(d+1)-1)/(f-1).
size_t HierarchyBlockCount(const HierarchySpec& spec);

/// Creates one OID per block (via check-in, so templates apply) and a
/// use link from each parent to each child. The server must have a
/// blueprint whose `view` declares a use_link template if the links are
/// to propagate anything.
GeneratedHierarchy BuildHierarchy(engine::ProjectServer& server,
                                  const HierarchySpec& spec);

// --- Flow graphs ---------------------------------------------------------------

/// Shape of a generated linear design flow: view_0 -> view_1 -> ... ->
/// view_{n-1}, each derived from its predecessor.
struct FlowSpec {
  int n_views = 5;
  /// Links up to this index propagate `outofdate`; -1 = all of them.
  /// A small cutoff models the paper's "loosened" blueprint.
  int propagation_cutoff = -1;
  /// Each view gets this many scalar result properties.
  int properties_per_view = 2;
  /// Whether the default-view ckin rule posts outofdate down — the
  /// rule-level half of loosening (the cutoff is the link-level half).
  bool post_outofdate_on_ckin = true;
};

/// Names of the generated views ("view_0" ... "view_{n-1}").
std::vector<std::string> FlowViewNames(const FlowSpec& spec);

/// Emits blueprint text for the flow (with default-view uptodate rules
/// mirroring the EDTC example).
std::string MakeFlowBlueprint(const FlowSpec& spec, const std::string& name);

/// Creates one OID per view for `block` plus the chain of derive links.
/// Returns the OID of view_0 (the golden view).
metadb::Oid InstantiateFlow(engine::ProjectServer& server,
                            const FlowSpec& spec, const std::string& block);

// --- Design-session traces -----------------------------------------------------

/// Mix of a stochastic multi-designer editing session.
struct TraceSpec {
  size_t n_actions = 1000;
  uint64_t seed = 42;
  int n_designers = 4;
  double p_checkin = 0.55;   ///< Re-edit + check in a golden view.
  double p_sim_result = 0.35; ///< Post a result event on a random view.
  double p_lib_install = 0.10; ///< Install a library / source update.
  /// Seconds of simulated time between actions.
  int64_t think_time_seconds = 600;
};

/// What a generated session did (for reporting and invariants).
struct TraceStats {
  size_t checkins = 0;
  size_t result_events = 0;
  size_t installs = 0;
};

/// Runs a stochastic design session against flow instances previously
/// created with InstantiateFlow for each block in `blocks`.
TraceStats RunDesignSession(engine::ProjectServer& server,
                            const FlowSpec& flow,
                            const std::vector<std::string>& blocks,
                            const TraceSpec& trace);

}  // namespace damocles::workload
