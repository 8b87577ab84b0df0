#pragma once

/// \file preflight.h
/// Adapter between the planning layer and the static verifier.
///
/// `holmes_verify` deliberately layers below `core` (it knows nothing about
/// TrainingPlan or SimArtifacts); this module owns the downward mapping:
///
///  - make_plan_view   — TrainingPlan -> verify::PlanView (non-owning; the
///                       plan must outlive the view)
///  - lint_training_plan — run the HV1xx plan rules against a resolved plan
///  - lint_artifacts   — run the HV2xx graph rules (and, when timings are
///                       present, the HV3xx execution and HV4xx flow rules)
///                       against the artifacts a TrainingSimulator::run left
///                       behind
///  - make_flow_options — derive the HV4xx options from a topology: the
///                       resource -> cluster map (each resource's owning
///                       node, from the run's net::PortMap) that the
///                       channel-cut-balance rule needs
///
/// The simulator never lints: `holmes_cli lint` is the one place a plan is
/// linted, and what a run produces does not depend on the log level.

#include "core/training_sim.h"
#include "net/topology.h"
#include "verify/flow_lints.h"
#include "verify/graph_lints.h"
#include "verify/plan_lints.h"

namespace holmes::core {

/// Builds the verifier's non-owning view of `plan`. The returned view
/// borrows `plan`'s groups/partition/stage_nics/model; `plan` must outlive
/// it.
verify::PlanView make_plan_view(const TrainingPlan& plan);

/// Runs every plan-family (HV1xx) rule against `plan` on `topo`.
verify::LintReport lint_training_plan(const net::Topology& topo,
                                      const TrainingPlan& plan);

/// Runs the graph-family (HV2xx) rules against `artifacts.graph`, using the
/// rank -> compute-resource map as the serial programs for the deadlock
/// rule, and — when `artifacts.result` is populated — the execution-family
/// (HV3xx) and flow-family (HV4xx) rules against the timings. `topo`, when
/// non-null, enables the cluster-aware flow rules (HV404) via
/// make_flow_options.
verify::LintReport lint_artifacts(const SimArtifacts& artifacts,
                                  const net::Topology* topo = nullptr);

/// Builds the HV4xx flow-lint options for `artifacts.graph` on `topo`:
/// resolves every resource to the cluster of the node that owns it
/// (`artifacts.ports`); a resource the map did not register stays -1
/// (excluded from HV404).
verify::FlowLintOptions make_flow_options(const SimArtifacts& artifacts,
                                          const net::Topology& topo);

}  // namespace holmes::core
