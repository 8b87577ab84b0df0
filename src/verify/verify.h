#pragma once

/// \file verify.h
/// Umbrella header for the static verifier.
///
/// `holmes_verify` is a diagnostics engine over the planning layer and the
/// simulation substrate: stable rule ids (HV1xx plan, HV2xx graph, HV3xx
/// execution, HV4xx flow), severities, source attribution to task/group/
/// link ids, and text + JSON reports. See docs/static-analysis.md for the
/// rule catalog and how to add a rule.
///
///  - verify/diagnostics.h — Diagnostic, LintReport, text/JSON writers
///  - verify/rules.h       — the rule registry (ids, families, docs)
///  - verify/plan_lints.h  — HV1xx: PlanView + lint_plan
///  - verify/graph_lints.h — HV2xx/HV3xx: lint_graph + lint_execution
///  - verify/flow_lints.h  — HV4xx: analyze_flow + lint_flow (HV405, the
///                           schedule-race check, is core/schedule_check.h)
///
/// The library layers strictly below `core`; core/preflight.h adapts a
/// core::TrainingPlan into a PlanView and a run's artifacts into the graph,
/// execution and flow passes.

#include "verify/diagnostics.h"   // IWYU pragma: export
#include "verify/flow_lints.h"    // IWYU pragma: export
#include "verify/graph_lints.h"   // IWYU pragma: export
#include "verify/plan_lints.h"    // IWYU pragma: export
#include "verify/rules.h"         // IWYU pragma: export
