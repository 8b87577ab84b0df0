#pragma once

/// \file diagnostics.h
/// Diagnostics primitives of the static verifier (`holmes_verify`).
///
/// A lint pass produces a LintReport: an ordered list of Diagnostics, each
/// carrying a stable rule id ("HV101"), a severity, a *subject* attributing
/// the finding to a concrete entity (a parallel group "dp3", a task
/// "task 42 'bwd'", a resource "gpu0.compute", a channel "dp0"), and a
/// human-readable message. Reports from several passes merge; the final
/// verdict is pass unless at least one error-severity diagnostic fired.
///
/// Output comes in two forms mirroring the observability subsystem's
/// conventions: a text rendering for terminals and a byte-stable JSON
/// document (`holmes.lint_report.v1`) for CI and tooling.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/build_info.h"

namespace holmes::verify {

/// Diagnostics a rule emits before it only counts further findings: the
/// first violations are the informative ones, and a broken 100k-task graph
/// should not produce 100k diagnostics.
inline constexpr std::size_t kMaxDiagnosticsPerRule = 8;

enum class Severity {
  kNote = 0,     ///< informational; never affects the verdict
  kWarning = 1,  ///< suspicious but possibly deliberate (baselines, ablations)
  kError = 2,    ///< invariant violated; simulation results would be wrong
};

std::string to_string(Severity severity);

struct Diagnostic {
  std::string rule;     ///< stable rule id, e.g. "HV101"
  Severity severity = Severity::kNote;
  std::string subject;  ///< offending entity, e.g. "dp3" or "task 42 'bwd'"
  std::string message;  ///< explanation, one sentence
};

/// Accumulates diagnostics plus the set of rules that actually ran (a rule
/// that could not run for lack of inputs — e.g. a partition lint on a plan
/// with no partition — is *not* marked checked, so consumers can tell
/// "clean" from "not examined").
class LintReport {
 public:
  void add(std::string rule, Severity severity, std::string subject,
           std::string message);

  /// Records that `rule` was evaluated (idempotent).
  void mark_checked(std::string rule);

  /// Appends another report's diagnostics and checked-rule set.
  void merge(const LintReport& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  const std::vector<std::string>& rules_checked() const { return checked_; }

  std::size_t count(Severity severity) const;
  /// True when no error-severity diagnostic fired.
  bool ok() const { return count(Severity::kError) == 0; }
  /// True when no diagnostic of any severity fired.
  bool clean() const { return diagnostics_.empty(); }
  /// True when at least one diagnostic of `rule` fired.
  bool fired(std::string_view rule) const;

  /// Strict mode: every warning becomes an error (CI walls, `lint --strict`).
  void promote_warnings();

 private:
  std::vector<Diagnostic> diagnostics_;
  std::vector<std::string> checked_;
};

/// Renders the report for terminals: one line per diagnostic plus a summary
/// line ("checked 16 rules: 1 error, 2 warnings, 0 notes").
void print_text(std::ostream& out, const LintReport& report);

inline constexpr const char* kLintReportSchema = "holmes.lint_report.v1";

/// Writes the report as a single stable JSON object (no trailing newline):
/// schema, verdict, severity counts, the checked-rule list, and every
/// diagnostic in firing order. Keys are emitted in fixed order so output is
/// byte-stable for fixed inputs.
void write_json(std::ostream& out, const LintReport& report);

/// Same document stamped with the build fingerprint right after "schema",
/// matching `holmes.bench_suite.v1` — this is what `holmes_cli lint --json`
/// emits, so a CI lint artifact records what binary produced it. The
/// unstamped overload stays for byte-stable golden tests.
void write_json(std::ostream& out, const LintReport& report,
                const BuildInfo& fingerprint);

}  // namespace holmes::verify
