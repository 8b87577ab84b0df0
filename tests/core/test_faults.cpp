#include "core/faults.h"

#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/run_stats.h"
#include "model/gpt_zoo.h"
#include "obs/timeline.h"
#include "util/error.h"
#include "util/json.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

net::Topology hybrid() { return make_environment(NicEnv::kHybrid, 4); }

/// A committed fault-plan fixture (tests/core/fixtures/<name>.fault_plan.json).
FaultPlan fixture_plan(const std::string& name) {
  std::ifstream in(std::string(HOLMES_FAULT_FIXTURE_DIR) + "/" + name +
                   ".fault_plan.json");
  EXPECT_TRUE(in) << name;
  return parse_fault_plan(std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()));
}

/// The CI fixture scenario: the first RoCE node runs compute 2x slow.
FaultPlan straggler_plan(double slowdown = 2.0) {
  FaultPlan plan;
  ComputeStraggler straggler;
  straggler.cluster = 1;
  straggler.node_in_cluster = 0;
  straggler.slowdown = slowdown;
  plan.stragglers.push_back(straggler);
  return plan;
}

// ---------------------------------------------------------------------------
// Schema round-trip
// ---------------------------------------------------------------------------

TEST(FaultPlan, JsonRoundTripsByteExactly) {
  FaultPlan plan = straggler_plan();
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 2.0;
  window.end_s = 6.5;
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  plan.node_failure = {20.0, 1, 1};
  plan.checkpoint = {1, 0.5, 2.0};
  plan.seed = 99;

  const std::string first = fault_plan_json(plan);
  const FaultPlan reparsed = parse_fault_plan(first);
  EXPECT_EQ(fault_plan_json(reparsed), first);
  EXPECT_EQ(reparsed.seed, 99u);
  ASSERT_EQ(reparsed.nic_degradation.size(), 1u);
  EXPECT_EQ(reparsed.nic_degradation[0].end_s, 6.5);
  ASSERT_EQ(reparsed.stragglers.size(), 1u);
  EXPECT_EQ(reparsed.stragglers[0].slowdown, 2.0);
  EXPECT_TRUE(reparsed.has_node_failure());
  EXPECT_EQ(reparsed.checkpoint.period_iterations, 1);
}

TEST(FaultPlan, ParseAcceptsMinimalDocumentWithDefaults) {
  const FaultPlan plan =
      parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\"}");
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_node_failure());
  EXPECT_EQ(plan.seed, 0x5EEDu);
}

TEST(FaultPlan, ParseRejectsWrongSchemaAndUnknownKeys) {
  EXPECT_THROW(parse_fault_plan("{\"schema\":\"holmes.fault_plan.v2\"}"),
               ConfigError);
  EXPECT_THROW(parse_fault_plan("{}"), ConfigError);
  EXPECT_THROW(parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\","
                                "\"stragglerz\":[]}"),
               ConfigError);
  EXPECT_THROW(
      parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\","
                       "\"stragglers\":[{\"slowdwn\":2}]}"),
      ConfigError);
}

/// Every number of a plan in the order fault_plan_json writes it, with its
/// key path and whether the schema wants a whole number there.
struct NumericField {
  std::string path;
  double value = 0;
  bool whole = false;
};

std::vector<NumericField> numeric_fields(const FaultPlan& plan) {
  std::vector<NumericField> fields;
  auto add = [&](std::string path, double value, bool whole) {
    fields.push_back({std::move(path), value, whole});
  };
  add("seed", static_cast<double>(plan.seed), true);
  for (std::size_t i = 0; i < plan.nic_degradation.size(); ++i) {
    const NicDegradation& w = plan.nic_degradation[i];
    const std::string at = "nic_degradation[" + std::to_string(i) + "].";
    add(at + "cluster", w.cluster, true);
    add(at + "node_in_cluster", w.node_in_cluster, true);
    add(at + "begin_s", w.begin_s, false);
    add(at + "end_s", w.end_s, false);
    add(at + "bandwidth_factor", w.bandwidth_factor, false);
  }
  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const ComputeStraggler& s = plan.stragglers[i];
    const std::string at = "stragglers[" + std::to_string(i) + "].";
    add(at + "rank", s.rank, true);
    add(at + "cluster", s.cluster, true);
    add(at + "node_in_cluster", s.node_in_cluster, true);
    add(at + "slowdown", s.slowdown, false);
  }
  add("node_failure.at_s", plan.node_failure.at_s, false);
  add("node_failure.cluster", plan.node_failure.cluster, true);
  add("node_failure.node_in_cluster", plan.node_failure.node_in_cluster, true);
  add("checkpoint.period_iterations", plan.checkpoint.period_iterations, true);
  add("checkpoint.save_s", plan.checkpoint.save_s, false);
  add("checkpoint.restart_s", plan.checkpoint.restart_s, false);
  return fields;
}

/// Start and length of every number token in a serialized plan, in order.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& json) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {
    if (json[i] != ':' || json[i + 1] == '"' || json[i + 1] == '[' ||
        json[i + 1] == '{') {
      continue;
    }
    const std::size_t end = json.find_first_of(",}", i + 1);
    tokens.emplace_back(i + 1, end - i - 1);
  }
  return tokens;
}

/// Two plans say the same thing, number for number.
void expect_same_numbers(const FaultPlan& a, const FaultPlan& b) {
  const std::vector<NumericField> x = numeric_fields(a);
  const std::vector<NumericField> y = numeric_fields(b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].value, y[i].value) << x[i].path;
  }
}

TEST(FaultPlan, EveryAcceptedNumberMeansWhatItSaysAndRoundTrips) {
  // Each fixture, and each fixture with one number replaced by a hostile
  // one: the parser either rejects the number naming its key path, or the
  // plan holds exactly the numbers the document wrote, and then either
  // HV501-HV503 reject it or it survives serialize-and-parse unchanged.
  const char* const whole_tokens[] = {
      "1e300",      "-1e300",           "3.7",
      "-2",         "1e999",            "-1e999",
      "2147483647", "2147483648",       "-2147483649",
      "-1",         "9007199254740992", "9007199254740994",
      "0",          "7"};
  // 5.123456789012345 has 16 significant digits, past json_number's 12.
  const char* const real_tokens[] = {"1e300",   "-1e300",           "1e999",
                                     "-1e999",  "3.7",              "-2",
                                     "0",       "1e-300",           "1e6",
                                     "1000001", "5.123456789012345"};
  const net::Topology topo = hybrid();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  auto check = [&](const std::string& doc, const std::string& path,
                   bool whole) {
    SCOPED_TRACE(doc);
    FaultPlan plan;
    try {
      plan = parse_fault_plan(doc);
    } catch (const ConfigError& e) {
      EXPECT_TRUE(whole) << e.what();
      EXPECT_NE(std::string(e.what()).find(path + " must be a whole number"),
                std::string::npos)
          << e.what();
      ++rejected;
      return;
    }
    const std::vector<std::pair<std::size_t, std::size_t>> tokens =
        number_tokens(doc);
    const std::vector<NumericField> fields = numeric_fields(plan);
    ASSERT_EQ(tokens.size(), fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string token = doc.substr(tokens[i].first, tokens[i].second);
      EXPECT_EQ(fields[i].value, std::strtod(token.c_str(), nullptr))
          << fields[i].path;
    }
    if (!lint_fault_plan(plan, topo).ok()) return;
    ++accepted;
    expect_same_numbers(parse_fault_plan(fault_plan_json(plan)), plan);
  };
  // The fixtures, and a plan with two entries per list so the key paths
  // of later entries are exercised too.
  std::vector<std::pair<std::string, FaultPlan>> plans;
  for (const char* fixture :
       {"hybrid_straggler", "hybrid_node_loss", "infinite_slowdown"}) {
    plans.emplace_back(fixture, fixture_plan(fixture));
  }
  FaultPlan two = fixture_plan("hybrid_node_loss");
  two.nic_degradation.push_back({1, 0, 1.0, 2.5, 0.25});
  two.stragglers.push_back(straggler_plan().stragglers[0]);
  plans.emplace_back("two entries", two);
  for (const auto& [name, plan] : plans) {
    SCOPED_TRACE(name);
    if (lint_fault_plan(plan, topo).ok()) {
      expect_same_numbers(parse_fault_plan(fault_plan_json(plan)), plan);
    }
    const std::string canonical = fault_plan_json(plan);
    check(canonical, "", false);
    const std::vector<NumericField> fields = numeric_fields(plan);
    const auto tokens = number_tokens(canonical);
    ASSERT_EQ(tokens.size(), fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      for (const char* token :
           fields[i].whole ? std::span<const char* const>(whole_tokens)
                           : std::span<const char* const>(real_tokens)) {
        std::string doc = canonical;
        doc.replace(tokens[i].first, tokens[i].second, token);
        check(doc, fields[i].path, fields[i].whole);
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// HV501-503 lints
// ---------------------------------------------------------------------------

TEST(FaultLint, CleanPlanChecksAllThreeRules) {
  const verify::LintReport report = lint_fault_plan(straggler_plan(), hybrid());
  EXPECT_TRUE(report.ok());
  for (const char* rule : {verify::kRuleFaultWindowSane,
                           verify::kRuleFaultScopeValid,
                           verify::kRuleCheckpointModelSane}) {
    EXPECT_FALSE(report.fired(rule)) << rule;
  }
  EXPECT_EQ(report.rules_checked().size(), 3u);
}

TEST(FaultLint, MalformedWindowFiresHV501) {
  FaultPlan plan;
  NicDegradation window;
  window.begin_s = 5.0;
  window.end_s = 5.0;  // not after begin
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  const verify::LintReport report = lint_fault_plan(plan, hybrid());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.fired(verify::kRuleFaultWindowSane));

  FaultPlan negative_factor;
  window.end_s = 6.0;
  window.bandwidth_factor = 0.0;
  negative_factor.nic_degradation.push_back(window);
  EXPECT_TRUE(lint_fault_plan(negative_factor, hybrid())
                  .fired(verify::kRuleFaultWindowSane));
}

TEST(FaultLint, NonFiniteFactorsFireHV501) {
  // A JSON number like 1e999 parses to infinity; neither it nor NaN may
  // reach the simulator, where it would turn every timing into NaN.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    FaultPlan slow = straggler_plan();
    slow.stragglers[0].slowdown = bad;
    EXPECT_FALSE(lint_fault_plan(slow, hybrid()).ok()) << bad;

    FaultPlan window;
    window.nic_degradation.push_back({-1, -1, 1.0, 2.0, bad});
    EXPECT_TRUE(lint_fault_plan(window, hybrid())
                    .fired(verify::kRuleFaultWindowSane))
        << bad;
  }
}

TEST(FaultLint, NonFiniteTimesFireHV501) {
  // Window bounds and the failure time must be finite too: a JSON 1e999
  // window end or failure time would echo back as 0.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    FaultPlan window;
    window.nic_degradation.push_back({-1, -1, 1.0, bad, 0.5});
    EXPECT_TRUE(lint_fault_plan(window, hybrid())
                    .fired(verify::kRuleFaultWindowSane))
        << bad;
    window.nic_degradation[0] = {-1, -1, bad, 2.0, 0.5};
    EXPECT_TRUE(lint_fault_plan(window, hybrid())
                    .fired(verify::kRuleFaultWindowSane))
        << bad;

    FaultPlan failure;
    failure.node_failure = {bad, 1, 1};
    failure.checkpoint = {1, 0.5, 2.0};
    EXPECT_TRUE(lint_fault_plan(failure, hybrid())
                    .fired(verify::kRuleFaultWindowSane))
        << bad;
  }
}

TEST(FaultLint, CheckpointCostsPastTheBoundFireHV503) {
  // save_s and restart_s lie in [0, kMaxCheckpointCost]; the message names
  // the field and the bound.
  auto messages = [](double save, double restart) {
    FaultPlan plan;
    plan.node_failure = {20.0, 1, 1};
    plan.checkpoint = {1, save, restart};
    std::vector<std::string> out;
    const verify::LintReport report = lint_fault_plan(plan, hybrid());
    for (const verify::Diagnostic& d : report.diagnostics()) {
      EXPECT_EQ(d.rule, verify::kRuleCheckpointModelSane);
      out.push_back(d.message);
    }
    return out;
  };
  EXPECT_TRUE(messages(0.0, kMaxCheckpointCost).empty());
  EXPECT_EQ(messages(std::numeric_limits<double>::infinity(), 2.0),
            std::vector<std::string>{
                "save_s inf s must be non-negative and at most the bound of "
                "1000000 s"});
  EXPECT_EQ(messages(0.5, 1e308),
            std::vector<std::string>{
                "restart_s 1e+308 s must be non-negative and at most the "
                "bound of 1000000 s"});
  EXPECT_EQ(messages(-1.0, std::numeric_limits<double>::quiet_NaN()).size(),
            2u);
}

TEST(FaultLint, SlowdownsPastTheBoundFireHV501) {
  // A single factor past kMaxSlowdown is rejected on its own, and so is
  // the entry whose factor pushes a rank's running product past it; the
  // bound itself, alone or compounded, is admitted.
  auto on_rank_zero = [](std::initializer_list<double> slowdowns) {
    FaultPlan plan;
    for (const double slowdown : slowdowns) {
      ComputeStraggler straggler;
      straggler.rank = 0;
      straggler.slowdown = slowdown;
      plan.stragglers.push_back(straggler);
    }
    return plan;
  };
  auto errors = [](const FaultPlan& plan) {
    std::vector<std::string> out;
    const verify::LintReport report = lint_fault_plan(plan, hybrid());
    for (const verify::Diagnostic& d : report.diagnostics()) {
      EXPECT_EQ(d.rule, verify::kRuleFaultWindowSane);
      out.push_back(d.subject + ": " + d.message);
    }
    return out;
  };
  EXPECT_TRUE(errors(on_rank_zero({kMaxSlowdown})).empty());
  EXPECT_TRUE(errors(on_rank_zero({1e3, 1e3})).empty());
  const std::string past = " exceeds the bound of 1000000";
  EXPECT_EQ(errors(on_rank_zero({1e308})),
            std::vector<std::string>{"stragglers[0]: slowdown 1e+308" + past});
  EXPECT_EQ(errors(on_rank_zero({1e200, 1e200})),
            (std::vector<std::string>{
                "stragglers[0]: slowdown 1e+200" + past,
                "stragglers[1]: slowdown 1e+200" + past}));
  EXPECT_EQ(errors(on_rank_zero({1e3, 1e3, 10, 10})),
            (std::vector<std::string>{
                "stragglers[2]: compounds rank 0's slowdown to 10000000 with "
                "the stragglers before it, past the bound of 1000000"}));
  // A scoped straggler compounds on every rank it covers; its entry is
  // reported once, naming the first rank it pushes past the bound.
  FaultPlan scoped = straggler_plan(1e4);
  scoped.stragglers.push_back(scoped.stragglers[0]);
  const std::vector<std::string> scoped_errors = errors(scoped);
  ASSERT_EQ(scoped_errors.size(), 1u);
  EXPECT_EQ(scoped_errors[0].rfind("stragglers[1]: compounds rank ", 0), 0u)
      << scoped_errors[0];
  // The lowering would have multiplied the same factors.
  EXPECT_EQ(lower_fault_plan(on_rank_zero({1e3, 1e3}), hybrid())
                .device_slowdown.at(0),
            kMaxSlowdown);
}

TEST(FaultLint, WindowBeyondHorizonWarns) {
  FaultPlan plan;
  NicDegradation window;
  window.begin_s = 100.0;
  window.end_s = 200.0;
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  const verify::LintReport report =
      lint_fault_plan(plan, hybrid(), /*horizon_s=*/50.0);
  EXPECT_TRUE(report.ok()) << "a dormant window is a warning, not an error";
  EXPECT_TRUE(report.fired(verify::kRuleFaultWindowSane));
  EXPECT_EQ(report.count(verify::Severity::kWarning), 1u);
}

TEST(FaultLint, UnresolvableScopeFiresHV502) {
  FaultPlan plan = straggler_plan();
  plan.stragglers[0].cluster = 99;
  EXPECT_TRUE(
      lint_fault_plan(plan, hybrid()).fired(verify::kRuleFaultScopeValid));

  FaultPlan bad_failure;
  bad_failure.node_failure = {10.0, 0, 77};
  bad_failure.checkpoint = {1, 0.1, 1.0};
  EXPECT_TRUE(lint_fault_plan(bad_failure, hybrid())
                  .fired(verify::kRuleFaultScopeValid));
}

TEST(FaultLint, NodeFailureWithoutCheckpointFiresHV503) {
  FaultPlan plan;
  plan.node_failure = {10.0, 1, 0};
  const verify::LintReport report = lint_fault_plan(plan, hybrid());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.fired(verify::kRuleCheckpointModelSane));

  plan.checkpoint = {1, 0.5, 2.0};
  EXPECT_FALSE(lint_fault_plan(plan, hybrid())
                   .fired(verify::kRuleCheckpointModelSane));
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(FaultLowering, StragglerScopeResolvesToMemberRanks) {
  const net::Topology topo = hybrid();
  const Perturbations perturb = lower_fault_plan(straggler_plan(), topo);
  // Cluster 1's first node on the 2x8:ib+2x8:roce fixture is ranks 16-23.
  EXPECT_EQ(perturb.device_slowdown.size(), 8u);
  for (int rank = 16; rank < 24; ++rank) {
    ASSERT_TRUE(perturb.device_slowdown.count(rank)) << rank;
    EXPECT_EQ(perturb.device_slowdown.at(rank), 2.0);
  }
}

TEST(FaultLowering, IdentitySlowdownLowersToNothing) {
  const Perturbations perturb =
      lower_fault_plan(straggler_plan(/*slowdown=*/1.0), hybrid());
  EXPECT_TRUE(perturb.empty());
}

TEST(FaultLowering, OverlappingStragglerScopesCompound) {
  FaultPlan plan = straggler_plan(2.0);
  ComputeStraggler whole_cluster;
  whole_cluster.cluster = 1;
  whole_cluster.slowdown = 1.5;
  plan.stragglers.push_back(whole_cluster);
  const Perturbations perturb = lower_fault_plan(plan, hybrid());
  EXPECT_EQ(perturb.device_slowdown.at(16), 3.0);  // 2.0 * 1.5
  EXPECT_EQ(perturb.device_slowdown.at(24), 1.5);  // cluster-wide only
}

TEST(FaultLowering, WindowsCarryTheirScopes) {
  FaultPlan plan;
  NicDegradation window;
  window.cluster = 0;
  window.begin_s = 1.0;
  window.end_s = 2.0;
  window.bandwidth_factor = 0.25;
  plan.nic_degradation.push_back(window);
  const Perturbations perturb = lower_fault_plan(plan, hybrid());
  ASSERT_EQ(perturb.nic_degradation.size(), 1u);
  EXPECT_EQ(perturb.nic_degradation[0].cluster, 0);
  EXPECT_EQ(perturb.nic_degradation[0].node_in_cluster, -1);
  EXPECT_EQ(perturb.nic_degradation[0].begin_s, 1.0);
  EXPECT_EQ(perturb.nic_degradation[0].end_s, 2.0);
  EXPECT_EQ(perturb.nic_degradation[0].bandwidth_factor, 0.25);
  EXPECT_FALSE(perturb.empty());
}

// ---------------------------------------------------------------------------
// Recovery experiment
// ---------------------------------------------------------------------------

TEST(FaultRecovery, MeetsAcceptanceBarForTwoXStraggler) {
  const RecoveryReport report = run_fault_injection(hybrid(), straggler_plan());
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.lint.ok());
  EXPECT_LT(report.faulted.throughput, report.fault_free.throughput);
  EXPECT_GT(report.replanned.throughput, report.faulted.throughput);
  // The repo's acceptance bar: measured-speed re-planning must win back at
  // least half the throughput a 2.0x straggler destroys.
  EXPECT_GE(report.recovery_ratio, 0.5);
  EXPECT_FALSE(report.node_lost);
  EXPECT_EQ(report.static_partition.size(), report.replanned_partition.size());
  EXPECT_FALSE(report.bucket_deltas.empty());
}

TEST(FaultRecovery, ReportJsonIsByteStableAndUnstamped) {
  const FaultPlan plan = straggler_plan();
  std::ostringstream a;
  write_recovery_report_json(a, run_fault_injection(hybrid(), plan));
  std::ostringstream b;
  write_recovery_report_json(b, run_fault_injection(hybrid(), plan));
  EXPECT_EQ(a.str(), b.str()) << "recovery reports must be byte-stable";

  const JsonValue doc = json_parse(a.str());
  EXPECT_EQ(doc.at("schema").as_string(), kRecoveryReportSchema);
  EXPECT_EQ(doc.at("verdict").as_string(), "pass");
  EXPECT_EQ(doc.find("fingerprint"), nullptr)
      << "recovery reports are deliberately unstamped (cross-machine CI "
         "goldens)";
  EXPECT_GE(doc.at("recovery_ratio").as_number(), 0.5);
  EXPECT_EQ(doc.at("fault_plan").at("schema").as_string(), kFaultPlanSchema);
}

TEST(FaultRecovery, EchoedPlanReparsesToThePlanThatRan) {
  // Numbers with more significant digits than json_number's 12 echo
  // exactly, so a plan read back from a report is the plan that ran.
  FaultPlan plan = straggler_plan(1.5000000000000002);
  NicDegradation window;
  window.cluster = 0;
  window.begin_s = 5.123456789012345;
  window.end_s = 9.87654321098765;
  window.bandwidth_factor = 1.0 / 3.0;
  plan.nic_degradation.push_back(window);
  const RecoveryReport report = run_fault_injection(hybrid(), plan);
  ASSERT_TRUE(report.valid);
  std::ostringstream out;
  write_recovery_report_json(out, report);
  const std::string doc = out.str();
  EXPECT_EQ(json_parse(doc).at("fault_plan").at("schema").as_string(),
            kFaultPlanSchema);
  const std::string key = "\"fault_plan\":";
  const std::size_t begin = doc.find(key) + key.size();
  const std::size_t end = doc.find(",\"fault_free\":", begin);
  ASSERT_NE(end, std::string::npos);
  expect_same_numbers(parse_fault_plan(doc.substr(begin, end - begin)), plan);
}

TEST(FaultRecovery, InvalidPlanShortCircuitsWithoutSimulating) {
  FaultPlan plan = straggler_plan();
  plan.stragglers[0].cluster = 99;
  const RecoveryReport report = run_fault_injection(hybrid(), plan);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.lint.ok());
  EXPECT_EQ(report.fault_free.makespan_s, 0);
  std::ostringstream out;
  write_recovery_report_json(out, report);
  EXPECT_EQ(json_parse(out.str()).at("verdict").as_string(), "fail");
}

TEST(FaultRecovery, NodeLossAccountsCheckpointReplayDowntime) {
  FaultPlan plan;
  plan.node_failure = {20.0, 1, 1};
  plan.checkpoint = {1, 0.5, 2.0};
  const RecoveryReport report = run_fault_injection(hybrid(), plan);
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.node_lost);
  EXPECT_TRUE(report.recoverable);
  EXPECT_EQ(report.failed_ranks, 8);
  EXPECT_GE(report.checkpointed_iterations, 1);
  EXPECT_GE(report.lost_work_s, 0);
  EXPECT_EQ(report.downtime_s, report.lost_work_s + report.restart_s);
  EXPECT_GT(report.elastic_throughput, 0);
  // Survivors are fewer, so the elastic steady state is slower than the
  // full machine's.
  EXPECT_LT(report.elastic_throughput, report.fault_free.throughput);
  // The composed recovery timeline cannot beat simply never failing.
  EXPECT_GT(report.recovered_makespan_s, report.fault_free.makespan_s);
  // Synthetic recovery buckets join the critical-path delta.
  bool found_restart = false;
  for (const RecoveryReport::BucketDelta& d : report.bucket_deltas) {
    if (d.name == "recovery/restart") {
      found_restart = true;
      EXPECT_EQ(d.faulted_s, 2.0);
    }
  }
  EXPECT_TRUE(found_restart);
}

/// Occupancy curves the way the recovery report first computed them: a full
/// extract_timeline of the re-simulated leg, each class's busy ports
/// bucketed over [0, makespan) and divided by the class's port count.
std::map<std::string, std::vector<double>> full_timeline_curves(
    const net::Topology& topo, const TrainingPlan& plan,
    const Perturbations& perturb) {
  SimArtifacts artifacts;
  TrainingSimulator().run(topo, plan, RecoveryOptions{}.iterations, perturb,
                          nullptr, &artifacts);
  const obs::Timeline timeline = obs::extract_timeline(
      artifacts.graph, *artifacts.result, {},
      [&artifacts](sim::ResourceId resource) {
        return artifacts.ports.resource_class(resource);
      });
  std::map<std::string, std::vector<double>> curves;
  for (const obs::ClassTimeline& cls : timeline.classes) {
    std::vector<double> values = cls.busy_ports.bucketize(
        0.0, artifacts.result->makespan(), RecoveryReport::kTimelineBuckets);
    for (double& v : values) v /= static_cast<double>(cls.ports);
    curves[cls.nic_class] = values;
  }
  return curves;
}

TEST(FaultRecovery, OccupancyCurvesMatchAFullTimelineExtraction) {
  const net::Topology topo = hybrid();
  const TrainingPlan static_plan = Planner(RecoveryOptions{}.framework)
                                       .plan(topo, model::parameter_group(1));
  for (const char* fixture : {"hybrid_straggler", "hybrid_node_loss"}) {
    SCOPED_TRACE(fixture);
    const FaultPlan plan = fixture_plan(fixture);
    const RecoveryReport report = run_fault_injection(topo, plan);
    ASSERT_TRUE(report.valid);
    const auto fault_free = full_timeline_curves(topo, static_plan, {});
    const auto faulted =
        full_timeline_curves(topo, static_plan, lower_fault_plan(plan, topo));

    std::map<std::string, int> classes;
    for (const auto& [name, curve] : fault_free) ++classes[name];
    for (const auto& [name, curve] : faulted) ++classes[name];
    ASSERT_EQ(report.timeline_deltas.size(), classes.size());
    const std::vector<double> zeros(RecoveryReport::kTimelineBuckets, 0.0);
    for (const RecoveryReport::ClassOccupancyDelta& d :
         report.timeline_deltas) {
      SCOPED_TRACE(d.nic_class);
      const auto ff = fault_free.find(d.nic_class);
      const auto fs = faulted.find(d.nic_class);
      const std::vector<double>& want_ff =
          ff == fault_free.end() ? zeros : ff->second;
      const std::vector<double>& want_fs =
          fs == faulted.end() ? zeros : fs->second;
      ASSERT_EQ(d.fault_free.size(), want_ff.size());
      ASSERT_EQ(d.faulted.size(), want_fs.size());
      ASSERT_EQ(d.delta.size(), want_fs.size());
      for (std::size_t b = 0; b < d.delta.size(); ++b) {
        EXPECT_EQ(d.fault_free[b], want_ff[b]) << "bucket " << b;
        EXPECT_EQ(d.faulted[b], want_fs[b]) << "bucket " << b;
        EXPECT_EQ(d.delta[b], want_fs[b] - want_ff[b]) << "bucket " << b;
      }
    }
  }
}

TEST(FaultRecovery, HV504IsCheckedOnEveryLeg) {
  const RecoveryReport report = run_fault_injection(hybrid(), straggler_plan());
  EXPECT_FALSE(report.lint.fired(verify::kRuleRecoveryInvariant));
  bool checked = false;
  for (const std::string& rule : report.lint.rules_checked()) {
    if (rule == verify::kRuleRecoveryInvariant) checked = true;
  }
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace holmes::core
