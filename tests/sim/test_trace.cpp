#include "sim/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "util/json.h"

namespace holmes::sim {
namespace {

/// Minimal structural JSON check: balanced brackets/braces outside strings.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '[' || c == '{') ++depth;
    else if (c == ']' || c == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TaskGraph small_graph(SimResult* result_out) {
  TaskGraph g;
  const ResourceId gpu = g.add_resource("gpu0.compute");
  const ResourceId tx = g.add_resource("gpu0.tx");
  const ResourceId rx = g.add_resource("gpu1.rx");
  const TaskId c = g.add_compute(gpu, 1.5, "fwd", 7);
  const TaskId x = g.add_transfer(tx, rx, 1000, 1e6, 1e-6, "act", 3);
  g.add_dep(x, c);
  g.add_noop("join");
  *result_out = TaskGraphExecutor{}.run(g);
  return g;
}

TEST(Trace, ProducesBalancedJsonWithAllRows) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  const std::string trace = os.str();
  EXPECT_TRUE(json_balanced(trace)) << trace;
  EXPECT_NE(trace.find("\"fwd\""), std::string::npos);
  EXPECT_NE(trace.find("\"act\""), std::string::npos);
  EXPECT_NE(trace.find("gpu0.compute"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Noops are dropped.
  EXPECT_EQ(trace.find("join"), std::string::npos);
}

TEST(Trace, TimestampsAreMicroseconds) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  // The 1.5 s compute shows up as dur 1.5e6 us, written out in full.
  EXPECT_NE(os.str().find("\"dur\":1500000,"), std::string::npos) << os.str();
}

TEST(Trace, EscapesSpecialCharacters) {
  TaskGraph g;
  const ResourceId r = g.add_resource("weird\"name\\with\nstuff");
  g.add_compute(r, 1.0, "label\"quoted\"");
  const SimResult result = TaskGraphExecutor{}.run(g);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  EXPECT_TRUE(json_balanced(os.str())) << os.str();
  EXPECT_NE(os.str().find("\\\"quoted\\\""), std::string::npos);
}

TEST(Trace, EmptyGraph) {
  TaskGraph g;
  const SimResult result = TaskGraphExecutor{}.run(g);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  // Only the process row: no resources, slices or counter steps.
  EXPECT_EQ(os.str(),
            "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"holmes simulation\"}}\n]");
}

TEST(Trace, EmitsProcessAndThreadNameMetadata) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  const std::string trace = os.str();
  EXPECT_TRUE(json_balanced(trace)) << trace;
  // The process name plus one thread_name row per resource, so Perfetto
  // shows "gpu0.compute" etc. instead of bare tids.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("holmes simulation"), std::string::npos);
  std::size_t rows = 0;
  for (std::size_t at = trace.find("\"thread_name\""); at != std::string::npos;
       at = trace.find("\"thread_name\"", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, g.resource_count());
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
}

TEST(Trace, EmitsCounterTracks) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"compute in flight\""), std::string::npos);
  EXPECT_NE(trace.find("\"links busy\""), std::string::npos);
  EXPECT_NE(trace.find("\"bytes in flight\""), std::string::npos);
}

JsonValue parsed_trace(const TaskGraph& g, const SimResult& result,
                       const TraceOptions& options = {}) {
  std::ostringstream os;
  write_chrome_trace(os, g, result, options);
  return json_parse(os.str());
}

TEST(Trace, OutputIsValidJsonAndEventsReferenceRealTasks) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  const JsonValue trace = parsed_trace(g, result);
  ASSERT_TRUE(trace.is_array());
  for (const JsonValue& event : trace.as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph != "X" && ph != "s" && ph != "f") continue;
    // Every slice and flow endpoint names the task it came from.
    const double task = event.at("args").at("task").as_number();
    EXPECT_GE(task, 0.0);
    EXPECT_LT(task, static_cast<double>(g.task_count()));
  }
}

TEST(Trace, FlowArrowsPairUpAcrossRows) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);  // one cross-row dep: x -> c
  const JsonValue trace = parsed_trace(g, result);
  std::map<double, const JsonValue*> starts;
  std::map<double, const JsonValue*> finishes;
  for (const JsonValue& event : trace.as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "s") starts[event.at("id").as_number()] = &event;
    if (ph == "f") finishes[event.at("id").as_number()] = &event;
  }
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  for (const auto& [id, start] : starts) {
    ASSERT_TRUE(finishes.count(id));
    const JsonValue& finish = *finishes[id];
    EXPECT_EQ(start->at("cat").as_string(), "flow");
    EXPECT_EQ(finish.at("bp").as_string(), "e");
    // Arrow runs producer (compute, task 0) -> consumer (transfer, task 1)
    // across distinct rows.
    EXPECT_DOUBLE_EQ(start->at("args").at("task").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(finish.at("args").at("task").as_number(), 1.0);
    EXPECT_NE(start->at("tid").as_number(), finish.at("tid").as_number());
    // "s" anchors at the producer's finish, "f" at the consumer's start —
    // here back-to-back, so the arrow is a point in time.
    EXPECT_DOUBLE_EQ(start->at("ts").as_number(), finish.at("ts").as_number());
  }
}

TEST(Trace, FlowArrowsSkipDroppedSlices) {
  // Two computes on different rows joined only through a noop, which has
  // no slice: neither edge may draw an arrow.
  TaskGraph g;
  const ResourceId gpu0 = g.add_resource("gpu0.compute");
  const ResourceId gpu1 = g.add_resource("gpu1.compute");
  const TaskId a = g.add_compute(gpu0, 1.0, "a");
  const TaskId join = g.add_noop("join");
  const TaskId b = g.add_compute(gpu1, 1.0, "b");
  g.add_dep(join, a);
  g.add_dep(b, join);
  const SimResult result = TaskGraphExecutor{}.run(g);
  const JsonValue trace = parsed_trace(g, result);
  for (const JsonValue& event : trace.as_array()) {
    const std::string& ph = event.at("ph").as_string();
    EXPECT_NE(ph, "s") << "arrow endpoint without a visible slice";
    EXPECT_NE(ph, "f");
  }
}

TEST(Trace, CriticalLaneDuplicatesChainTasks) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  TraceOptions options;
  options.critical_tasks = {0, 1};  // the compute and the transfer
  const JsonValue trace = parsed_trace(g, result, options);

  const double lane = static_cast<double>(g.resource_count());
  std::size_t critical_slices = 0;
  bool lane_named = false;
  for (const JsonValue& event : trace.as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M" && event.at("name").as_string() == "thread_name" &&
        event.at("args").at("name").as_string() == "critical path") {
      lane_named = true;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), lane);
    }
    if (ph == "X" && event.at("cat").as_string() == "critical") {
      ++critical_slices;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), lane);
    }
  }
  EXPECT_TRUE(lane_named);
  EXPECT_EQ(critical_slices, 2u);
}

TEST(Trace, NoCriticalLaneWithoutCriticalTasks) {
  SimResult result({}, {}, 0);
  const TaskGraph g = small_graph(&result);
  std::ostringstream os;
  write_chrome_trace(os, g, result);
  EXPECT_EQ(os.str().find("critical path"), std::string::npos);
  EXPECT_EQ(os.str().find("\"cat\":\"critical\""), std::string::npos);
}

}  // namespace
}  // namespace holmes::sim
