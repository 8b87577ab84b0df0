#include "core/report.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace holmes::core {
namespace {

IterationMetrics metrics(double tflops, double thr) {
  IterationMetrics m;
  m.tflops_per_gpu = tflops;
  m.throughput = thr;
  m.iteration_time = 1.0;
  return m;
}

ExperimentGrid sample() {
  ExperimentGrid grid("Demo grid", "Group");
  grid.set("1", "InfiniBand", metrics(197, 99.23));
  grid.set("1", "RoCE", metrics(160, 80.54));
  grid.set("2", "InfiniBand", metrics(206, 103.66));
  return grid;
}

TEST(ExperimentGrid, TracksRowsAndColumnsInInsertionOrder) {
  const ExperimentGrid grid = sample();
  EXPECT_EQ(grid.rows(), (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(grid.columns(), (std::vector<std::string>{"InfiniBand", "RoCE"}));
  EXPECT_TRUE(grid.has("1", "RoCE"));
  EXPECT_FALSE(grid.has("2", "RoCE"));
  EXPECT_DOUBLE_EQ(grid.at("1", "InfiniBand").tflops_per_gpu, 197);
  EXPECT_THROW(grid.at("2", "RoCE"), InternalError);
}

TEST(ExperimentGrid, OverwritingACellKeepsShape) {
  ExperimentGrid grid = sample();
  grid.set("1", "RoCE", metrics(165, 83.0));
  EXPECT_EQ(grid.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(grid.at("1", "RoCE").tflops_per_gpu, 165);
}

TEST(ExperimentGrid, TextRendersMissingCellsAsDash) {
  const std::string text = sample().to_text();
  EXPECT_NE(text.find("Demo grid"), std::string::npos);
  EXPECT_NE(text.find("197"), std::string::npos);
  EXPECT_NE(text.find("| -"), std::string::npos);  // missing (2, RoCE)
}

TEST(ExperimentGrid, MarkdownHasHeaderSeparator) {
  const std::string md = sample().to_markdown();
  EXPECT_NE(md.find("### Demo grid"), std::string::npos);
  EXPECT_NE(md.find("| Group | InfiniBand | RoCE |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 197 | 160 |"), std::string::npos) << md;
}

TEST(ExperimentGrid, CsvHasHeaderAndOneLinePerCell) {
  const std::string csv = sample().to_csv();
  EXPECT_NE(csv.find("row,column,tflops"), std::string::npos);
  // Header + 3 cells = 4 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("1,RoCE,160"), std::string::npos);
}

TEST(ExperimentGrid, CsvSkipsMissingCellsEntirely) {
  const std::string csv = sample().to_csv();
  // The missing (2, RoCE) cell produces no line at all — no dangling commas
  // or placeholder values a downstream parser could misread.
  EXPECT_EQ(csv.find("2,RoCE"), std::string::npos);
  EXPECT_NE(csv.find("2,InfiniBand"), std::string::npos);
  EXPECT_NE(csv.find("grad_exposed_s"), std::string::npos);
}

TEST(ExperimentGrid, MarkdownRendersMissingCellsAsDash) {
  const std::string md = sample().to_markdown();
  // Row 2 has InfiniBand but no RoCE value.
  EXPECT_NE(md.find("| 2 | 206 | - |"), std::string::npos) << md;
}

TEST(ExperimentGrid, EmptyGridRendersHeadersOnly) {
  const ExperimentGrid grid("Empty", "Row");
  const std::string csv = grid.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);  // header only
  const std::string md = grid.to_markdown();
  EXPECT_NE(md.find("### Empty"), std::string::npos);
}

}  // namespace
}  // namespace holmes::core
