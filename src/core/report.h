#pragma once

/// \file report.h
/// Experiment result grids with human- and machine-readable renderers.
///
/// `sweep` accumulates (row, column) -> metrics cells and renders them as
/// an aligned text table (stdout) or GitHub markdown (reports) of the
/// per-GPU TFLOPS, or as CSV of every printed metric (plotting pipelines).

#include <map>
#include <string>
#include <vector>

#include "core/training_sim.h"

namespace holmes::core {

class ExperimentGrid {
 public:
  /// `title` heads every rendering; `row_header` labels the first column.
  ExperimentGrid(std::string title, std::string row_header);

  /// Records the metrics of one scenario cell. Rows/columns appear in
  /// first-insertion order. Re-setting a cell overwrites it.
  void set(const std::string& row, const std::string& column,
           const IterationMetrics& metrics);

  bool has(const std::string& row, const std::string& column) const;
  const IterationMetrics& at(const std::string& row,
                             const std::string& column) const;

  const std::vector<std::string>& rows() const { return rows_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::string& title() const { return title_; }

  /// Aligned text table of each cell's TFLOPS per GPU, rounded to whole
  /// TFLOPS (missing cells render as "-").
  std::string to_text() const;

  /// The same table as GitHub-flavoured markdown.
  std::string to_markdown() const;

  /// CSV with one line per cell: row,column,tflops,throughput,iteration_s,
  /// grad_sync_s,grad_exposed_s,allgather_s,optimizer_s. Includes a header.
  std::string to_csv() const;

 private:
  std::string title_;
  std::string row_header_;
  std::vector<std::string> rows_;
  std::vector<std::string> columns_;
  std::map<std::pair<std::string, std::string>, IterationMetrics> cells_;

  /// A cell's TFLOPS per GPU at 0 decimals, or "-" when it is missing.
  std::string tflops_cell(const std::string& row,
                          const std::string& column) const;
};

}  // namespace holmes::core
