#include "core/report.h"

#include <algorithm>
#include <sstream>

#include "util/csv.h"
#include "util/error.h"
#include "util/table.h"

namespace holmes::core {

ExperimentGrid::ExperimentGrid(std::string title, std::string row_header)
    : title_(std::move(title)), row_header_(std::move(row_header)) {}

void ExperimentGrid::set(const std::string& row, const std::string& column,
                         const IterationMetrics& metrics) {
  if (std::find(rows_.begin(), rows_.end(), row) == rows_.end()) {
    rows_.push_back(row);
  }
  if (std::find(columns_.begin(), columns_.end(), column) == columns_.end()) {
    columns_.push_back(column);
  }
  cells_[{row, column}] = metrics;
}

bool ExperimentGrid::has(const std::string& row,
                         const std::string& column) const {
  return cells_.count({row, column}) > 0;
}

const IterationMetrics& ExperimentGrid::at(const std::string& row,
                                           const std::string& column) const {
  const auto it = cells_.find({row, column});
  HOLMES_CHECK_MSG(it != cells_.end(), "missing grid cell");
  return it->second;
}

std::string ExperimentGrid::tflops_cell(const std::string& row,
                                        const std::string& column) const {
  return has(row, column) ? TextTable::num(at(row, column).tflops_per_gpu, 0)
                          : "-";
}

std::string ExperimentGrid::to_text() const {
  std::vector<std::string> headers = {row_header_};
  headers.insert(headers.end(), columns_.begin(), columns_.end());
  TextTable table(std::move(headers));
  for (const std::string& row : rows_) {
    std::vector<std::string> cells = {row};
    for (const std::string& column : columns_) {
      cells.push_back(tflops_cell(row, column));
    }
    table.add_row(std::move(cells));
  }
  return title_ + "\n\n" + table.to_string();
}

std::string ExperimentGrid::to_markdown() const {
  std::ostringstream os;
  os << "### " << title_ << "\n\n| " << row_header_;
  for (const std::string& column : columns_) os << " | " << column;
  os << " |\n|" << std::string(3, '-');
  for (std::size_t c = 0; c < columns_.size(); ++c) os << "|" << "---";
  os << "|\n";
  for (const std::string& row : rows_) {
    os << "| " << row;
    for (const std::string& column : columns_) {
      os << " | " << tflops_cell(row, column);
    }
    os << " |\n";
  }
  return os.str();
}

std::string ExperimentGrid::to_csv() const {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row("row", "column", "tflops", "throughput", "iteration_s",
          "grad_sync_s", "grad_exposed_s", "allgather_s", "optimizer_s");
  for (const std::string& row : rows_) {
    for (const std::string& column : columns_) {
      if (!has(row, column)) continue;
      const IterationMetrics& m = at(row, column);
      csv.row(row, column, m.tflops_per_gpu, m.throughput, m.iteration_time,
              m.grad_sync_span, m.grad_sync_exposed, m.param_allgather_span,
              m.optimizer_span);
    }
  }
  return os.str();
}

}  // namespace holmes::core
