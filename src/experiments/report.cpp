#include "experiments/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/file_publish.h"
#include "core/status.h"

namespace oisa::experiments {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::addRow(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::addRow: wrong cell count");
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto printRow = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
         << cells[c];
    }
    os << '\n';
  };
  printRow(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  os << rule << '\n';
  for (const auto& row : rows_) printRow(row);
}

void Table::writeCsv(std::ostream& os) const {
  auto writeRow = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << cells[c];
    }
    os << '\n';
  };
  writeRow(headers_);
  for (const auto& row : rows_) writeRow(row);
}

void Table::writeCsvFile(const std::string& path) const {
  std::ostringstream os;
  writeCsv(os);
  core::throwIfError(core::writeFile(path, os.str()));
}

std::string formatSci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

std::string formatFixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

double displayFloor(double v, double floor) noexcept {
  return v < floor ? floor : v;
}

}  // namespace oisa::experiments
