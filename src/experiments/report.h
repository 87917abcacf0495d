// oisa_experiments: ASCII table and CSV reporting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace oisa::experiments {

/// Minimal column-aligned table, printable as ASCII or CSV.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void addRow(std::vector<std::string> cells);

  /// Column-aligned ASCII rendering.
  void print(std::ostream& os) const;

  /// RFC-ish CSV (no quoting needed for our numeric content).
  void writeCsv(std::ostream& os) const;

  /// Writes the CSV to `path` in place (core::writeFile); throws
  /// core::StatusError(IoError) naming the path when open, write, flush
  /// or close fails.
  void writeCsvFile(const std::string& path) const;

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Scientific notation with `precision` significant decimals (log-plot
/// friendly, like the paper's 10^-6..10^2 axes).
[[nodiscard]] std::string formatSci(double v, int precision = 3);

/// Fixed-point formatting.
[[nodiscard]] std::string formatFixed(double v, int precision = 4);

/// Clamps a value to the paper's display floor (10^-6 stands in for "no
/// error observed" on log axes, as in Figs. 7-8).
[[nodiscard]] double displayFloor(double v, double floor = 1e-6) noexcept;

}  // namespace oisa::experiments
