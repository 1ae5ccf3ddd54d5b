#pragma once

#include <iosfwd>
#include <string>
#include <vector>

/// Aligned plain-text tables and CSV output for the experiment harnesses.
/// Every bench binary prints its table through this class so the output
/// format stays uniform across experiments.
namespace stclock {

/// RFC-4180 quoting: a field holding a comma, quote or newline is quoted,
/// with inner quotes doubled; any other field is returned as is.
[[nodiscard]] std::string csv_escape(const std::string& field);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string num(double v, int precision = 6);
  /// Scientific notation, for very small skews.
  [[nodiscard]] static std::string sci(double v, int precision = 3);

  /// Writes an aligned, boxed plain-text rendering.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (fields containing commas/quotes are quoted).
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace stclock
