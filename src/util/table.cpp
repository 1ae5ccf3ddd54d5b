#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/contracts.h"

namespace stclock {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ST_REQUIRE(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  ST_REQUIRE(cells.size() == headers_.size(), "Table: row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  auto rule = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ') << " |";
    }
    os << '\n';
  };

  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += "\"\"";
    else out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace stclock
