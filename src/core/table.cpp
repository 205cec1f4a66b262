#include "core/table.hpp"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/error.hpp"

namespace frlfi {

std::string format_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  FRLFI_CHECK(!columns_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  FRLFI_CHECK_MSG(cells.size() == columns_.size(),
                  "row has " << cells.size() << " cells, table has "
                             << columns_.size() << " columns");
  rows_.push_back(std::move(cells));
}

Table& Table::row() {
  finish_pending_row();
  pending_.clear();
  pending_active_ = true;
  return *this;
}

Table& Table::cell(const std::string& s) {
  FRLFI_CHECK_MSG(pending_active_, "cell() without row()");
  pending_.push_back(s);
  return *this;
}

Table& Table::num(double v, int precision) {
  return cell(format_fixed(v, precision));
}

void Table::finish_pending_row() {
  if (pending_active_ && !pending_.empty()) {
    add_row(pending_);
    pending_.clear();
  }
  pending_active_ = false;
}

void Table::print(std::ostream& os) const {
  const_cast<Table*>(this)->finish_pending_row();
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << ' ' << std::setw(static_cast<int>(widths[c])) << std::left
         << cells[c] << " |";
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  line(columns_);
  rule();
  for (const auto& r : rows_) line(r);
  rule();
}

void Table::print() const { print(std::cout); }

Heatmap::Heatmap(std::string title, std::string row_label, std::string col_label)
    : title_(std::move(title)),
      row_label_(std::move(row_label)),
      col_label_(std::move(col_label)) {}

void Heatmap::set_row_keys(std::vector<std::string> keys) {
  row_keys_ = std::move(keys);
  cells_.assign(row_keys_.size(), std::vector<double>(col_keys_.size(), 0.0));
}

void Heatmap::set_col_keys(std::vector<std::string> keys) {
  col_keys_ = std::move(keys);
  for (auto& r : cells_) r.assign(col_keys_.size(), 0.0);
}

void Heatmap::set(std::size_t r, std::size_t c, double value) {
  FRLFI_CHECK_MSG(r < rows() && c < cols(),
                  "heatmap cell (" << r << "," << c << ") out of " << rows()
                                   << "x" << cols());
  cells_[r][c] = value;
}

double Heatmap::at(std::size_t r, std::size_t c) const {
  FRLFI_CHECK(r < rows() && c < cols());
  return cells_[r][c];
}

void Heatmap::print(std::ostream& os, int precision) const {
  std::size_t key_w = row_label_.size();
  for (const auto& k : row_keys_) key_w = std::max(key_w, k.size());
  std::size_t cell_w = 1;
  for (const auto& k : col_keys_) cell_w = std::max(cell_w, k.size());
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t c = 0; c < cols(); ++c)
      cell_w = std::max(cell_w, format_fixed(cells_[r][c], precision).size());

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  os << "rows: " << row_label_ << ", cols: " << col_label_ << '\n';
  os << std::setw(static_cast<int>(key_w)) << std::left << row_label_ << " |";
  for (const auto& k : col_keys_)
    os << ' ' << std::setw(static_cast<int>(cell_w)) << std::right << k;
  os << '\n';
  os << std::string(key_w, '-') << "-+" << std::string((cell_w + 1) * cols(), '-')
     << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    os << std::setw(static_cast<int>(key_w)) << std::left << row_keys_[r] << " |";
    for (std::size_t c = 0; c < cols(); ++c)
      os << ' ' << std::setw(static_cast<int>(cell_w)) << std::right
         << format_fixed(cells_[r][c], precision);
    os << '\n';
  }
}

void Heatmap::print(int precision) const { print(std::cout, precision); }

}  // namespace frlfi
