#pragma once

/// \file table.hpp
/// ASCII table and heatmap rendering used by the benchmark harness to print
/// the same rows/series the paper's tables and figures report.

#include <iosfwd>
#include <string>
#include <vector>

namespace frlfi {

/// A simple column-aligned table with a title, header row, and string cells.
/// Numeric convenience adders format with a fixed precision.
class Table {
 public:
  /// Create a table with the given title and column headers.
  Table(std::string title, std::vector<std::string> columns);

  /// Append a fully-formatted row. Must match the column count.
  void add_row(std::vector<std::string> cells);

  /// Begin a new row to be filled with cell()/num() calls.
  Table& row();

  /// Append a string cell to the row under construction.
  Table& cell(const std::string& s);

  /// Append a numeric cell with the given decimal precision.
  Table& num(double v, int precision = 2);

  /// Number of data rows.
  std::size_t row_count() const { return rows_.size(); }

  /// Render with box-drawing alignment to the stream.
  void print(std::ostream& os) const;

  /// Convenience: render to stdout.
  void print() const;

 private:
  void finish_pending_row();

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
  bool pending_active_ = false;
};

/// A labelled 2-D grid of numbers rendered like the paper's heatmap figures
/// (Fig. 3, 5, 7): rows are BER levels, columns are fault-injection
/// episodes, cells are the metric (success rate / flight distance).
class Heatmap {
 public:
  /// \param title      figure caption.
  /// \param row_label  meaning of the row axis (e.g. "BER").
  /// \param col_label  meaning of the column axis (e.g. "episode").
  Heatmap(std::string title, std::string row_label, std::string col_label);

  /// Set the ordered row key labels (outermost axis, printed leftmost).
  void set_row_keys(std::vector<std::string> keys);

  /// Set the ordered column key labels.
  void set_col_keys(std::vector<std::string> keys);

  /// Set cell (r, c). Both indices must be within the configured keys.
  void set(std::size_t r, std::size_t c, double value);

  /// Render aligned grid to the stream.
  void print(std::ostream& os, int precision = 0) const;

  /// Convenience: render to stdout.
  void print(int precision = 0) const;

  std::size_t rows() const { return row_keys_.size(); }
  std::size_t cols() const { return col_keys_.size(); }

 private:
  std::string title_, row_label_, col_label_;
  std::vector<std::string> row_keys_, col_keys_;
  std::vector<std::vector<double>> cells_;
};

/// Format a double with fixed precision (helper shared by Table/Heatmap).
std::string format_fixed(double v, int precision);

}  // namespace frlfi
