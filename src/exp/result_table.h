// Result collection for the declarative experiment layer (DESIGN.md §7).
//
// A scenario produces one or more ResultTables -- ordered columns plus typed
// rows. Cells keep their raw numeric value next to the formatted text, so
// one run can be rendered as the paper-style fixed-width text table, as CSV,
// or as JSON without re-running the simulation. The text emitter reproduces
// the historical bench output format (`==== Figure N: title ====` header,
// `%-*s` cells) so figure shapes remain diffable against EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace mixnet::exp {

/// One table cell: either text or a number with display formatting
/// (precision, optional prefix/suffix such as "+" or "%"). Emitters use the
/// raw value for CSV/JSON and the formatted text for the text renderer.
class Cell {
 public:
  Cell(std::string text);       // NOLINT(google-explicit-constructor)
  Cell(const char* text);       // NOLINT(google-explicit-constructor)

  /// Numeric cell rendered as fixed-point with `precision` digits.
  static Cell num(double value, int precision = 3);
  /// Numeric cell with decoration, e.g. num(1.4, 1, "+", "%") -> "+1.4%".
  static Cell num(double value, int precision, std::string prefix,
                  std::string suffix);
  /// Integer-valued cell (rendered without a decimal point).
  static Cell integer(long long value);

  bool is_number() const { return is_number_; }
  double value() const { return value_; }
  /// Formatted text (for numbers: prefix + fixed-point + suffix).
  std::string text() const;

 private:
  Cell() = default;
  bool is_number_ = false;
  double value_ = 0.0;
  int precision_ = 3;
  std::string text_;    // text cells; prefix/suffix for numeric cells
  std::string suffix_;
};

/// Fixed-point formatting helper shared with scenario code ("%.*f").
std::string fmt(double v, int precision = 3);

/// printf into a std::string (output truncated at 511 characters), for
/// table footers and check diagnostics.
std::string printf_str(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

class ResultTable {
 public:
  ResultTable(std::string id, std::string title,
              std::vector<std::string> columns, int width = 22);

  void add_row(std::vector<Cell> cells);
  /// Free-form lines printed after the table body in text mode (ratio
  /// summaries and other value-bearing notes that are not tabular).
  void add_footer(std::string line);

  const std::string& id() const { return id_; }
  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }
  const std::vector<std::string>& footers() const { return footers_; }

  std::string to_text() const;
  /// Header row + data rows; numeric cells emit raw values ("%.17g").
  std::string to_csv() const;
  /// {"id":..,"title":..,"columns":[..],"rows":[[..]],"footers":[..]}
  std::string to_json() const;

 private:
  std::string id_;
  std::string title_;
  std::vector<std::string> columns_;
  int width_ = 22;
  std::vector<std::vector<Cell>> rows_;
  std::vector<std::string> footers_;
};

/// Everything one scenario run produced: its tables plus the paper-shape
/// note historically printed at the end of each bench binary.
struct ScenarioResult {
  std::string name;                 ///< registry name, e.g. "fig13"
  std::vector<ResultTable> tables;
  std::string note;                 ///< trailing paper-shape comparison

  std::string to_text() const;
  std::string to_csv() const;
  /// {"scenario":..,"tables":[..],"note":..}
  std::string to_json() const;
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace mixnet::exp
