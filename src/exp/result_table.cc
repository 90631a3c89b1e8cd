#include "exp/result_table.h"

#include <cstdarg>
#include <cstdio>

namespace mixnet::exp {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string printf_str(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

namespace {

/// Raw numeric emission for CSV/JSON: shortest round-trippable form.
std::string raw(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Cell::Cell(std::string text) : text_(std::move(text)) {}
Cell::Cell(const char* text) : text_(text) {}

Cell Cell::num(double value, int precision) {
  return num(value, precision, "", "");
}

Cell Cell::num(double value, int precision, std::string prefix,
               std::string suffix) {
  Cell c;
  c.is_number_ = true;
  c.value_ = value;
  c.precision_ = precision;
  c.text_ = std::move(prefix);
  c.suffix_ = std::move(suffix);
  return c;
}

Cell Cell::integer(long long value) {
  Cell c;
  c.is_number_ = true;
  c.value_ = static_cast<double>(value);
  c.precision_ = 0;
  return c;
}

std::string Cell::text() const {
  if (!is_number_) return text_;
  return text_ + fmt(value_, precision_) + suffix_;
}

ResultTable::ResultTable(std::string id, std::string title,
                         std::vector<std::string> columns, int width)
    : id_(std::move(id)),
      title_(std::move(title)),
      columns_(std::move(columns)),
      width_(width) {}

void ResultTable::add_row(std::vector<Cell> cells) {
  rows_.push_back(std::move(cells));
}

void ResultTable::add_footer(std::string line) {
  footers_.push_back(std::move(line));
}

std::string ResultTable::to_text() const {
  std::string out = "\n==== " + id_ + ": " + title_ + " ====\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    // Pad each cell to the column width, and always by at least one space
    // so an over-width cell never runs into the next.
    for (const auto& c : cells) {
      out += c;
      const auto pad = static_cast<std::size_t>(width_);
      out.append(c.size() < pad ? pad - c.size() : 1, ' ');
    }
    out += '\n';
  };
  emit_row(columns_);
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& c : row) cells.push_back(c.text());
    emit_row(cells);
  }
  for (const auto& f : footers_) out += f + "\n";
  return out;
}

std::string ResultTable::to_csv() const {
  auto csv_field = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char c : s) {
      if (c == '"') q += '"';
      q += c;
    }
    return q + "\"";
  };
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) out += ',';
    out += csv_field(columns_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += row[i].is_number() ? raw(row[i].value()) : csv_field(row[i].text());
    }
    out += '\n';
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ResultTable::to_json() const {
  std::string out = "{\"id\":\"" + json_escape(id_) + "\",\"title\":\"" +
                    json_escape(title_) + "\",\"columns\":[";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(columns_[i]) + "\"";
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) out += ',';
    out += '[';
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      if (i) out += ',';
      const Cell& c = rows_[r][i];
      out += c.is_number() ? raw(c.value())
                           : "\"" + json_escape(c.text()) + "\"";
    }
    out += ']';
  }
  out += "],\"footers\":[";
  for (std::size_t i = 0; i < footers_.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(footers_[i]) + "\"";
  }
  out += "]}";
  return out;
}

std::string ScenarioResult::to_text() const {
  std::string out;
  for (const auto& t : tables) out += t.to_text();
  if (!note.empty()) out += "\n" + note + "\n";
  return out;
}

std::string ScenarioResult::to_csv() const {
  std::string out;
  for (const auto& t : tables) {
    out += "# " + t.id() + ": " + t.title() + "\n";
    out += t.to_csv();
    for (const auto& f : t.footers()) out += "# " + f + "\n";
    out += "\n";
  }
  if (!note.empty()) {
    std::string line;
    for (char c : note) {
      if (c == '\n') {
        out += "# " + line + "\n";
        line.clear();
      } else {
        line += c;
      }
    }
    out += "# " + line + "\n";
  }
  return out;
}

std::string ScenarioResult::to_json() const {
  std::string out = "{\"scenario\":\"" + json_escape(name) + "\",\"tables\":[";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i) out += ',';
    out += tables[i].to_json();
  }
  out += "],\"note\":\"" + json_escape(note) + "\"}";
  return out;
}

}  // namespace mixnet::exp
