#include "io/csv.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>

#include "core/error.hpp"
#include "io/number.hpp"

namespace citl::io {

namespace {

/// Appends one numeric cell. Non-finite values get canonical spellings
/// rather than whatever a formatter makes of them ("-nan", "-nan(ind)",
/// "1.#INF", ...), which would corrupt the robustness columns that can
/// legitimately carry non-finite metrics next to finite_output_ratio.
void append_cell(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
  } else if (std::isinf(v)) {
    out += v < 0.0 ? "-inf" : "inf";
  } else {
    append_number(out, v);
  }
}

}  // namespace

std::string csv_escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string csv_to_string(const std::vector<Column>& columns) {
  std::string out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) out += ',';
    out += csv_escape(columns[c].name);
  }
  out += '\n';
  std::size_t rows = 0;
  for (const auto& c : columns) rows = std::max(rows, c.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c != 0) out += ',';
      const Column& col = columns[c];
      if (col.is_text()) {
        if (r < col.labels.size()) out += csv_escape(col.labels[r]);
      } else if (r < col.values.size()) {
        append_cell(out, col.values[r]);
      }
    }
    out += '\n';
  }
  return out;
}

std::string csv_format_number(double value) {
  std::string out;
  append_cell(out, value);
  return out;
}

double csv_parse_number(std::string_view field) {
  const auto fail = [&]() -> double {
    throw ConfigError("not a numeric CSV cell: '" + std::string(field) + "'");
  };
  std::string_view body = field;
  double sign = 1.0;
  if (!body.empty() && (body.front() == '+' || body.front() == '-')) {
    if (body.front() == '-') sign = -1.0;
    body.remove_prefix(1);
  }
  const auto equals_ci = [&](std::string_view word) {
    if (body.size() != word.size()) return false;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(body[i])) != word[i]) {
        return false;
      }
    }
    return true;
  };
  if (equals_ci("nan")) return std::numeric_limits<double>::quiet_NaN();
  if (equals_ci("inf") || equals_ci("infinity")) {
    return sign * std::numeric_limits<double>::infinity();
  }
  if (body.empty()) fail();
  // std::from_chars, not strtod: strtod honours the process locale, so a
  // host running under e.g. de_DE.UTF-8 would reject "3.14" (comma decimal
  // separator). from_chars always parses the C-locale format and needs no
  // NUL terminator. It does not accept a sign itself — `body` already has
  // the sign stripped, which also rejects strtod-isms like "0x1p3" with a
  // second sign or embedded whitespace.
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(body.data(), body.data() + body.size(), v);
  if (ec != std::errc() || ptr != body.data() + body.size()) fail();
  return sign * v;
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;       // inside a quoted field
  bool any_field = false;    // current row has content (field char or comma)

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
    any_field = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';  // doubled quote inside a quoted field
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += ch;  // commas and line breaks are literal when quoted
      }
      continue;
    }
    switch (ch) {
      case '"':
        quoted = true;
        any_field = true;
        break;
      case ',':
        end_field();
        any_field = true;
        break;
      case '\r':
        // CRLF: consume the CR, the LF below ends the row.
        break;
      case '\n':
        end_row();
        break;
      default:
        field += ch;
        any_field = true;
        break;
    }
  }
  // Final row without a trailing newline.
  if (any_field || !field.empty() || !row.empty()) end_row();
  return rows;
}

void write_csv(const std::string& path, const std::vector<Column>& columns) {
  std::ofstream f(path);
  if (!f) throw ConfigError("cannot open for writing: " + path);
  f << csv_to_string(columns);
  if (!f) throw ConfigError("write failed: " + path);
}

}  // namespace citl::io
