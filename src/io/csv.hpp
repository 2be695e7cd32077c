// CSV output for recorded traces and bench series.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace citl::io {

/// A named column: numeric (`values`) or text (`labels`). A column is text
/// when `labels` is non-empty; sweep reports use one text column for the
/// scenario names next to the metric columns.
struct Column {
  std::string name;
  std::vector<double> values;
  std::vector<std::string> labels;

  [[nodiscard]] bool is_text() const noexcept { return !labels.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return is_text() ? labels.size() : values.size();
  }
};

/// Writes columns to `path` as RFC 4180 CSV (header row, '.' decimal
/// separator, full double precision). Text cells and header names containing
/// a comma, quote, CR or LF are quoted with '"' doubled; numbers are never
/// quoted. Columns may have different lengths; missing cells are left empty.
/// Throws ConfigError on IO failure.
void write_csv(const std::string& path, const std::vector<Column>& columns);

/// Renders the same CSV to a string (used by tests).
[[nodiscard]] std::string csv_to_string(const std::vector<Column>& columns);

/// RFC 4180 quoting for one field: returns `field` unchanged when it needs
/// no quoting, otherwise wrapped in '"' with embedded quotes doubled.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Formats one numeric cell exactly as csv_to_string does: full round-trip
/// precision with a '.' decimal separator in any process locale
/// (io/number.hpp), and the canonical spellings `nan`, `inf`, `-inf` for
/// non-finite values (a formatter's NaN is platform text like "-nan(ind)",
/// which csv_parse_number could not reload).
[[nodiscard]] std::string csv_format_number(double value);

/// Parses a numeric cell written by csv_format_number: accepts the canonical
/// non-finite spellings (case-insensitive, optional sign) and ordinary
/// decimal/scientific literals. Throws ConfigError naming the field when the
/// cell is empty or not a number — the round trip with csv_format_number is
/// a tested invariant.
[[nodiscard]] double csv_parse_number(std::string_view field);

/// Parses RFC 4180 CSV text into rows of fields: quoted fields (including
/// embedded commas, doubled quotes and embedded line breaks), CRLF and LF
/// line endings. A trailing newline does not produce an empty row. The
/// inverse of csv_to_string for any rectangular table of escaped fields —
/// the round trip is a tested invariant.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::string_view text);

}  // namespace citl::io
