// Minimal JSON emission for sweep reports and machine-readable bench output.
//
// Append-only writer with automatic comma placement; numbers are printed
// with round-trip precision (%.17g, spelled by io/number.hpp in any process
// locale) so a metrics file re-emitted from the same doubles is
// byte-identical — the property the sweep determinism tests pin. No parser:
// this repository only ever *produces* JSON.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace citl::io {

/// Escapes a string for use inside JSON quotes (control chars, '"', '\\').
[[nodiscard]] std::string json_escape(std::string_view s);

/// Round-trip decimal rendering of a double; NaN and infinities (not
/// representable in JSON) become null.
[[nodiscard]] std::string json_number(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be followed by a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// A literal or C string is a string: without this overload the pointer
  /// would convert to bool (a standard conversion) ahead of string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void separate();

  std::string out_;
  std::vector<bool> first_in_level_;
  bool after_key_ = false;
};

/// Writes a string to `path` verbatim. Throws ConfigError on IO failure.
void write_text_file(const std::string& path, std::string_view content);

}  // namespace citl::io
