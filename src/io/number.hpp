// The one number format of the CSV and JSON writers.
#pragma once

#include <charconv>
#include <string>

namespace citl::io {

/// Appends the round-trip decimal spelling of a finite double: 17
/// significant digits in general format, byte for byte what printf's
/// "%.17g" prints in the C locale. std::to_chars never reads the process
/// locale, so a host running under a comma-decimal locale still writes
/// "3.1400000000000001", not "3,1400000000000001". Callers spell NaN and
/// the infinities themselves.
inline void append_number(std::string& out, double v) {
  char buf[32];  // "-1.2345678901234567e-308" is the longest spelling
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace citl::io
