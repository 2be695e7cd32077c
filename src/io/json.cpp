#include "io/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/error.hpp"
#include "io/number.hpp"

namespace citl::io {

namespace {

void append_json_number(std::string& out, double v) {
  if (std::isfinite(v)) {
    append_number(out, v);
  } else {
    out += "null";
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_level_.empty()) {
    if (!first_in_level_.back()) out_ += ',';
    first_in_level_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_in_level_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  CITL_CHECK_MSG(!first_in_level_.empty(), "unbalanced end_object");
  first_in_level_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_in_level_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  CITL_CHECK_MSG(!first_in_level_.empty(), "unbalanced end_array");
  first_in_level_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  append_json_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw ConfigError("cannot open '" + path + "' for writing");
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!f) throw ConfigError("write to '" + path + "' failed");
}

}  // namespace citl::io
