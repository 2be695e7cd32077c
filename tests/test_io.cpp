// IO helpers: CSV, console tables, ASCII plots, traces, parameter bus.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/error.hpp"
#include "hil/parambus.hpp"
#include "hil/recorder.hpp"
#include "io/asciiplot.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/number.hpp"
#include "io/table.hpp"

namespace citl {
namespace {

TEST(Csv, HeaderAndRows) {
  const std::string s = io::csv_to_string(
      {{"t", {1.0, 2.0}, {}}, {"v", {0.5, -0.25}, {}}});
  EXPECT_EQ(s, "t,v\n1,0.5\n2,-0.25\n");
}

TEST(Csv, RaggedColumnsLeaveEmptyCells) {
  const std::string s =
      io::csv_to_string({{"a", {1.0}, {}}, {"b", {2.0, 3.0}, {}}});
  EXPECT_EQ(s, "a,b\n1,2\n,3\n");
}

TEST(Csv, FullPrecisionRoundTrip) {
  const double v = 1.2345678901234567e-7;
  const std::string s = io::csv_to_string({{"x", {v}, {}}});
  double parsed = 0.0;
  sscanf(s.c_str(), "x\n%lf", &parsed);
  EXPECT_DOUBLE_EQ(parsed, v);
}

TEST(Csv, NonFiniteValuesGetCanonicalSpellings) {
  // Stream insertion of non-finite doubles is platform text ("-nan(ind)",
  // "1.#INF", ...); the writer must emit the canonical spellings so sweep
  // reports with legitimately non-finite metric cells stay parseable.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string s =
      io::csv_to_string({{"x", {nan, inf, -inf, 1.5}, {}}});
  EXPECT_EQ(s, "x\nnan\ninf\n-inf\n1.5\n");
}

TEST(Csv, NonFiniteRoundTripThroughParse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string s =
      io::csv_to_string({{"x", {nan, inf, -inf, -0.0, 2.25}, {}}});
  const auto rows = io::parse_csv(s);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_TRUE(std::isnan(io::csv_parse_number(rows[1][0])));
  EXPECT_EQ(io::csv_parse_number(rows[2][0]), inf);
  EXPECT_EQ(io::csv_parse_number(rows[3][0]), -inf);
  EXPECT_EQ(io::csv_parse_number(rows[4][0]), 0.0);
  EXPECT_DOUBLE_EQ(io::csv_parse_number(rows[5][0]), 2.25);
}

TEST(Csv, FormatNumberRoundTripsExactly) {
  // csv_format_number / csv_parse_number is the repro-artifact contract:
  // bit-exact for finite doubles, canonical for non-finite.
  const double cases[] = {1.2345678901234567e-7, -0.1, 1e308, 5e-324, 0.0};
  for (const double v : cases) {
    EXPECT_EQ(io::csv_parse_number(io::csv_format_number(v)), v);
  }
  EXPECT_EQ(io::csv_format_number(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(io::csv_format_number(-std::numeric_limits<double>::infinity()),
            "-inf");
  EXPECT_EQ(io::csv_format_number(std::numeric_limits<double>::quiet_NaN()),
            "nan");
}

TEST(Csv, ParseNumberAcceptsCaseAndSignVariants) {
  EXPECT_TRUE(std::isnan(io::csv_parse_number("NaN")));
  EXPECT_TRUE(std::isnan(io::csv_parse_number("-nan")));
  EXPECT_EQ(io::csv_parse_number("INF"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(io::csv_parse_number("+Infinity"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(io::csv_parse_number("-Inf"),
            -std::numeric_limits<double>::infinity());
}

TEST(Csv, ParseNumberRejectsGarbage) {
  EXPECT_THROW((void)io::csv_parse_number(""), ConfigError);
  EXPECT_THROW((void)io::csv_parse_number("-"), ConfigError);
  EXPECT_THROW((void)io::csv_parse_number("1.5x"), ConfigError);
  EXPECT_THROW((void)io::csv_parse_number("nanx"), ConfigError);
  EXPECT_THROW((void)io::csv_parse_number("not-a-number"), ConfigError);
}

/// Numeric punctuation copied from a C locale's lconv: what a named
/// std::locale of the same locale gives ostreams.
class LconvNumpunct final : public std::numpunct<char> {
 public:
  explicit LconvNumpunct(const struct lconv& lc)
      : point_(lc.decimal_point[0]),
        sep_(lc.thousands_sep[0]),
        grouping_(lc.grouping) {}

 private:
  char do_decimal_point() const override { return point_; }
  char do_thousands_sep() const override { return sep_; }
  std::string do_grouping() const override { return grouping_; }

  char point_;
  char sep_;
  std::string grouping_;
};

TEST(Csv, ParseNumberIsLocaleIndependent) {
  // Regression, both directions. Parsing: csv_parse_number used std::strtod,
  // which honours the process locale — under a comma-decimal locale
  // (de_DE.UTF-8) "3.14" stopped parsing at the '.' and the round-trip
  // broke; std::from_chars always reads the C-locale format. Writing:
  // json_number's snprintf("%.17g") followed the C locale (3.14 became the
  // invalid JSON "3,1400000000000001"), and the CSV writers' ostream
  // followed the C++ global locale (1234.5 became "1.234,5", which splits a
  // cell); both now go through std::to_chars. The test compiles its own
  // de_DE.UTF-8 with localedef into a private LOCPATH (glibc's locale
  // sources, the Debian `locales` package), so it runs on any such host and
  // fails, rather than skips, where it cannot.
  const std::string dir =
      ::testing::TempDir() + "citl_locale_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string localedef =
      "localedef -i de_DE -f UTF-8 '" + dir + "/de_DE.UTF-8' >/dev/null 2>&1";
  const int built = std::system(localedef.c_str());
  if (built != 0) std::filesystem::remove_all(dir);
  ASSERT_EQ(built, 0) << "localedef could not build de_DE.UTF-8";

  // What the writers print, and what the parser reads back, under the
  // current locales.
  struct Outputs {
    double parsed = 0.0;
    double roundtrip = 0.0;
    std::string json;
    std::string cell;
    std::string csv;
  };
  const auto capture = [](Outputs& o) {
    o.json = io::json_number(3.14);
    o.cell = io::csv_format_number(1234.5);
    o.csv = io::csv_to_string({{"x", {1234.5}, {}}});
    o.parsed = io::csv_parse_number("3.14");
    o.roundtrip = io::csv_parse_number(io::csv_format_number(0.1 + 0.2));
  };

  // glibc reads LOCPATH whenever a locale is loaded. The C locale (snprintf,
  // strtod) is switched first, then the C++ global locale (ostreams) takes
  // its numeric punctuation. A named std::locale would load de_DE.UTF-8 a
  // second time through newlocale, which leaks its copy of LOCPATH inside
  // glibc and fails the ASan job's leak check. Both locales are restored
  // before any assertion can return early, and so is a throw.
  const char* old = std::setlocale(LC_ALL, nullptr);
  const std::string saved = old != nullptr ? old : "C";
  const std::locale saved_global;
  ::setenv("LOCPATH", dir.c_str(), 1);
  bool switched = false;
  bool comma_locale = false;
  bool global_switched = false;
  Outputs c_de;
  Outputs cxx_de;
  std::string thrown;
  try {
    switched = std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr;
    const struct lconv* lc = std::localeconv();
    comma_locale = lc != nullptr && lc->decimal_point != nullptr &&
                   lc->decimal_point[0] == ',';
    capture(c_de);
    if (comma_locale) {
      std::locale::global(
          std::locale(std::locale::classic(), new LconvNumpunct(*lc)));
      global_switched = true;
    }
    capture(cxx_de);
  } catch (const std::exception& e) {
    thrown = e.what();
  }
  std::locale::global(saved_global);
  std::setlocale(LC_ALL, saved.c_str());
  ::unsetenv("LOCPATH");
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(switched) << "setlocale refused the generated de_DE.UTF-8";
  ASSERT_TRUE(comma_locale) << "locale accepted but decimal point is not ','";
  EXPECT_EQ(thrown, "") << "thrown under the "
                        << (global_switched ? "C++ global" : "C")
                        << " locale de_DE.UTF-8";
  const auto expect_c_format = [](const Outputs& o, const char* under) {
    SCOPED_TRACE(under);
    EXPECT_EQ(o.parsed, 3.14);
    EXPECT_EQ(o.roundtrip, 0.1 + 0.2);
    EXPECT_EQ(o.json, "3.1400000000000001");
    EXPECT_EQ(o.cell, "1234.5");
    EXPECT_EQ(o.csv, "x\n1234.5\n");
  };
  expect_c_format(c_de, "C locale de_DE.UTF-8");
  ASSERT_TRUE(global_switched);
  expect_c_format(cxx_de, "C++ global locale with de_DE.UTF-8 punctuation");
}

TEST(Csv, NumberFormatIsPrintfG17InTheCLocale) {
  // The writers' one number helper prints byte for byte what "%.17g" prints
  // in the C locale, through every spelling class: signed zero, the
  // smallest subnormal, inexact decimals, an integer past 2^53, a huge
  // exponent and an exact binary fraction.
  for (const double v :
       {-0.0, 5e-324, 0.1, 1.0 / 3.0, 9007199254740993.0, 1e300,
        123456789.125}) {
    char want[32];
    std::snprintf(want, sizeof want, "%.17g", v);
    std::string got;
    io::append_number(got, v);
    EXPECT_EQ(got, want);
    EXPECT_EQ(io::json_number(v), want);
    EXPECT_EQ(io::csv_format_number(v), want);
  }
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "citl_test.csv";
  io::write_csv(path, {{"x", {1.0, 2.0, 3.0}, {}}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(io::write_csv("/nonexistent-dir/file.csv", {{"x", {}, {}}}),
               ConfigError);
}

TEST(Csv, EscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(io::csv_escape("plain"), "plain");
  EXPECT_EQ(io::csv_escape(""), "");
  EXPECT_EQ(io::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(io::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(io::csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(io::csv_escape("cr\rlf"), "\"cr\rlf\"");
}

TEST(Csv, TextColumnsAreQuotedInOutput) {
  io::Column names{"scenario, detailed", {}, {"g=-3.5, jump=8deg", "plain"}};
  io::Column vals{"x", {1.0, 2.0}, {}};
  const std::string s = io::csv_to_string({names, vals});
  EXPECT_EQ(s,
            "\"scenario, detailed\",x\n"
            "\"g=-3.5, jump=8deg\",1\n"
            "plain,2\n");
}

TEST(Csv, ParseIsInverseOfEscape) {
  // Every RFC 4180 hazard in one table: commas, quotes, embedded LF and
  // CRLF inside quoted fields, an empty field, and a CRLF row terminator.
  const std::vector<std::vector<std::string>> table{
      {"name", "note"},
      {"a,b", "say \"hi\""},
      {"multi\nline", ""},
      {"crlf\r\ninside", "end"},
  };
  std::string text;
  for (const auto& row : table) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) text += ',';
      text += io::csv_escape(row[c]);
    }
    text += "\r\n";  // writer uses LF; the parser must take CRLF too
  }
  EXPECT_EQ(io::parse_csv(text), table);
}

TEST(Csv, ParseRoundTripsSweepStyleOutput) {
  io::Column names{"name", {}, {"jump=8deg, g=-3.5", "healthy \"ref\""}};
  io::Column metric{"f_sync_measured_hz", {1279.5, 1280.25}, {}};
  const std::string s = io::csv_to_string({names, metric});
  const auto rows = io::parse_csv(s);
  ASSERT_EQ(rows.size(), 3u);  // header + 2 data rows; no phantom last row
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "name");
  EXPECT_EQ(rows[1][0], "jump=8deg, g=-3.5");
  EXPECT_EQ(rows[2][0], "healthy \"ref\"");
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 1279.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 1280.25);
}

TEST(Csv, ParseHandlesMissingTrailingNewline) {
  const auto rows = io::parse_csv("a,b\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(TableTest, AlignedRender) {
  io::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  // All lines equal length (alignment).
  std::size_t first_len = s.find('\n');
  std::size_t pos = 0;
  for (int line = 0; line < 4; ++line) {
    const std::size_t next = s.find('\n', pos);
    ASSERT_NE(next, std::string::npos);
    EXPECT_EQ(next - pos, first_len) << "line " << line;
    pos = next + 1;
  }
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(io::Table::num(1.23456789, 4), "1.235");
  EXPECT_EQ(io::Table::num(1280.0, 4), "1280");
}

TEST(TableTest, ShortRowsPadded) {
  io::Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(AsciiPlot, ContainsMarksAndAxes) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(std::sin(0.1 * i));
  }
  io::PlotOptions options;
  options.width = 60;
  options.height = 10;
  options.title = "wave";
  const std::string p = io::ascii_plot(x, y, options);
  EXPECT_NE(p.find("wave"), std::string::npos);
  EXPECT_NE(p.find('*'), std::string::npos);
  EXPECT_NE(p.find('+'), std::string::npos);
}

TEST(AsciiPlot, OverlayUsesDistinctMarks) {
  std::vector<double> x{0, 1, 2, 3}, y1{0, 1, 0, -1}, y2{1, 0, -1, 0};
  io::PlotOptions options;
  options.width = 40;
  options.height = 8;
  const std::string p = io::ascii_plot2(x, y1, x, y2, options);
  EXPECT_NE(p.find('*'), std::string::npos);
  EXPECT_NE(p.find('o'), std::string::npos);
}

TEST(AsciiPlot, HandlesConstantSeries) {
  std::vector<double> x{0, 1, 2}, y{5, 5, 5};
  EXPECT_NO_THROW(io::ascii_plot(x, y));
}

TEST(TraceTest, DecimationAndCap) {
  hil::Trace t("x", 10, 3);
  for (int i = 0; i < 100; ++i) t.push(i * 0.1, i);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.full());
  EXPECT_DOUBLE_EQ(t.values()[0], 0.0);
  EXPECT_DOUBLE_EQ(t.values()[1], 10.0);
  EXPECT_DOUBLE_EQ(t.values()[2], 20.0);
}

TEST(TraceTest, ClearResets) {
  hil::Trace t("x", 1, 0);
  t.push(0.0, 1.0);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  t.push(1.0, 2.0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(ParamBus, DefaultsAndRoundTrip) {
  hil::ParameterBus bus;
  EXPECT_TRUE(bus.has("beam_pulse_scale"));
  EXPECT_DOUBLE_EQ(bus.get("beam_pulse_scale"), 1.0);
  bus.set("beam_pulse_scale", 0.5);
  EXPECT_DOUBLE_EQ(bus.get("beam_pulse_scale"), 0.5);
  // Unknown registers report through the library's error hierarchy.
  EXPECT_THROW((void)bus.get("nope"), citl::Error);
  EXPECT_THROW((void)bus.handle("nope"), citl::Error);

  // A handle reads the same storage set() writes, across later insertions.
  const hil::ParameterBus::Handle h = bus.handle("beam_pulse_scale");
  bus.set("aaa_added_before", 1.0);
  bus.set("zzz_added_after", 2.0);
  bus.set("beam_pulse_scale", 0.25);
  EXPECT_DOUBLE_EQ(hil::ParameterBus::get(h), 0.25);
}

TEST(ParamBus, MonitorSelection) {
  hil::ParameterBus bus;
  EXPECT_EQ(bus.monitor_source(), hil::MonitorSource::kPhaseDifference);
  bus.select_monitor(hil::MonitorSource::kBeamSignalMirror);
  EXPECT_EQ(bus.monitor_source(), hil::MonitorSource::kBeamSignalMirror);
}

}  // namespace
}  // namespace citl
