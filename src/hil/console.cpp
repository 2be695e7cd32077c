#include "hil/console.hpp"

#include <iomanip>
#include <sstream>
#include <vector>

#include "api/api.hpp"
#include "cgra/attribution.hpp"
#include "cgra/schedule.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"

namespace citl::hil {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

bool parse_double(const std::string& s, double* out) {
  std::istringstream is(s);
  return static_cast<bool>(is >> *out) && is.eof();
}

constexpr const char* kHelp =
    "commands:\n"
    "  status | schedule | hotspots | deadline | metrics [on|off] | help\n"
    "  get <register> | set <register> <value>\n"
    "  param <name> [value] | state <name> [value]\n"
    "  monitor phase|beam | record on|off|clear | control on|off\n"
    "  pulse <sigma_ns> <amplitude_v> | run <seconds> | trace [n]";

}  // namespace

std::string Console::execute(const std::string& line) {
  const auto toks = tokenize(line);
  if (toks.empty()) return ok("");
  const std::string& cmd = toks[0];

  try {
    if (cmd == "help") return ok(kHelp);

    if (cmd == "status") {
      std::ostringstream os;
      os << "time: " << std::setprecision(6) << fw_.time_s() * 1e3 << " ms\n"
         << "initialised: " << (fw_.initialised() ? "yes" : "no") << '\n'
         << "control: " << (fw_.control_enabled() ? "closed" : "open") << '\n'
         << "cgra runs: " << fw_.cgra_runs() << '\n'
         << "realtime violations: " << fw_.realtime_violations() << '\n'
         << "last phase: " << std::setprecision(4)
         << rad_to_deg(fw_.last_phase_rad()) << " deg\n"
         << "phase samples recorded: " << fw_.phase_trace().size()
         << " (dropped " << fw_.phase_trace().dropped() << ")\n"
         << "beam samples recorded: " << fw_.beam_trace().size()
         << " (dropped " << fw_.beam_trace().dropped() << ")";
      return ok(os.str());
    }

    if (cmd == "schedule") {
      const auto st = cgra::schedule_stats(fw_.kernel().dfg, fw_.kernel().arch,
                                           fw_.kernel().schedule);
      std::ostringstream os;
      os << "length: " << st.length << " ticks\n"
         << "critical path: " << st.critical_path << " ticks ("
         << std::setprecision(3) << 100.0 * st.cp_efficiency
         << "% efficiency)\n"
         << "pe utilisation: " << 100.0 * st.pe_utilisation << "%\n"
         << "route hops: " << st.route_hops << '\n'
         << "busiest pe: (" << st.busiest_pe.row << ',' << st.busiest_pe.col
         << ") " << st.busiest_pe_cycles << " cycles\n"
         << "f_max: " << std::setprecision(4)
         << fw_.kernel().schedule.max_revolution_frequency_hz(
                fw_.kernel().arch.clock_hz) /
                1e6
         << " MHz";
      return ok(os.str());
    }

    if (cmd == "hotspots") {
      // Per-op cycle attribution of the running kernel, scaled by the runs
      // executed so far — §III-B's monitoring registers never told an
      // operator WHERE the schedule cycles go; this does.
      const auto profile = cgra::kernel_cycle_profile(fw_.kernel());
      return ok(cgra::hotspot_table(
          profile, static_cast<std::uint64_t>(fw_.cgra_runs())));
    }

    if (cmd == "deadline") {
      const auto st = fw_.deadline().stats();
      std::ostringstream os;
      os << "revolutions: " << st.revolutions << '\n'
         << "misses: " << st.misses << '\n'
         << std::setprecision(4)
         << "headroom min/mean/max: " << 100.0 * st.headroom_min << "% / "
         << 100.0 * st.headroom_mean << "% / " << 100.0 * st.headroom_max
         << "%\n"
         << "headroom p50/p90/p99: " << 100.0 * st.headroom_p50 << "% / "
         << 100.0 * st.headroom_p90 << "% / " << 100.0 * st.headroom_p99
         << "%\n"
         << "worst overrun: " << st.worst_overrun_cycles << " cycles";
      for (const auto& miss : fw_.deadline().worst_misses()) {
        os << "\n  miss @ rev " << miss.revolution << " t="
           << std::setprecision(6) << miss.time_s * 1e3 << " ms: "
           << std::setprecision(4) << miss.exec_cycles << " cycles vs "
           << miss.budget_cycles << " budget";
      }
      return ok(os.str());
    }

    if (cmd == "metrics" && toks.size() <= 2) {
      obs::Registry& reg = obs::Registry::global();
      if (toks.size() == 2) {
        if (toks[1] == "on") {
          reg.set_enabled(true);
          return ok("metrics enabled");
        }
        if (toks[1] == "off") {
          reg.set_enabled(false);
          return ok("metrics disabled");
        }
        return error("metrics expects on|off");
      }
      if (!reg.enabled()) {
        return ok("metrics disabled (enable with 'metrics on')");
      }
      std::string snapshot = reg.csv();
      if (!snapshot.empty() && snapshot.back() == '\n') snapshot.pop_back();
      return ok(snapshot);
    }

    if (cmd == "get" && toks.size() == 2) {
      if (!fw_.params().has(toks[1])) return error("no register " + toks[1]);
      std::ostringstream os;
      os << std::setprecision(10) << fw_.params().get(toks[1]);
      return ok(os.str());
    }

    if (cmd == "set" && toks.size() == 3) {
      double v = 0.0;
      if (!parse_double(toks[2], &v)) return error("bad value " + toks[2]);
      fw_.write_register(toks[1], v);
      return ok("set " + toks[1]);
    }

    if (cmd == "param" && (toks.size() == 2 || toks.size() == 3)) {
      if (toks.size() == 2) {
        std::ostringstream os;
        os << std::setprecision(10) << api::kernel_param(fw_.machine(), toks[1]);
        return ok(os.str());
      }
      double v = 0.0;
      if (!parse_double(toks[2], &v)) return error("bad value " + toks[2]);
      api::set_kernel_param(fw_.machine(), toks[1], v);
      return ok("param " + toks[1] + " updated");
    }

    if (cmd == "state" && (toks.size() == 2 || toks.size() == 3)) {
      if (toks.size() == 2) {
        std::ostringstream os;
        os << std::setprecision(10) << api::kernel_state(fw_.machine(), toks[1]);
        return ok(os.str());
      }
      double v = 0.0;
      if (!parse_double(toks[2], &v)) return error("bad value " + toks[2]);
      api::set_kernel_state(fw_.machine(), toks[1], v);
      return ok("state " + toks[1] + " overridden");
    }

    if (cmd == "monitor" && toks.size() == 2) {
      const auto select = [this](MonitorSource source) {
        fw_.write_register("monitor_source", static_cast<double>(source));
      };
      if (toks[1] == "phase") {
        select(MonitorSource::kPhaseDifference);
        return ok("monitor: phase difference");
      }
      if (toks[1] == "beam") {
        select(MonitorSource::kBeamSignalMirror);
        return ok("monitor: beam mirror");
      }
      return error("monitor expects 'phase' or 'beam'");
    }

    if (cmd == "record" && toks.size() == 2) {
      if (toks[1] == "on") {
        fw_.write_register("record_enable", 1.0);
        return ok("recording on");
      }
      if (toks[1] == "off") {
        fw_.write_register("record_enable", 0.0);
        return ok("recording off");
      }
      if (toks[1] == "clear") {
        fw_.beam_trace().clear();
        return ok("beam trace cleared");
      }
      return error("record expects on|off|clear");
    }

    if (cmd == "control" && toks.size() == 2) {
      if (toks[1] == "on") {
        fw_.enable_control(true);
        return ok("loop closed");
      }
      if (toks[1] == "off") {
        fw_.enable_control(false);
        return ok("loop open");
      }
      return error("control expects on|off");
    }

    if (cmd == "pulse" && toks.size() == 3) {
      double sigma_ns = 0.0, amp = 0.0;
      if (!parse_double(toks[1], &sigma_ns) || !parse_double(toks[2], &amp)) {
        return error("pulse expects <sigma_ns> <amplitude_v>");
      }
      if (sigma_ns <= 0.0 || amp <= 0.0) return error("pulse values must be positive");
      fw_.set_pulse_shape(sigma_ns * 1e-9, amp);
      return ok("pulse reshaped");
    }

    if (cmd == "run" && toks.size() == 2) {
      double seconds = 0.0;
      if (!parse_double(toks[1], &seconds) || seconds < 0.0 ||
          seconds > 10.0) {
        return error("run expects seconds in [0, 10]");
      }
      fw_.run_seconds(seconds);
      std::ostringstream os;
      os << "advanced to " << std::setprecision(6) << fw_.time_s() * 1e3
         << " ms";
      return ok(os.str());
    }

    if (cmd == "trace" && toks.size() <= 2) {
      std::size_t n = 5;
      if (toks.size() == 2) {
        double v = 0.0;
        if (!parse_double(toks[1], &v) || v < 1.0) return error("bad count");
        n = static_cast<std::size_t>(v);
      }
      const auto& trace = fw_.phase_trace();
      std::ostringstream os;
      const std::size_t begin =
          trace.size() > n ? trace.size() - n : 0;
      for (std::size_t i = begin; i < trace.size(); ++i) {
        os << std::setprecision(6) << trace.times()[i] * 1e3 << " ms  "
           << std::setprecision(4) << rad_to_deg(trace.values()[i])
           << " deg\n";
      }
      if (trace.size() == 0) os << "(no samples)";
      return ok(os.str());
    }

    return error("unknown command (try 'help')");
  } catch (const std::exception& e) {
    return error(e.what());
  }
}

}  // namespace citl::hil
