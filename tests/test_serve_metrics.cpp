// The serving stack's /metrics contract (docs/SERVING.md "Metrics").
//
// ServeMetrics.ExpositionPin drives one fixed scenario through the server
// over loopback TCP — journaling on, a retried create nonce, a retried step
// sequence number, a duplicated request id, one admission rejection, a
// parameter write, a destroy and one malformed frame — and pins the
// exposition text it leaves behind:
//   * the text is valid Prometheus 0.0.4 with exactly one `# TYPE` line per
//     family, typed before its first sample, each family in one group;
//   * the citl_serve_* families are exactly the ones docs/SERVING.md's
//     series table lists, with the table's types;
//   * every value equals what RuntimeStats / SessionInfo report and what the
//     scenario implies.
//
// ServeObs.ByteIdenticalObservabilityOnOff extends the obs-on ≡ obs-off
// contract (docs/OBSERVABILITY.md) to wire sessions: the same scripted
// session, journaled, answers byte-identical step responses and writes a
// byte-identical journal whether the process-wide registry, tracer and
// flight recorder are off or on.
//
// Named Serve* so the TSan CI job runs them with the rest of the server
// tests.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "serve/runtime.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

using namespace citl;

namespace {

/// The one call that fetches the exposition text under test.
std::string exposition(serve::SessionServer& server) {
  return server.runtime().prometheus_text();
}

struct ParsedExposition {
  std::map<std::string, double> samples;     ///< series (name{labels}) → value
  std::map<std::string, std::string> types;  ///< family → counter/gauge/...
};

double parse_value(const std::string& v) {
  if (v == "NaN") return std::nan("");
  if (v == "+Inf") return HUGE_VAL;
  if (v == "-Inf") return -HUGE_VAL;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  EXPECT_EQ(*end, '\0') << "bad sample value: " << v;
  return d;
}

struct SampleLine {
  std::string name;    ///< metric name
  std::string labels;  ///< the `{...}` block, or empty
  std::string value;
};

/// Splits a sample line `name{labels} value`: the name is
/// [a-zA-Z_:][a-zA-Z0-9_:]*, the optional label block holds no braces, and
/// the value is NaN, +Inf, -Inf or [-+]?[0-9][0-9eE.+-]*. Any other line
/// gives nullopt.
std::optional<SampleLine> split_sample(const std::string& line) {
  const auto name_char = [](char c, bool first) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalpha(u) || c == '_' || c == ':' ||
           (!first && std::isdigit(u));
  };
  std::size_t i = 0;
  while (i < line.size() && name_char(line[i], i == 0)) ++i;
  if (i == 0) return std::nullopt;
  SampleLine out;
  out.name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find_first_of("{}", i + 1);
    if (close == std::string::npos || line[close] != '}') return std::nullopt;
    out.labels = line.substr(i, close + 1 - i);
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return std::nullopt;
  out.value = line.substr(i + 1);
  const std::string& v = out.value;
  if (v == "NaN" || v == "+Inf" || v == "-Inf") return out;
  const std::size_t d = !v.empty() && (v[0] == '+' || v[0] == '-') ? 1 : 0;
  if (d >= v.size() || !std::isdigit(static_cast<unsigned char>(v[d])) ||
      v.find_first_not_of("0123456789eE.+-", d) != std::string::npos) {
    return std::nullopt;
  }
  return out;
}

/// Parses Prometheus 0.0.4 text, failing the test on any structural
/// violation: a line that is neither `# TYPE`/`# HELP` nor a sample, a
/// second `# TYPE` line for a family, a sample before its family's `# TYPE`,
/// a family split into two groups, or a duplicated series.
ParsedExposition parse_exposition(const std::string& text) {
  ParsedExposition out;
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::set<std::string> finished;  ///< families whose group has ended
  std::string current;             ///< family of the group being read
  const auto enter = [&](const std::string& family, const std::string& line) {
    if (family == current) return;
    EXPECT_EQ(finished.count(family), 0u)
        << "family " << family << " split into two groups at: " << line;
    if (!current.empty()) finished.insert(current);
    current = family;
  };
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string family, type, extra;
      words >> family >> type;
      EXPECT_FALSE(words >> extra) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      EXPECT_EQ(out.types.count(family), 0u)
          << "second # TYPE line for " << family;
      enter(family, line);
      out.types[family] = type;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    const std::optional<SampleLine> sample = split_sample(line);
    if (!sample) {
      ADD_FAILURE() << "not a Prometheus 0.0.4 line: '" << line << "'";
      continue;
    }
    std::string family = sample->name;
    for (const char* suffix : {"_bucket", "_count", "_sum"}) {
      const std::string s = suffix;
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0) {
        const std::string base = family.substr(0, family.size() - s.size());
        const auto it = out.types.find(base);
        if (it != out.types.end() && it->second == "histogram") family = base;
      }
    }
    EXPECT_EQ(out.types.count(family), 1u)
        << "sample before its # TYPE line: " << line;
    enter(family, line);
    const std::string series = sample->name + sample->labels;
    EXPECT_EQ(out.samples.count(series), 0u) << "duplicate series " << series;
    out.samples[series] = parse_value(sample->value);
  }
  return out;
}

/// The citl_serve_* families docs/SERVING.md's "Metrics" table lists, with
/// their documented types. A cell may abbreviate a second family by its
/// differing tail (`citl_serve_frames_received_total` / `_sent_total`): the
/// tail replaces as many trailing `_` segments of the previous name.
std::map<std::string, std::string> documented_serve_families() {
  std::ifstream in(CITL_SERVING_DOC);
  EXPECT_TRUE(in.good()) << "cannot read " << CITL_SERVING_DOC;
  std::map<std::string, std::string> out;
  bool in_metrics = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) in_metrics = line == "## Metrics";
    if (!in_metrics || line.rfind("| `citl_serve_", 0) != 0) continue;
    std::vector<std::string> cells;
    std::size_t start = 1;
    for (std::size_t bar; (bar = line.find('|', start)) != std::string::npos;
         start = bar + 1) {
      cells.push_back(line.substr(start, bar - start));
    }
    if (cells.size() < 2) continue;
    // The type is the first plain word among the later cells.
    std::string type;
    for (std::size_t c = 1; c < cells.size() && type.empty(); ++c) {
      std::istringstream words(cells[c]);
      std::string w;
      words >> w;
      if (w == "counter" || w == "gauge" || w == "histogram") type = w;
    }
    std::string prev;
    std::size_t pos = 0;
    while ((pos = cells[0].find('`', pos)) != std::string::npos) {
      const std::size_t close = cells[0].find('`', pos + 1);
      if (close == std::string::npos) break;
      std::string name = cells[0].substr(pos + 1, close - pos - 1);
      pos = close + 1;
      name = name.substr(0, name.find('{'));
      if (name.rfind("citl_serve_", 0) == 0) {
        prev = name;
      } else if (!name.empty() && name[0] == '_' && !prev.empty()) {
        std::string stem = prev;
        for (char ch : name) {
          if (ch == '_') stem = stem.substr(0, stem.rfind('_'));
        }
        name = stem + name;
      } else {
        continue;
      }
      out[name] = type;
    }
  }
  return out;
}

/// A raw citl-wire-v1 peer: the test controls request ids, nonces and step
/// sequence numbers directly, which is what retries look like on the wire.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    timeval tv{};
    tv.tv_sec = 10;  // a lost response fails the test instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawPeer() { ::close(fd_); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Blocks for the next response frame; an empty optional means the
  /// server closed the connection (or the receive timed out).
  std::optional<serve::Frame> receive() {
    for (;;) {
      if (auto frame = parser_.next()) return frame;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      parser_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Sends a request with a fresh request id and returns its response.
  serve::Frame call(serve::Opcode op, std::uint32_t session_id,
                    serve::WireWriter w = {}) {
    serve::Frame req;
    req.opcode = op;
    req.request_id = ++last_request_id_;
    req.session_id = session_id;
    req.payload = w.take();
    last_request_ = serve::encode_frame(req);
    send(last_request_);
    auto resp = receive();
    EXPECT_TRUE(resp.has_value())
        << "no response to " << serve::opcode_name(op);
    if (!resp) return {};
    EXPECT_EQ(resp->request_id, req.request_id);
    return *resp;
  }

  /// The encoded bytes of the last call(), for re-sending them verbatim.
  [[nodiscard]] const std::vector<std::uint8_t>& last_request() const {
    return last_request_;
  }

 private:
  int fd_;
  bool connected_ = false;
  serve::FrameParser parser_;
  std::uint32_t last_request_id_ = 0;
  std::vector<std::uint8_t> last_request_;
};

serve::WireWriter create_payload(const api::SessionConfig& config,
                                 std::uint64_t nonce) {
  serve::WireWriter w;
  serve::encode_session_config(w, config);
  if (nonce != 0) w.u64(nonce);
  return w;
}

serve::WireWriter step_payload(std::uint32_t turns, std::uint64_t seq) {
  serve::WireWriter w;
  w.u32(turns);
  w.u64(seq);
  return w;
}

}  // namespace

TEST(ServeMetrics, ExpositionPin) {
  const std::string dir = ::testing::TempDir() + "citl_serve_metrics_pin";
  std::filesystem::remove_all(dir);

  serve::ServerConfig sc;
  sc.workers = 2;
  sc.runtime.max_sessions = 2;
  sc.runtime.state_dir = dir;
  serve::SessionServer server(sc);
  server.start();

  const api::SessionConfig config;  // quiet point: one shared kernel
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.connected());
  using serve::Opcode;
  ASSERT_EQ(peer.call(Opcode::kHello, 0).status, ErrorCode::kOk);

  // Create with a nonce, then retry it under a new request id: the nonce
  // dedupes it to the same session.
  const serve::Frame a = peer.call(Opcode::kCreateSession, 0,
                                   create_payload(config, 0x5eed));
  ASSERT_EQ(a.status, ErrorCode::kOk);
  const std::uint32_t id_a = a.session_id;
  const serve::Frame a_retry = peer.call(Opcode::kCreateSession, 0,
                                         create_payload(config, 0x5eed));
  ASSERT_EQ(a_retry.status, ErrorCode::kOk);
  EXPECT_EQ(a_retry.session_id, id_a);

  const serve::Frame b =
      peer.call(Opcode::kCreateSession, 0, create_payload(config, 0));
  ASSERT_EQ(b.status, ErrorCode::kOk);
  const std::uint32_t id_b = b.session_id;
  ASSERT_NE(id_b, id_a);
  EXPECT_EQ(peer.call(Opcode::kCreateSession, 0, create_payload(config, 0))
                .status,
            ErrorCode::kAdmissionRejected);  // max_sessions = 2

  // Exactly-once steps: seq 1 twice (the retry is answered from the cache),
  // then seq 2.
  const serve::Frame s1 = peer.call(Opcode::kStep, id_a, step_payload(50, 1));
  ASSERT_EQ(s1.status, ErrorCode::kOk);
  const serve::Frame s1_retry =
      peer.call(Opcode::kStep, id_a, step_payload(50, 1));
  ASSERT_EQ(s1_retry.status, ErrorCode::kOk);
  EXPECT_EQ(s1_retry.payload, s1.payload);
  ASSERT_EQ(peer.call(Opcode::kStep, id_a, step_payload(30, 2)).status,
            ErrorCode::kOk);

  serve::WireWriter param;
  param.str("v_scale");
  param.f64(1.25);
  ASSERT_EQ(peer.call(Opcode::kSetParam, id_a, std::move(param)).status,
            ErrorCode::kOk);
  ASSERT_EQ(peer.call(Opcode::kStep, id_b, step_payload(20, 0)).status,
            ErrorCode::kOk);

  // Destroy B, then re-send the identical destroy frame (same request id):
  // the connection's response cache answers it without executing it again.
  const serve::Frame destroyed = peer.call(Opcode::kDestroySession, id_b);
  ASSERT_EQ(destroyed.status, ErrorCode::kOk);
  peer.send(peer.last_request());
  const auto duplicate = peer.receive();
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_EQ(duplicate->request_id, destroyed.request_id);
  EXPECT_EQ(duplicate->status, ErrorCode::kOk);

  // A second peer sends a frame of an unknown wire version: a kBadFrame
  // answer, then the server closes that connection.
  {
    RawPeer bad(server.port());
    ASSERT_TRUE(bad.connected());
    serve::Frame frame;
    frame.version = 99;
    bad.send(serve::encode_frame(frame));
    const auto answer = bad.receive();
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->status, ErrorCode::kBadFrame);
    EXPECT_FALSE(bad.receive().has_value());
  }

  // The loop thread counts a close just after it closes the socket, so wait
  // for the count instead of racing it.
  std::string text;
  ParsedExposition got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    text = exposition(server);
    got = parse_exposition(text);
    const auto closed = got.samples.find("citl_serve_connections_closed_total");
    if (closed != got.samples.end() && closed->second == 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  SCOPED_TRACE(text);

  // Families: exactly the documented ones, with the documented types.
  const std::map<std::string, std::string> documented =
      documented_serve_families();
  EXPECT_EQ(documented.size(), 23u);
  std::map<std::string, std::string> exposed;
  for (const auto& [family, type] : got.types) {
    if (family.rfind("citl_serve_", 0) == 0) exposed[family] = type;
  }
  EXPECT_EQ(exposed, documented);

  // Per-session gauges: one series per live session, destroyed ones gone.
  const std::string a_label = "{session=\"" + std::to_string(id_a) + "\"}";
  const serve::SessionInfo info = server.runtime().info(id_a);
  for (const auto& [series, value] : got.samples) {
    if (series.find('{') == std::string::npos) continue;
    if (series.rfind("citl_serve_", 0) != 0) continue;
    EXPECT_TRUE(series == "citl_serve_session_occupancy" + a_label ||
                series == "citl_serve_session_turn" + a_label)
        << "unexpected labelled series " << series;
  }
  EXPECT_EQ(got.samples.at("citl_serve_session_turn" + a_label), 80.0);
  EXPECT_EQ(info.turn, 80);
  EXPECT_EQ(got.samples.at("citl_serve_session_occupancy" + a_label),
            info.occupancy_estimate);

  // Values: the runtime's own stats and the scenario's arithmetic.
  const serve::RuntimeStats st = server.runtime().stats();
  const auto value = [&](const std::string& series) {
    const auto it = got.samples.find(series);
    EXPECT_NE(it, got.samples.end()) << "missing " << series;
    return it == got.samples.end() ? std::nan("") : it->second;
  };
  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };
  EXPECT_EQ(value("citl_serve_sessions_active"), 1.0);
  EXPECT_EQ(value("citl_serve_sessions_active"), as_double(st.active_sessions));
  EXPECT_EQ(value("citl_serve_sessions_created_total"), 2.0);
  EXPECT_EQ(value("citl_serve_sessions_created_total"),
            as_double(st.sessions_created));
  EXPECT_EQ(value("citl_serve_sessions_destroyed_total"), 1.0);
  EXPECT_EQ(value("citl_serve_sessions_destroyed_total"),
            as_double(st.sessions_destroyed));
  EXPECT_EQ(value("citl_serve_admission_rejected_total"), 1.0);
  EXPECT_EQ(value("citl_serve_admission_rejected_total"),
            as_double(st.admission_rejections));
  EXPECT_EQ(value("citl_serve_step_requests_total"), 4.0);
  EXPECT_EQ(value("citl_serve_step_requests_total"),
            as_double(st.step_requests));
  EXPECT_EQ(value("citl_serve_turns_total"), 100.0);
  EXPECT_EQ(value("citl_serve_turns_total"), as_double(st.turns_stepped));
  EXPECT_EQ(value("citl_serve_kernel_compilations_total"), 1.0);
  EXPECT_EQ(value("citl_serve_kernel_compilations_total"),
            as_double(st.kernel_compilations));
  EXPECT_EQ(value("citl_serve_occupancy_admitted"), st.occupancy_admitted);
  EXPECT_EQ(value("citl_serve_occupancy_admitted"), info.occupancy_estimate);
  EXPECT_EQ(value("citl_serve_sessions_recovered_total"), 0.0);
  EXPECT_EQ(value("citl_serve_sessions_recovered_total"),
            as_double(st.sessions_recovered));
  EXPECT_EQ(value("citl_serve_sessions_reaped_total"), 0.0);
  EXPECT_EQ(value("citl_serve_sessions_reaped_total"),
            as_double(st.sessions_reaped));
  // A: config, step 1, step 2, param; B: config, step.
  EXPECT_EQ(value("citl_serve_journal_records_total"), 6.0);
  EXPECT_EQ(value("citl_serve_journal_records_total"),
            as_double(st.journal_records));
  EXPECT_GT(value("citl_serve_journal_bytes_total"), 0.0);
  EXPECT_EQ(value("citl_serve_journal_bytes_total"),
            as_double(st.journal_bytes));
  EXPECT_EQ(value("citl_serve_journals_corrupt_total"), 0.0);
  EXPECT_EQ(value("citl_serve_journals_corrupt_total"),
            as_double(st.journals_corrupt));
  EXPECT_EQ(value("citl_serve_step_replays_total"), 1.0);
  EXPECT_EQ(value("citl_serve_step_replays_total"),
            as_double(st.step_replays));

  // The endpoint: two connections, one closed by the server; twelve
  // requests on the good one (hello, three creates plus the retry, four
  // steps, the param write, the destroy and its duplicate), each answered,
  // plus the bad frame's answer.
  EXPECT_EQ(value("citl_serve_connections_accepted_total"), 2.0);
  EXPECT_EQ(value("citl_serve_connections_closed_total"), 1.0);
  EXPECT_EQ(value("citl_serve_frames_received_total"), 12.0);
  EXPECT_EQ(value("citl_serve_frames_sent_total"), 13.0);
  EXPECT_EQ(value("citl_serve_bad_frames_total"), 1.0);
  EXPECT_EQ(value("citl_serve_duplicate_requests_total"), 1.0);
  EXPECT_EQ(value("citl_serve_read_deadline_closed_total"), 0.0);

  server.stop();
  std::filesystem::remove_all(dir);
}

namespace {

struct WireSessionBytes {
  std::vector<std::vector<std::uint8_t>> step_responses;  ///< encoded frames
  std::vector<std::uint8_t> journal;
};

/// One scripted, journaled wire session on a fresh server: steps around a
/// phase jump with a parameter write, a snapshot/restore, a control toggle
/// and periodic checkpoint records in between.
WireSessionBytes run_scripted_wire_session(const std::string& dir) {
  std::filesystem::remove_all(dir);
  serve::ServerConfig sc;
  sc.workers = 2;
  sc.runtime.state_dir = dir;
  sc.runtime.checkpoint_interval_turns = 256;
  serve::SessionServer server(sc);
  server.start();

  WireSessionBytes out;
  RawPeer peer(server.port());
  EXPECT_TRUE(peer.connected());
  using serve::Opcode;
  EXPECT_EQ(peer.call(Opcode::kHello, 0).status, ErrorCode::kOk);
  api::SessionConfig config = api::paper_operating_point();
  config.jump_start_s = 0.2e-3;
  const serve::Frame created =
      peer.call(Opcode::kCreateSession, 0, create_payload(config, 0xc171));
  EXPECT_EQ(created.status, ErrorCode::kOk);
  const std::uint32_t id = created.session_id;
  std::uint64_t seq = 0;
  const auto step = [&](std::uint32_t turns) {
    const serve::Frame resp =
        peer.call(Opcode::kStep, id, step_payload(turns, ++seq));
    EXPECT_EQ(resp.status, ErrorCode::kOk);
    out.step_responses.push_back(serve::encode_frame(resp));
  };

  step(300);
  serve::WireWriter param;
  param.str("v_scale");
  param.f64(1.1);
  EXPECT_EQ(peer.call(Opcode::kSetParam, id, std::move(param)).status,
            ErrorCode::kOk);
  step(300);
  const serve::Frame snap = peer.call(Opcode::kSnapshot, id);
  EXPECT_EQ(snap.status, ErrorCode::kOk);
  step(200);
  serve::WireWriter restore;
  restore.u32(1);  // the session's first snapshot id
  EXPECT_EQ(peer.call(Opcode::kRestore, id, std::move(restore)).status,
            ErrorCode::kOk);
  step(200);
  serve::WireWriter control;
  control.u8(0);
  EXPECT_EQ(peer.call(Opcode::kEnableControl, id, std::move(control)).status,
            ErrorCode::kOk);
  step(100);
  server.stop();

  const std::string path =
      dir + "/session-" + std::to_string(id) + ".journal";
  std::ifstream in(path, std::ios::binary);
  out.journal.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  std::filesystem::remove_all(dir);
  return out;
}

std::uint64_t occupancy_observations() {
  for (const auto& h : obs::Registry::global().snapshot().histograms) {
    if (h.name == "hil.deadline.occupancy") return h.count;
  }
  return 0;
}

}  // namespace

TEST(ServeObs, ByteIdenticalObservabilityOnOff) {
  const std::string dir = ::testing::TempDir() + "citl_serve_obs_on_off";
  obs::Registry& registry = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const bool registry_was_enabled = registry.enabled();
  const bool tracer_was_enabled = tracer.enabled();
  const bool recorder_was_enabled = recorder.enabled();

  registry.set_enabled(false);
  tracer.set_enabled(false);
  recorder.set_enabled(false);
  const WireSessionBytes off = run_scripted_wire_session(dir);

  const std::uint64_t observed_before = occupancy_observations();
  registry.set_enabled(true);
  tracer.set_enabled(true);
  recorder.set_enabled(true);
  const WireSessionBytes on = run_scripted_wire_session(dir);

  // Restore the global switches before asserting, so a failure cannot leak
  // settings into other tests.
  const std::uint64_t observed = occupancy_observations() - observed_before;
  const std::size_t traced = tracer.event_count();
  const std::size_t recorded = recorder.event_count();
  registry.set_enabled(registry_was_enabled);
  tracer.set_enabled(tracer_was_enabled);
  recorder.set_enabled(recorder_was_enabled);
  tracer.clear();
  recorder.clear();

  ASSERT_EQ(off.step_responses.size(), 5u);
  EXPECT_EQ(on.step_responses, off.step_responses);
  EXPECT_FALSE(off.journal.empty());
  EXPECT_EQ(on.journal, off.journal);
  // And the instrumented run did instrument: every turn fed the registry's
  // occupancy histogram, the kernel compile was traced, and the recorder
  // kept turn summaries.
  EXPECT_EQ(observed, 1100u);
  EXPECT_GT(traced, 0u);
  EXPECT_GT(recorded, 0u);
}
