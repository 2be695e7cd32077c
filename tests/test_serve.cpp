// HIL-as-a-service: the wire protocol, the session runtime and the server.
//
// The acceptance invariants of docs/SERVING.md live here:
//   * citl-wire-v1 frames round-trip bit-exactly, and malformed input is a
//     typed kBadFrame error — never UB, never an allocation bomb;
//   * N concurrent sessions stepped through the runtime are each
//     BIT-identical to a serial hil::TurnLoop replay of the same
//     api::SessionConfig (the runtime adds no nondeterminism);
//   * a scenario run through the server over loopback TCP is byte-identical
//     to the in-process library path;
//   * admission control rejects by session count and by aggregate occupancy
//     with kAdmissionRejected, and every error crosses the wire with the
//     same ErrorCode an in-process caller would catch;
//   * a create that compiles its kernel never stalls another session's
//     requests.
//
// Every test here is named Serve* so the TSan CI job can run exactly this
// family (--gtest_filter=Serve*) against the threaded server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "cgra/codegen.hpp"
#include "core/fnv1a.hpp"
#include "hil/turnloop.hpp"
#include "serve/client.hpp"
#include "serve/runtime.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

using namespace citl;

namespace {

/// Paper operating point without the jump programme: short runs stay on the
/// smooth part of the trajectory, which keeps these tests fast.
api::SessionConfig quiet_point() { return api::SessionConfig{}; }

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool records_bit_equal(const hil::TurnRecord& a, const hil::TurnRecord& b) {
  return bit_equal(a.time_s, b.time_s) && bit_equal(a.phase_rad, b.phase_rad) &&
         bit_equal(a.dt_s, b.dt_s) && bit_equal(a.dgamma, b.dgamma) &&
         bit_equal(a.correction_hz, b.correction_hz) &&
         bit_equal(a.gap_phase_rad, b.gap_phase_rad);
}

/// The ground truth every serve path is measured against: a plain in-process
/// TurnLoop fed the same SessionConfig.
std::vector<hil::TurnRecord> serial_replay(const api::SessionConfig& config,
                                           std::int64_t turns) {
  hil::TurnLoop loop(api::to_turnloop_config(config));
  std::vector<hil::TurnRecord> out;
  out.reserve(static_cast<std::size_t>(turns));
  loop.run(turns, [&](const hil::TurnRecord& rec) { out.push_back(rec); });
  return out;
}

void expect_bit_identical(const std::vector<hil::TurnRecord>& got,
                          const std::vector<hil::TurnRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(records_bit_equal(got[i], want[i]))
        << "records diverge at turn " << i;
  }
}

}  // namespace

// --- wire protocol --------------------------------------------------------

TEST(ServeWire, FrameRoundTripPreservesEveryField) {
  serve::Frame frame;
  frame.opcode = serve::Opcode::kStep;
  frame.status = ErrorCode::kAdmissionRejected;
  frame.request_id = 0xdeadbeef;
  frame.session_id = 42;
  frame.payload = {1, 2, 3, 250, 255, 0};

  serve::FrameParser parser;
  const auto bytes = serve::encode_frame(frame);
  parser.feed(bytes.data(), bytes.size());
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, serve::kWireVersion);
  EXPECT_EQ(decoded->opcode, serve::Opcode::kStep);
  EXPECT_EQ(decoded->status, ErrorCode::kAdmissionRejected);
  EXPECT_EQ(decoded->request_id, 0xdeadbeefu);
  EXPECT_EQ(decoded->session_id, 42u);
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ServeWire, ParserSplitsCoalescedAndFragmentedStreams) {
  serve::Frame a;
  a.opcode = serve::Opcode::kHello;
  a.request_id = 1;
  serve::Frame b;
  b.opcode = serve::Opcode::kStats;
  b.request_id = 2;
  b.payload.assign(100, 0x5a);

  std::vector<std::uint8_t> stream = serve::encode_frame(a);
  const auto bb = serve::encode_frame(b);
  stream.insert(stream.end(), bb.begin(), bb.end());

  // Worst-case delivery: one byte per feed() call.
  serve::FrameParser parser;
  std::vector<serve::Frame> got;
  for (std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    while (auto f = parser.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[1].payload, b.payload);
}

TEST(ServeWire, RejectsWrongVersionShortAndOversizedFrames) {
  // Wrong version byte.
  {
    serve::Frame f;
    auto bytes = serve::encode_frame(f);
    bytes[4] = 9;
    serve::FrameParser parser;
    try {
      parser.feed(bytes.data(), bytes.size());
      (void)parser.next();
      FAIL() << "bad version accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
    }
  }
  // Length prefix shorter than the header.
  {
    const std::uint8_t bytes[] = {4, 0, 0, 0, 1, 0, 0, 0};
    serve::FrameParser parser;
    try {
      parser.feed(bytes, sizeof(bytes));
      (void)parser.next();
      FAIL() << "short frame accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
    }
  }
  // Length prefix claiming more than kMaxFrameBytes must throw immediately,
  // not wait for (or allocate) 4 GiB.
  {
    std::uint8_t bytes[4];
    const std::uint32_t huge = serve::kMaxFrameBytes + 1;
    std::memcpy(bytes, &huge, 4);
    serve::FrameParser parser;
    try {
      parser.feed(bytes, 4);
      (void)parser.next();
      FAIL() << "oversized frame accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
    }
  }
}

TEST(ServeWire, ReaderRejectsTruncationAndTrailingBytes) {
  serve::WireWriter w;
  w.u32(7);
  w.f64(1.5);
  const auto payload = w.bytes();

  serve::WireReader truncated(payload.data(), payload.size() - 1);
  (void)truncated.u32();
  try {
    (void)truncated.f64();
    FAIL() << "truncated read succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
  }

  serve::WireReader trailing(payload.data(), payload.size());
  (void)trailing.u32();
  try {
    trailing.expect_end();
    FAIL() << "trailing bytes accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
  }
}

TEST(ServeWire, DoublesAreBitTransparent) {
  // The byte-identity guarantee rests on doubles surviving the wire with
  // their exact bit pattern — including the values textual encodings mangle.
  const double specials[] = {0.0, -0.0, 5e-324 /* min denormal */,
                             -2.2250738585072014e-308, 0.1,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::quiet_NaN()};
  for (double v : specials) {
    serve::WireWriter w;
    w.f64(v);
    serve::WireReader r(w.bytes());
    EXPECT_TRUE(bit_equal(r.f64(), v));
  }

  hil::TurnRecord rec;
  rec.time_s = 1.0 / 3.0;
  rec.phase_rad = -0.0;
  rec.dt_s = 5e-324;
  rec.dgamma = -1.7976931348623157e308;
  rec.correction_hz = 1280.000000000001;
  rec.gap_phase_rad = std::numeric_limits<double>::quiet_NaN();
  serve::WireWriter w;
  serve::encode_turn_record(w, rec);
  serve::WireReader r(w.bytes());
  const hil::TurnRecord back = serve::decode_turn_record(r);
  r.expect_end();
  EXPECT_TRUE(records_bit_equal(rec, back));
}

TEST(ServeWire, StepFrameBytesArePinned) {
  // A 100-record step response in its frame, pinned byte for byte: 96
  // records of a paper-point TurnLoop, then records carrying -0.0, a NaN
  // with a payload, +-inf and subnormals. The digest was taken from the
  // per-field encoder, so any encoder must reproduce these exact bytes.
  hil::TurnLoop loop(api::to_turnloop_config(api::paper_operating_point()));
  std::vector<hil::TurnRecord> records;
  for (int i = 0; i < 96; ++i) records.push_back(loop.step());
  const auto from_bits = [](std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan_payload = from_bits(0x7ff80000deadbeefull);
  records.push_back({-0.0, nan_payload, inf, -inf, 5e-324, -0.0});
  records.push_back({nan_payload, -inf, -0.0, 2.2250738585072009e-308, inf,
                     from_bits(0xfff4000000000001ull)});
  records.push_back({inf, 0.0, -5e-324, nan_payload, -0.0, 1.0 / 3.0});
  records.push_back({-inf, 4.9406564584124654e-322, nan_payload, inf,
                     -2.2250738585072009e-308, -inf});
  ASSERT_EQ(records.size(), 100u);

  serve::WireWriter w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) serve::encode_turn_record(w, rec);
  serve::Frame frame;
  frame.opcode = serve::Opcode::kStep;
  frame.request_id = 0x01020304;
  frame.session_id = 7;
  frame.payload = w.take();
  const std::vector<std::uint8_t> bytes = serve::encode_frame(frame);
  ASSERT_EQ(bytes.size(), 4 + serve::kHeaderBytes + 4 + 100 * 48u);
  EXPECT_EQ(fnv1a(kFnv1aOffset, bytes.data(), bytes.size()),
            0xdd82c1a7d6ed130cull);

  serve::FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->opcode, serve::Opcode::kStep);
  EXPECT_EQ(decoded->status, ErrorCode::kOk);
  EXPECT_EQ(decoded->request_id, 0x01020304u);
  EXPECT_EQ(decoded->session_id, 7u);
  serve::WireReader r(decoded->payload);
  ASSERT_EQ(r.u32(), 100u);
  std::vector<hil::TurnRecord> back;
  for (int i = 0; i < 100; ++i) back.push_back(serve::decode_turn_record(r));
  r.expect_end();
  expect_bit_identical(back, records);

  // The server's encoding, written in place into its frame, and the
  // client's decoding, which checks the payload length once.
  serve::FrameWriter in_place(serve::Opcode::kStep, 0x01020304);
  serve::encode_step_records(in_place.payload(), records);
  EXPECT_EQ(in_place.finish(ErrorCode::kOk, 7), bytes);
  serve::WireReader whole(decoded->payload);
  expect_bit_identical(serve::decode_step_records(whole), records);
  for (const std::size_t len :
       {decoded->payload.size() - 1, decoded->payload.size() + 1}) {
    std::vector<std::uint8_t> bad = decoded->payload;
    bad.resize(len);
    serve::WireReader reader(bad);
    try {
      (void)serve::decode_step_records(reader);
      FAIL() << "a " << len << "-byte step payload decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
    }
  }
}

TEST(ServeWire, SessionConfigRoundTripsFieldForField) {
  api::SessionConfig c;
  c.f_ref_hz = 750.5e3;
  c.harmonic = 8;
  c.f_sync_hz = 991.25;
  c.gap_voltage_v = 4860.0;
  c.jump_amplitude_deg = 7.75;
  c.jump_start_s = 0.5e-3;
  c.jump_interval_s = 0.25;
  c.gain = -6.5;
  c.control_enabled = false;
  c.pipelined = false;
  c.cycle_accurate = true;
  c.synthesize_waveform = true;
  c.quantise_period = true;
  c.phase_noise_rad = 1.0e-4;
  c.noise_seed = 0x123456789abcdef0ull;
  c.supervised = true;

  serve::WireWriter w;
  serve::encode_session_config(w, c);
  serve::WireReader r(w.bytes());
  const api::SessionConfig back = serve::decode_session_config(r);
  r.expect_end();

  EXPECT_TRUE(bit_equal(back.f_ref_hz, c.f_ref_hz));
  EXPECT_EQ(back.harmonic, c.harmonic);
  EXPECT_TRUE(bit_equal(back.f_sync_hz, c.f_sync_hz));
  EXPECT_TRUE(bit_equal(back.gap_voltage_v, c.gap_voltage_v));
  EXPECT_TRUE(bit_equal(back.jump_amplitude_deg, c.jump_amplitude_deg));
  EXPECT_TRUE(bit_equal(back.jump_start_s, c.jump_start_s));
  EXPECT_TRUE(bit_equal(back.jump_interval_s, c.jump_interval_s));
  EXPECT_TRUE(bit_equal(back.gain, c.gain));
  EXPECT_EQ(back.control_enabled, c.control_enabled);
  EXPECT_EQ(back.pipelined, c.pipelined);
  EXPECT_EQ(back.cycle_accurate, c.cycle_accurate);
  EXPECT_EQ(back.synthesize_waveform, c.synthesize_waveform);
  EXPECT_EQ(back.quantise_period, c.quantise_period);
  EXPECT_TRUE(bit_equal(back.phase_noise_rad, c.phase_noise_rad));
  EXPECT_EQ(back.noise_seed, c.noise_seed);
  EXPECT_EQ(back.supervised, c.supervised);
}

TEST(ServeWire, MalformedFrameFuzz) {
  // Random byte soup and bit-flipped valid frames: the parser must either
  // produce frames or throw Error{kBadFrame}. Anything else — a crash, a
  // different exception type — fails the test. Seeded: failures reproduce.
  std::mt19937 rng(0xc171u);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 96);

  auto digest = [](serve::FrameParser& parser, const std::uint8_t* data,
                   std::size_t n) {
    try {
      parser.feed(data, n);
      while (parser.next().has_value()) {
      }
      return true;  // parsed (possibly waiting for more bytes)
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
      return false;  // poisoned: this parser is done
    }
  };

  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> junk(len(rng));
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    serve::FrameParser parser;
    digest(parser, junk.data(), junk.size());
  }

  // Single-byte corruptions of a well-formed frame, every position.
  serve::Frame f;
  f.opcode = serve::Opcode::kCreateSession;
  f.request_id = 7;
  f.payload = {9, 8, 7, 6, 5};
  const auto good = serve::encode_frame(f);
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    auto mutated = good;
    mutated[pos] ^= static_cast<std::uint8_t>(1 + byte(rng) % 255);
    serve::FrameParser parser;
    digest(parser, mutated.data(), mutated.size());
  }

  // Truncations of a valid frame must never yield a frame.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    serve::FrameParser parser;
    try {
      parser.feed(good.data(), cut);
      EXPECT_FALSE(parser.next().has_value()) << "frame from " << cut
                                              << " of " << good.size()
                                              << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadFrame);
    }
  }
}

// --- session runtime ------------------------------------------------------

TEST(ServeRuntime, StepMatchesSerialReplayBitForBit) {
  // Through the first phase jump (turn 800 at 800 kHz), chunked unevenly so
  // chunk boundaries are exercised.
  api::SessionConfig config = api::paper_operating_point();
  serve::SessionRuntime runtime;
  const std::uint32_t id = runtime.create(config);

  std::vector<hil::TurnRecord> got;
  for (std::uint32_t chunk : {1u, 499u, 500u, 1000u}) {
    const auto batch = runtime.step(id, chunk);
    EXPECT_EQ(batch.size(), chunk);
    got.insert(got.end(), batch.begin(), batch.end());
  }
  expect_bit_identical(got, serial_replay(config, 2000));

  const serve::SessionInfo info = runtime.info(id);
  EXPECT_EQ(info.turn, 2000);
  EXPECT_GT(info.occupancy_estimate, 0.0);
  runtime.destroy(id);
  EXPECT_EQ(runtime.stats().active_sessions, 0u);
}

TEST(ServeRuntime, SessionsShareOneKernelCompilation) {
  serve::SessionRuntime runtime;
  for (int i = 0; i < 8; ++i) runtime.create(quiet_point());
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.active_sessions, 8u);
  EXPECT_EQ(stats.kernel_compilations, 1u);
  EXPECT_EQ(stats.kernel_lookups, 8u);
}

TEST(ServeRuntime, UnknownSessionReportsNotFound) {
  serve::SessionRuntime runtime;
  try {
    (void)runtime.step(99, 1);
    FAIL() << "stepping a nonexistent session succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(ServeRuntime, AdmissionRejectsBySessionCount) {
  serve::RuntimeConfig rc;
  rc.max_sessions = 2;
  serve::SessionRuntime runtime(rc);
  runtime.create(quiet_point());
  runtime.create(quiet_point());
  try {
    runtime.create(quiet_point());
    FAIL() << "third session admitted past max_sessions=2";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmissionRejected);
  }
  EXPECT_EQ(runtime.stats().admission_rejections, 1u);

  // Destroying one frees a slot: admission is a live property, not a latch.
  runtime.destroy(1);
  EXPECT_NO_THROW(runtime.create(quiet_point()));
}

TEST(ServeRuntime, MalformedConfigOnFullPoolIsInvalidConfig) {
  // Validation precedes admission: a malformed config is refused as such
  // even when the pool has no room, and is not counted as a rejection.
  serve::RuntimeConfig rc;
  rc.max_sessions = 1;
  serve::SessionRuntime runtime(rc);
  runtime.create(quiet_point());
  api::SessionConfig bad = quiet_point();
  bad.f_ref_hz = -1.0;
  try {
    runtime.create(bad);
    FAIL() << "malformed config admitted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig) << e.what();
  }
  EXPECT_EQ(runtime.stats().admission_rejections, 0u);
}

TEST(ServeRuntime, AdmissionRejectsByOccupancyBudget) {
  // The paper kernel occupies ~0.63 of a CGRA at 800 kHz; a budget of 1.0
  // admits one session and must reject the second (2 x 0.63 > 1.0).
  serve::RuntimeConfig rc;
  rc.occupancy_budget = 1.0;
  serve::SessionRuntime runtime(rc);
  runtime.create(quiet_point());
  EXPECT_GT(runtime.stats().occupancy_admitted, 0.5);
  try {
    runtime.create(quiet_point());
    FAIL() << "session admitted past the occupancy budget";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmissionRejected);
    EXPECT_NE(std::string(e.what()).find("occupancy"), std::string::npos);
  }
  EXPECT_EQ(runtime.stats().admission_rejections, 1u);
}

TEST(ServeRuntime, StepSizeIsBounded) {
  serve::RuntimeConfig rc;
  rc.max_turns_per_step = 100;
  serve::SessionRuntime runtime(rc);
  const std::uint32_t id = runtime.create(quiet_point());
  EXPECT_NO_THROW(runtime.step(id, 100));
  try {
    (void)runtime.step(id, 101);
    FAIL() << "oversized step admitted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
  }
}

TEST(ServeRuntime, SnapshotRestoreReplaysBitExactly) {
  serve::SessionRuntime runtime;
  const std::uint32_t id = runtime.create(api::paper_operating_point());
  runtime.step(id, 700);  // park just before the jump

  const std::uint32_t snap = runtime.snapshot(id);
  const auto first = runtime.step(id, 300);   // through the jump
  runtime.restore(id, snap);
  const auto replay = runtime.step(id, 300);  // through it again
  expect_bit_identical(replay, first);

  try {
    runtime.restore(id, snap + 100);
    FAIL() << "restore of unknown snapshot succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(ServeRuntime, SnapshotCountIsBounded) {
  serve::RuntimeConfig rc;
  rc.max_snapshots_per_session = 2;
  serve::SessionRuntime runtime(rc);
  const std::uint32_t id = runtime.create(quiet_point());
  runtime.snapshot(id);
  runtime.snapshot(id);
  try {
    runtime.snapshot(id);
    FAIL() << "snapshot cap not enforced";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
  }
}

TEST(ServeRuntime, SupervisedSessionRefusesSnapshot) {
  // The supervisor's detector state is not part of the checkpoint image; a
  // partial snapshot would be a silent correctness bug, so it's refused.
  api::SessionConfig config = quiet_point();
  config.supervised = true;
  serve::SessionRuntime runtime;
  const std::uint32_t id = runtime.create(config);
  try {
    (void)runtime.snapshot(id);
    FAIL() << "supervised snapshot succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
}

TEST(ServeRuntime, ParamAccessCarriesApiErrorSemantics) {
  serve::SessionRuntime runtime;
  const std::uint32_t id = runtime.create(quiet_point());
  const double v = runtime.param(id, "v_scale");
  EXPECT_GT(v, 0.0);
  runtime.set_state(id, "dt0", 2.5e-9);
  EXPECT_TRUE(bit_equal(runtime.state(id, "dt0"),
                        static_cast<double>(static_cast<float>(2.5e-9))));
  try {
    (void)runtime.param(id, "no_such_register");
    FAIL() << "unknown parameter read succeeded";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownKey);
  }
}

TEST(ServeRuntime, ConcurrentSessionsBitIdenticalToSerialReplay) {
  // The ISSUE's acceptance criterion: N >= 16 sessions stepped concurrently,
  // each bit-identical to its serial replay. Sessions get distinct gains so
  // their trajectories differ (a shared-state bug cannot hide behind
  // identical outputs), but share one kernel (gain is a controller knob).
  // The journaled arm syncs each step on its session's sync thread while
  // the turns run, some steps sharing the sync with a compaction image; the
  // recovered pool must then resume every session bit-identically.
  constexpr int kSessions = 16;
  constexpr std::uint32_t kChunks = 5;
  constexpr std::uint32_t kChunkTurns = 120;

  std::vector<api::SessionConfig> configs(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    configs[i] = api::paper_operating_point();
    configs[i].jump_start_s = 0.1e-3;  // jump inside the short run
    configs[i].gain = -2.0 - 0.5 * i;
  }
  const std::string state_dir =
      ::testing::TempDir() + "citl_serve_concurrent_journaled";
  std::filesystem::remove_all(state_dir);

  for (const bool journaled : {false, true}) {
    SCOPED_TRACE(journaled ? "journaled" : "unjournaled");
    serve::RuntimeConfig rc;
    rc.max_concurrent_steps = 4;   // force gate contention
    rc.occupancy_budget = 16.0;    // 16 x ~0.63 exceeds the default budget
    if (journaled) {
      rc.state_dir = state_dir;
      rc.checkpoint_interval_turns = 200;  // images before steps 3 and 5
    }
    std::vector<std::uint32_t> ids(kSessions);
    {
      serve::SessionRuntime runtime(rc);
      for (int i = 0; i < kSessions; ++i) ids[i] = runtime.create(configs[i]);
      EXPECT_EQ(runtime.stats().kernel_compilations, 1u);

      std::vector<std::vector<hil::TurnRecord>> wire(kSessions);
      std::vector<std::thread> threads;
      threads.reserve(kSessions);
      for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&, i] {
          for (std::uint32_t c = 0; c < kChunks; ++c) {
            const auto batch = runtime.step(ids[i], kChunkTurns);
            wire[i].insert(wire[i].end(), batch.begin(), batch.end());
          }
        });
      }
      for (auto& t : threads) t.join();

      for (int i = 0; i < kSessions; ++i) {
        SCOPED_TRACE("session " + std::to_string(i));
        expect_bit_identical(wire[i],
                             serial_replay(configs[i], kChunks * kChunkTurns));
      }
      EXPECT_EQ(runtime.stats().turns_stepped,
                static_cast<std::uint64_t>(kSessions) * kChunks * kChunkTurns);
      // Per session: the config, five steps and two compaction images.
      EXPECT_EQ(runtime.stats().journal_records, journaled ? kSessions * 8u : 0u);
    }
    if (!journaled) continue;

    serve::SessionRuntime recovered(rc);
    ASSERT_EQ(recovered.recover(), static_cast<std::size_t>(kSessions));
    EXPECT_EQ(recovered.stats().journals_corrupt, 0u);
    for (int i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("recovered session " + std::to_string(i));
      const serve::SessionInfo info = recovered.info(ids[i]);
      EXPECT_EQ(info.turn, kChunks * kChunkTurns);
      EXPECT_EQ(info.last_step_seq, kChunks);
      const auto full = serial_replay(configs[i], (kChunks + 1) * kChunkTurns);
      expect_bit_identical(
          recovered.step(ids[i], kChunkTurns),
          std::vector<hil::TurnRecord>(full.end() - kChunkTurns, full.end()));
    }
  }
}

TEST(ServeRuntime, CreateCompileDoesNotBlockOtherSessions) {
  if (!cgra::NativeKernelCache::compiler_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A kNative create compiles its kernel with the host compiler. A wrapper
  // compiler marks the start of that build and sleeps before running it;
  // meanwhile a read of an existing session must return. Compiler discovery
  // is memoised per process, so the body runs in a re-executed child (a
  // threadsafe death test) that inherits the wrapper, and an empty kernel
  // cache dir makes the compile cold.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string wrapper = ::testing::TempDir() + "citl_serve_slow_cc";
  const std::string marker = wrapper + ".started";
  const std::string cache_dir = wrapper + "_cache";
  if (cgra::NativeKernelCache::compiler_command() != wrapper) {
    std::filesystem::remove_all(cache_dir);
    std::filesystem::remove(marker);
    {
      std::ofstream f(wrapper, std::ios::trunc);
      f << "#!/bin/sh\n"
           "case \" $* \" in *\" -shared \"*) : > '"
        << marker << "'; sleep 2;; esac\n"
        << "exec '" << cgra::NativeKernelCache::compiler_command()
        << "' \"$@\"\n";
    }
    std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  }
  ::setenv("CITL_CODEGEN_CC", wrapper.c_str(), 1);
  ::setenv("CITL_KERNEL_CACHE_DIR", cache_dir.c_str(), 1);
  EXPECT_EXIT(
      {
        serve::SessionRuntime runtime;
        const std::uint32_t quiet = runtime.create(quiet_point());
        api::SessionConfig native = quiet_point();
        native.exec_tier = cgra::ExecTier::kNative;
        std::atomic<bool> created{false};
        std::thread creator([&] {
          (void)runtime.create(native);
          created.store(true);
        });
        for (int i = 0; i < 6000 && !std::filesystem::exists(marker); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        const bool compiling = std::filesystem::exists(marker);
        (void)runtime.param(quiet, "v_scale");
        const bool answered_during_compile = !created.load();
        creator.join();
        std::fprintf(stderr, "compiling %d, answered during compile %d, %zu "
                     "sessions\n", compiling, answered_during_compile,
                     runtime.stats().active_sessions);
        std::exit(compiling && answered_during_compile &&
                          runtime.stats().active_sessions == 2
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("CITL_CODEGEN_CC");
  ::unsetenv("CITL_KERNEL_CACHE_DIR");
}

TEST(ServeRuntime, JournaledCreateDoesNotBlockOtherSessions) {
  // A create opens, preallocates and syncs its session's new journal. A FIFO
  // at the next session's journal path holds that open() until a reader
  // appears; meanwhile a read of an existing session must return. The wait
  // for the read is bounded and the FIFO is released either way, so a stall
  // fails the test instead of hanging it.
  const std::string dir = ::testing::TempDir() + "citl_serve_create_fifo";
  std::filesystem::remove_all(dir);
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime runtime(rc);
  const std::uint32_t quiet = runtime.create(quiet_point());
  const std::string fifo =
      dir + "/session-" + std::to_string(quiet + 1) + ".journal";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  std::atomic<bool> create_done{false};
  ErrorCode create_code = ErrorCode::kOk;
  std::thread creator([&] {
    try {
      (void)runtime.create(quiet_point());
    } catch (const Error& e) {
      create_code = e.code();
    }
    create_done.store(true);
  });
  // The create reaches open() within microseconds once its kernel is cached.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::atomic<bool> answered{false};
  std::thread reader([&] {
    (void)runtime.param(quiet, "v_scale");
    answered.store(true);
  });
  for (int i = 0; i < 200 && !answered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool answered_while_blocked = answered.load() && !create_done.load();

  // A reader lets the create's open() return; a FIFO cannot be synced, so
  // the create then fails, and its failure must release what it reserved.
  const int release = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  creator.join();
  reader.join();
  if (release >= 0) ::close(release);
  EXPECT_GE(release, 0);
  EXPECT_TRUE(answered_while_blocked)
      << "param() waited for a create blocked in its journal's open()";
  EXPECT_EQ(create_code, ErrorCode::kInternal);
  EXPECT_EQ(runtime.stats().active_sessions, 1u);

  const std::uint32_t next = runtime.create(quiet_point());
  EXPECT_EQ(runtime.stats().active_sessions, 2u);
  EXPECT_EQ(runtime.step(next, 10).size(), 10u);
}

TEST(ServeRuntime, PrometheusTextCarriesSessionSeries) {
  serve::SessionRuntime runtime;
  const std::uint32_t id = runtime.create(quiet_point());
  runtime.step(id, 10);
  const std::string text = runtime.prometheus_text();
  EXPECT_NE(text.find("citl_serve_sessions_active 1"), std::string::npos);
  EXPECT_NE(text.find("citl_serve_session_occupancy{session=\"" +
                      std::to_string(id) + "\"}"),
            std::string::npos);
  EXPECT_NE(text.find("citl_serve_turns_total 10"), std::string::npos);
}

// --- server ---------------------------------------------------------------

namespace {

/// Server + connected client, torn down in order.
struct ServedPair {
  serve::SessionServer server;
  std::unique_ptr<serve::SessionClient> client;

  explicit ServedPair(serve::ServerConfig config = {}) : server(config) {
    server.start();
    client = std::make_unique<serve::SessionClient>(server.port());
  }
};

}  // namespace

TEST(ServeServer, WireSessionByteIdenticalToInProcess) {
  ServedPair pair;
  const api::SessionConfig config = api::paper_operating_point();
  const serve::CreateResult created = pair.client->create(config);
  EXPECT_GT(created.schedule_length, 0u);
  EXPECT_GT(created.budget_cycles, created.schedule_length);

  std::vector<hil::TurnRecord> wire;
  for (std::uint32_t chunk : {200u, 800u, 500u}) {
    const auto batch = pair.client->step(created.session_id, chunk);
    wire.insert(wire.end(), batch.begin(), batch.end());
  }
  expect_bit_identical(wire, serial_replay(config, 1500));

  const serve::StatsResult stats = pair.client->stats();
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_EQ(stats.turns_stepped, 1500u);
  pair.client->destroy(created.session_id);
  EXPECT_EQ(pair.client->stats().active_sessions, 0u);
}

TEST(ServeServer, ErrorsCrossTheWireWithTheirCodes) {
  ServedPair pair;

  // Invalid config: rejected with the library's exact code and a message
  // naming the field.
  api::SessionConfig bad = quiet_point();
  bad.f_ref_hz = -1.0;
  try {
    (void)pair.client->create(bad);
    FAIL() << "invalid config admitted over the wire";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("f_ref_hz"), std::string::npos);
  }

  const serve::CreateResult created = pair.client->create(quiet_point());
  try {
    (void)pair.client->param(created.session_id, "no_such_register");
    FAIL() << "unknown key read succeeded over the wire";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownKey);
  }
  try {
    (void)pair.client->step(created.session_id + 7, 1);
    FAIL() << "unknown session stepped over the wire";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }

  // The connection survives typed errors: it is still usable.
  EXPECT_EQ(pair.client->step(created.session_id, 5).size(), 5u);
}

TEST(ServeServer, RetiredTierByteIsRefusedWithoutSessionOrJournal) {
  const std::string dir = ::testing::TempDir() + "citl_serve_retired_tier";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::ServerConfig sc;
  sc.runtime.state_dir = dir;
  ServedPair pair(sc);

  // Tier byte 1 belonged to a retired tier: the codec carries the byte and
  // validate() refuses it before any session id or journal exists.
  api::SessionConfig bad = quiet_point();
  bad.exec_tier = static_cast<cgra::ExecTier>(1);
  try {
    (void)pair.client->create(bad);
    FAIL() << "retired tier byte admitted over the wire";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("exec_tier"), std::string::npos)
        << e.what();
  }
  const serve::StatsResult stats = pair.client->stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.sessions_created, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(ServeServer, AdmissionRejectionCrossesTheWire) {
  serve::ServerConfig config;
  config.runtime.max_sessions = 1;
  ServedPair pair(config);
  (void)pair.client->create(quiet_point());
  try {
    (void)pair.client->create(quiet_point());
    FAIL() << "second session admitted past max_sessions=1";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmissionRejected);
  }
  EXPECT_EQ(pair.client->stats().admission_rejections, 1u);
}

TEST(ServeServer, MalformedBytesEarnBadFrameAndDisconnect) {
  serve::SessionServer server;
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // 16 bytes that decode to an absurd length prefix ("HTTP"-grade garbage).
  const char junk[] = "GET / HTTP/1.1\r\n";
  ASSERT_EQ(::write(fd, junk, sizeof(junk) - 1),
            static_cast<ssize_t>(sizeof(junk) - 1));

  // Best-effort kBadFrame response, then close. Read until EOF.
  std::vector<std::uint8_t> response;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.insert(response.end(), buf, buf + n);
  }
  ::close(fd);

  serve::FrameParser parser;
  parser.feed(response.data(), response.size());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value()) << "no kBadFrame response before close";
  EXPECT_EQ(frame->status, ErrorCode::kBadFrame);
}

TEST(ServeServer, ConcurrentClientsEachByteIdentical) {
  // Four clients on four threads, each driving its own session with a
  // distinct gain through its own connection — the wire records must match
  // each client's serial replay despite interleaved server-side execution.
  constexpr int kClients = 4;
  constexpr std::uint32_t kTurns = 400;
  serve::SessionServer server;
  server.start();
  const std::uint16_t port = server.port();

  std::vector<api::SessionConfig> configs(kClients);
  std::vector<std::vector<hil::TurnRecord>> wire(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    configs[i] = api::paper_operating_point();
    configs[i].jump_start_s = 0.1e-3;
    configs[i].gain = -3.0 - 1.0 * i;
    threads.emplace_back([&, i] {
      serve::SessionClient client(port);
      const auto created = client.create(configs[i]);
      for (std::uint32_t done = 0; done < kTurns; done += 100) {
        const auto batch = client.step(created.session_id, 100);
        wire[i].insert(wire[i].end(), batch.begin(), batch.end());
      }
      client.destroy(created.session_id);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    expect_bit_identical(wire[i], serial_replay(configs[i], kTurns));
  }
}

TEST(ServeServer, SnapshotRestoreOverTheWire) {
  ServedPair pair;
  const auto created = pair.client->create(api::paper_operating_point());
  (void)pair.client->step(created.session_id, 700);
  const std::uint32_t snap = pair.client->snapshot(created.session_id);
  const auto first = pair.client->step(created.session_id, 200);
  pair.client->restore(created.session_id, snap);
  const auto replay = pair.client->step(created.session_id, 200);
  expect_bit_identical(replay, first);
}

TEST(ServeServer, MetricsJoinTheScrapeText) {
  ServedPair pair;
  (void)pair.client->create(quiet_point());
  const std::string text = pair.server.runtime().prometheus_text();
  EXPECT_NE(text.find("citl_serve_connections_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("citl_serve_sessions_active 1"), std::string::npos);
  EXPECT_NE(text.find("citl_serve_bad_frames_total 0"), std::string::npos);
}

// --- robustness satellites (docs/SERVING.md "Durability") -----------------

namespace {

/// Dials 127.0.0.1:`port` and returns the raw fd (-1 on failure) — for
/// tests that need a misbehaving peer no SessionClient would ever be.
int raw_dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

TEST(ServeServer, SocketTimeoutSurfacesAsTypedError) {
  // A listener whose backlog completes the TCP handshake but which never
  // reads or answers: the client's hello must time out with kTimeout, not
  // block forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  serve::ClientConfig cc;
  cc.port = ntohs(addr.sin_port);
  cc.recv_timeout_ms = 50;
  try {
    serve::SessionClient client(cc);
    FAIL() << "hello against a mute listener succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
  ::close(listen_fd);
}

TEST(ServeServer, ReadDeadlineClosesSlowLorisButSparesIdlers) {
  serve::ServerConfig config;
  config.read_deadline_ms = 40;
  ServedPair pair(config);

  // An idle, frame-aligned connection must never trip the deadline...
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(pair.client->stats().active_sessions, 0u);

  // ...while a peer that parks a partial frame is closed by housekeeping.
  const int fd = raw_dial(pair.server.port());
  ASSERT_GE(fd, 0);
  const std::uint8_t dribble[3] = {0x0c, 0x00, 0x00};  // length prefix only
  ASSERT_EQ(::send(fd, dribble, sizeof(dribble), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(dribble)));
  std::uint8_t buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  EXPECT_EQ(n, 0) << "server should close the dribbling connection";
  ::close(fd);

  EXPECT_NE(pair.server.runtime().prometheus_text().find(
                "citl_serve_read_deadline_closed_total 1"),
            std::string::npos);
  // The well-behaved client is still being served.
  EXPECT_EQ(pair.client->stats().active_sessions, 0u);
}

TEST(ServeServer, IdleSessionsAreReapedByTheHousekeepingTick) {
  serve::ServerConfig config;
  config.runtime.idle_session_ttl_s = 1e-3;
  ServedPair pair(config);
  const auto created = pair.client->create(quiet_point());
  (void)pair.client->step(created.session_id, 5);
  // The housekeeping tick (50 ms when only the TTL is set) must reap it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const serve::StatsResult stats = pair.client->stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.sessions_reaped, 1u);
  try {
    (void)pair.client->step(created.session_id, 1);
    FAIL() << "reaped session still stepped";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(ServeServer, VanishingPeerCostsOnlyItsOwnConnection) {
  ServedPair pair;
  const api::SessionConfig config = quiet_point();
  const auto survivor = pair.client->create(config);
  // The doomed peer's own session, created on a second connection.
  serve::SessionClient doomed_owner(pair.server.port());
  const auto doomed = doomed_owner.create(quiet_point());

  // A peer that submits a large step and vanishes without reading the
  // response: the server's write hits a dead socket (EPIPE/ECONNRESET) and
  // must cost exactly that connection — not the other sessions.
  {
    const int fd = raw_dial(pair.server.port());
    ASSERT_GE(fd, 0);
    serve::Frame hello;
    hello.opcode = serve::Opcode::kHello;
    hello.request_id = 1;
    serve::Frame step;
    step.opcode = serve::Opcode::kStep;
    step.request_id = 2;
    step.session_id = doomed.session_id;
    serve::WireWriter w;
    w.u32(3000);
    w.u64(0);  // legacy at-most-once: the response is sacrificial
    step.payload = w.take();
    std::vector<std::uint8_t> bytes = serve::encode_frame(hello);
    const auto sb = serve::encode_frame(step);
    bytes.insert(bytes.end(), sb.begin(), sb.end());
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // RST on close: unread response data turns the server's write into a
    // connection reset instead of a quiet FIN.
    ::close(fd);
  }

  // The surviving client's session is untouched and bit-exact, and the
  // server still accepts fresh connections.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<hil::TurnRecord> got;
  for (int i = 0; i < 2; ++i) {
    const auto batch = pair.client->step(survivor.session_id, 100);
    got.insert(got.end(), batch.begin(), batch.end());
  }
  serve::SessionClient fresh(pair.server.port());
  EXPECT_EQ(fresh.stats().active_sessions, 2u);
  expect_bit_identical(got, serial_replay(config, 200));
}

TEST(ServeServer, AttachResumesAcrossServerRestartBitIdentically) {
  const std::string dir = ::testing::TempDir() + "citl_serve_restart";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const api::SessionConfig config = quiet_point();
  serve::ServerConfig sc;
  sc.runtime.state_dir = dir;

  std::uint32_t session_id = 0;
  std::vector<hil::TurnRecord> got;
  {
    ServedPair pair(sc);
    const auto created = pair.client->create(config);
    session_id = created.session_id;
    const auto batch = pair.client->step(session_id, 120);
    got.insert(got.end(), batch.begin(), batch.end());
    // Neither destroy() nor a clean shutdown handshake: the pair going out
    // of scope is the whole "crash".
  }

  ServedPair pair(sc);
  const serve::AttachResult attached = pair.client->attach(session_id);
  EXPECT_EQ(attached.turn, 120u);
  EXPECT_EQ(attached.last_step_seq, 1u);
  EXPECT_EQ(pair.client->stats().sessions_recovered, 1u);
  const auto batch = pair.client->step(session_id, 180);
  got.insert(got.end(), batch.begin(), batch.end());
  expect_bit_identical(got, serial_replay(config, 300));
  pair.client->destroy(session_id);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/session-" +
                              std::to_string(session_id) + ".journal"));
}

TEST(ServeServer, StepTooLargeForOneFrameIsRefusedBeforeItRuns) {
  // One kStep response frame holds (kMaxFrameBytes - 12 - 4) / 48 = 21845
  // records, fewer than the runtime's default max_turns_per_step. A larger
  // step must be refused before it runs or reaches the journal, not fail
  // once its response cannot be framed.
  const std::string dir = ::testing::TempDir() + "citl_serve_frame_limit";
  std::filesystem::remove_all(dir);
  serve::ServerConfig sc;
  sc.runtime.state_dir = dir;
  ServedPair pair(sc);
  const api::SessionConfig config = quiet_point();
  const std::uint32_t id = pair.client->create(config).session_id;
  constexpr std::uint32_t kFits = 21845;
  static_assert(serve::kMaxStepTurns == kFits);
  const auto want = serial_replay(config, kFits + 5);
  expect_bit_identical(
      pair.client->step(id, kFits),
      std::vector<hil::TurnRecord>(want.begin(), want.begin() + kFits));

  serve::SessionRuntime& runtime = pair.server.runtime();
  const std::uint64_t journal_records = runtime.stats().journal_records;
  try {
    (void)pair.client->step(id, kFits + 1);
    FAIL() << "a step too large for one response frame was accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
    EXPECT_NE(std::string(e.what()).find("21845"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runtime.info(id).turn, kFits);
  EXPECT_EQ(runtime.stats().journal_records, journal_records);

  // The connection keeps serving, and the session goes on where it stood.
  expect_bit_identical(pair.client->step(id, 5),
                       std::vector<hil::TurnRecord>(want.end() - 5, want.end()));
}

TEST(ServeServer, SlowReaderGetsAWholeLargeResponse) {
  // A peer with a small receive buffer asks for a 20000-turn step (960 KB of
  // records) and reads nothing for a while: the socket stops taking bytes
  // part-way through the response, and the rest must still arrive whole. A
  // request sent meanwhile is answered after it, in order.
  ServedPair pair;
  const api::SessionConfig config = quiet_point();
  const std::uint32_t id = pair.client->create(config).session_id;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(pair.server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto send_frame = [fd](const serve::Frame& f) {
    const auto bytes = serve::encode_frame(f);
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  };

  constexpr std::uint32_t kTurns = 20000;
  serve::Frame step;
  step.opcode = serve::Opcode::kStep;
  step.request_id = 1;
  step.session_id = id;
  serve::WireWriter w;
  w.u32(kTurns);
  step.payload = w.take();
  ASSERT_TRUE(send_frame(step));
  // Wait for the first response bytes, then stop reading for 50 ms.
  std::uint8_t first;
  ASSERT_EQ(::recv(fd, &first, 1, MSG_PEEK), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  serve::Frame get;
  get.opcode = serve::Opcode::kGetParam;
  get.request_id = 2;
  get.session_id = id;
  serve::WireWriter g;
  g.str("v_scale");
  get.payload = g.take();
  ASSERT_TRUE(send_frame(get));

  serve::FrameParser parser;
  std::vector<serve::Frame> frames;
  std::vector<std::uint8_t> buf(65536);
  while (frames.size() < 2) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    parser.feed(buf.data(), static_cast<std::size_t>(n));
    while (auto f = parser.next()) frames.push_back(std::move(*f));
  }
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].request_id, 1u);
  ASSERT_EQ(frames[0].status, ErrorCode::kOk);
  serve::WireReader r(frames[0].payload);
  ASSERT_EQ(r.u32(), kTurns);
  std::vector<hil::TurnRecord> got;
  for (std::uint32_t i = 0; i < kTurns; ++i) {
    got.push_back(serve::decode_turn_record(r));
  }
  r.expect_end();
  expect_bit_identical(got, serial_replay(config, kTurns));

  EXPECT_EQ(frames[1].request_id, 2u);
  ASSERT_EQ(frames[1].status, ErrorCode::kOk);
  serve::WireReader v(frames[1].payload);
  EXPECT_TRUE(bit_equal(v.f64(), pair.client->param(id, "v_scale")));
}
