// Durability: the citl-journal-v2 write-ahead journal and crash recovery.
//
// The acceptance invariant of docs/SERVING.md's durability section: a
// session rebuilt from its journal after a crash is BIT-identical to the
// same session never having crashed — every subsequent TurnRecord matches
// the uninterrupted run byte for byte. Damage degrades, never corrupts: a
// truncated tail or a flipped bit recovers the longest valid prefix and
// reports kJournalCorrupt with the offending offset, while the zero tail of
// a preallocated segment is the clean end; a wrong format version refuses
// the file outright, and a v1 journal still recovers.
//
// Every test here is named ServeJournal* so the TSan CI job's Serve* filter
// covers the suite.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "hil/turnloop.hpp"
#include "serve/journal.hpp"
#include "serve/runtime.hpp"
#include "serve/wire.hpp"

using namespace citl;

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool records_bit_equal(const hil::TurnRecord& a, const hil::TurnRecord& b) {
  return bit_equal(a.time_s, b.time_s) && bit_equal(a.phase_rad, b.phase_rad) &&
         bit_equal(a.dt_s, b.dt_s) && bit_equal(a.dgamma, b.dgamma) &&
         bit_equal(a.correction_hz, b.correction_hz) &&
         bit_equal(a.gap_phase_rad, b.gap_phase_rad);
}

void expect_bit_identical(const std::vector<hil::TurnRecord>& got,
                          const std::vector<hil::TurnRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(records_bit_equal(got[i], want[i]))
        << "records diverge at index " << i;
  }
}

/// Fresh, empty state directory under the test temp root.
std::string fresh_state_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "citl_journal_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string journal_file(const std::string& dir, std::uint32_t id) {
  return dir + "/session-" + std::to_string(id) + ".journal";
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

// --- file format ----------------------------------------------------------

TEST(ServeJournal, WriterScanRoundTrip) {
  const std::string dir = fresh_state_dir("roundtrip");
  const std::string path = dir + "/session-3.journal";
  {
    serve::JournalWriter w(path, 3, 0xfeedfacecafebeefull);
    w.append(serve::JournalRecordType::kConfig, {1, 2, 3});
    w.append(serve::JournalRecordType::kSetParam, {});
    w.append(serve::JournalRecordType::kStep,
             std::vector<std::uint8_t>(64, 0xab));
    EXPECT_EQ(w.records_written(), 3u);
    EXPECT_GT(w.bytes_written(), 0u);
  }
  const serve::JournalScan scan = serve::scan_journal(path);
  EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
  EXPECT_EQ(scan.session_id, 3u);
  EXPECT_EQ(scan.config_digest, 0xfeedfacecafebeefull);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, serve::JournalRecordType::kConfig);
  EXPECT_EQ(scan.records[0].seq, 0u);
  EXPECT_EQ(scan.records[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(scan.records[2].payload.size(), 64u);
  EXPECT_EQ(scan.next_seq, 3u);
}

TEST(ServeJournal, ReopenContinuesTheChain) {
  const std::string dir = fresh_state_dir("reopen");
  const std::string path = dir + "/session-1.journal";
  {
    serve::JournalWriter w(path, 1, 7);
    w.append(serve::JournalRecordType::kConfig, {9});
  }
  {
    serve::JournalScan scan = serve::scan_journal(path);
    serve::JournalWriter w(path, scan);
    w.append(serve::JournalRecordType::kStep, {4, 5});
  }
  const serve::JournalScan scan = serve::scan_journal(path);
  EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].seq, 1u);
  EXPECT_EQ(scan.records[1].payload, (std::vector<std::uint8_t>{4, 5}));
}

TEST(ServeJournal, OverlappedSyncWritesTheSameBytesAsAppend) {
  // A served step writes its record (and a due compaction image), syncs on
  // the writer's thread and waits; the file must be the one append() makes.
  const std::string dir = fresh_state_dir("overlapped");
  const std::string inline_path = dir + "/session-1.journal";
  const std::string overlapped_path = dir + "/session-2.journal";
  {
    serve::JournalWriter inline_sync(inline_path, 1, 7);
    serve::JournalWriter overlapped(overlapped_path, 1, 7);
    inline_sync.append(serve::JournalRecordType::kConfig, {1});
    overlapped.append(serve::JournalRecordType::kConfig, {1});
    for (std::uint8_t i = 0; i < 3; ++i) {
      inline_sync.append(serve::JournalRecordType::kCheckpoint, {2, i});
      inline_sync.append(serve::JournalRecordType::kStep, {3, i});
      overlapped.write(serve::JournalRecordType::kCheckpoint, {2, i});
      overlapped.write(serve::JournalRecordType::kStep, {3, i});
      overlapped.start_sync();
      overlapped.finish_sync();
    }
    overlapped.finish_sync();  // nothing in flight: returns at once
    EXPECT_FALSE(overlapped.failed());
    EXPECT_EQ(overlapped.records_written(), inline_sync.records_written());
    EXPECT_EQ(overlapped.bytes_written(), inline_sync.bytes_written());
  }
  EXPECT_EQ(slurp(overlapped_path), slurp(inline_path));
  const serve::JournalScan scan = serve::scan_journal(overlapped_path);
  EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
  EXPECT_EQ(scan.records.size(), 7u);
}

TEST(ServeJournal, DisabledWriterIsANoOp) {
  serve::JournalWriter w;
  EXPECT_FALSE(w.enabled());
  w.append(serve::JournalRecordType::kStep, {1});  // none of these may throw
  w.write(serve::JournalRecordType::kStep, {1});
  w.start_sync();
  w.finish_sync();
  EXPECT_EQ(w.records_written(), 0u);
}

// --- corruption taxonomy --------------------------------------------------

TEST(ServeJournal, TruncatedTailRecoversLongestPrefix) {
  const std::string dir = fresh_state_dir("trunc");
  const std::string path = dir + "/session-1.journal";
  std::uint64_t full_size = 0;
  {
    serve::JournalWriter w(path, 1, 7);
    w.append(serve::JournalRecordType::kConfig, {1});
    w.append(serve::JournalRecordType::kStep, {2});
    w.append(serve::JournalRecordType::kStep, {3});
    full_size = w.bytes_written();  // includes the header
  }
  // Tear off the last 4 bytes of the log: the final record's chain hash is
  // incomplete. The file may run past its logical end in a zero tail.
  std::vector<std::uint8_t> bytes = slurp(path);
  ASSERT_GE(bytes.size(), full_size);
  bytes.resize(full_size - 4);
  dump(path, bytes);

  const serve::JournalScan scan = serve::scan_journal(path);
  EXPECT_TRUE(scan.corrupt);
  ASSERT_EQ(scan.records.size(), 2u);  // longest valid prefix
  EXPECT_EQ(scan.corrupt_offset, scan.valid_bytes);
  EXPECT_LT(scan.valid_bytes, bytes.size());
}

TEST(ServeJournal, BitFlipIsDetectedAtItsRecord) {
  const std::string dir = fresh_state_dir("bitflip");
  const std::string path = dir + "/session-1.journal";
  std::uint64_t first_two = 0;
  {
    serve::JournalWriter w(path, 1, 7);
    w.append(serve::JournalRecordType::kConfig, {1});
    w.append(serve::JournalRecordType::kStep, {2, 2, 2, 2});
    first_two = w.bytes_written();  // file size after two records
    w.append(serve::JournalRecordType::kStep, {3, 3, 3, 3});
  }
  // Flip one payload bit inside the third record.
  std::vector<std::uint8_t> bytes = slurp(path);
  bytes[first_two + 4 + 1 + 8 + 2] ^= 0x10;
  dump(path, bytes);

  const serve::JournalScan scan = serve::scan_journal(path);
  EXPECT_TRUE(scan.corrupt);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.corrupt_offset, first_two)
      << "corruption must be reported at the damaged record's offset";
  EXPECT_NE(scan.corrupt_reason.find("chain"), std::string::npos)
      << scan.corrupt_reason;
}

TEST(ServeJournal, ZeroTailIsTheCleanEnd) {
  // The writer preallocates whole segments, so a journal ends in the zeros
  // of its last segment. They are the clean end of the log; a torn or
  // flipped record before them is still corrupt at its own offset.
  using serve::JournalRecordType;
  using serve::kJournalSegmentBytes;
  const std::string dir = fresh_state_dir("zerotail");
  const std::string path = dir + "/session-1.journal";
  {
    serve::JournalWriter w(path, 1, 7);
  }
  EXPECT_EQ(std::filesystem::file_size(path), kJournalSegmentBytes);
  {
    const serve::JournalScan scan = serve::scan_journal(path);
    EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.valid_bytes, serve::kJournalHeaderBytes);
  }

  std::uint64_t last_start = 0;
  std::uint64_t end = 0;
  {
    serve::JournalWriter w(path, 1, 7);
    w.append(JournalRecordType::kConfig, {1});
    w.append(JournalRecordType::kStep, {2, 2, 2, 2});
    last_start = w.bytes_written();
    w.append(JournalRecordType::kStep, {3, 3, 3, 3});
    end = w.bytes_written();
  }
  const std::vector<std::uint8_t> intact = slurp(path);
  ASSERT_EQ(intact.size(), kJournalSegmentBytes);
  const auto expect_corrupt_last = [&](const std::vector<std::uint8_t>& bytes) {
    dump(path, bytes);
    const serve::JournalScan scan = serve::scan_journal(path);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_EQ(scan.corrupt_offset, last_start) << scan.corrupt_reason;
    EXPECT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.valid_bytes, last_start);
  };
  {
    SCOPED_TRACE("torn inside the segment: the last 5 bytes never landed");
    std::vector<std::uint8_t> torn = intact;
    std::fill(torn.begin() + static_cast<std::ptrdiff_t>(end - 5),
              torn.begin() + static_cast<std::ptrdiff_t>(end), 0);
    expect_corrupt_last(torn);
  }
  {
    SCOPED_TRACE("a bit flip in the last record before the zeros");
    std::vector<std::uint8_t> flipped = intact;
    flipped[last_start + 4 + 1 + 8 + 1] ^= 0x04;
    expect_corrupt_last(flipped);
  }

  // A resumed writer appends in place at the logical end.
  dump(path, intact);
  {
    const serve::JournalScan scan = serve::scan_journal(path);
    EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
    EXPECT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.valid_bytes, end);
    serve::JournalWriter w(path, scan);
    EXPECT_EQ(w.bytes_written(), end);
    w.append(JournalRecordType::kStep, {4});
    EXPECT_EQ(w.bytes_written(), end + 22);
  }
  std::vector<std::uint8_t> resumed = slurp(path);
  EXPECT_EQ(resumed.size(), kJournalSegmentBytes);
  EXPECT_TRUE(std::equal(intact.begin(),
                         intact.begin() + static_cast<std::ptrdiff_t>(end),
                         resumed.begin()));

  // A record that straddles the segment boundary round-trips, and the file
  // grows by one whole segment.
  std::size_t straddler = 0;
  {
    serve::JournalWriter w(path, serve::scan_journal(path));
    straddler = static_cast<std::size_t>(kJournalSegmentBytes -
                                         w.bytes_written());
    w.append(JournalRecordType::kCheckpoint,
             std::vector<std::uint8_t>(straddler, 0xcd));
    w.append(JournalRecordType::kStep, {5});
    EXPECT_EQ(w.bytes_written(), kJournalSegmentBytes + 21 + 22);
  }
  EXPECT_EQ(std::filesystem::file_size(path), 2 * kJournalSegmentBytes);
  const serve::JournalScan scan = serve::scan_journal(path);
  EXPECT_FALSE(scan.corrupt) << scan.corrupt_reason;
  ASSERT_EQ(scan.records.size(), 6u);
  EXPECT_EQ(scan.records[4].payload,
            std::vector<std::uint8_t>(straddler, 0xcd));
  EXPECT_EQ(scan.records[5].payload, (std::vector<std::uint8_t>{5}));
  EXPECT_EQ(scan.valid_bytes, kJournalSegmentBytes + 21 + 22);
}

TEST(ServeJournal, WrongVersionIsRefusedOutright) {
  const std::string dir = fresh_state_dir("version");
  const std::string path = dir + "/session-1.journal";
  {
    serve::JournalWriter w(path, 1, 7);
    w.append(serve::JournalRecordType::kConfig, {1});
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  bytes[15] = 99;  // format version byte
  dump(path, bytes);
  try {
    (void)serve::scan_journal(path);
    FAIL() << "mixed-version journal scanned";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kJournalCorrupt);
  }
}

// --- crash recovery against the live runtime ------------------------------

namespace {

/// The mutation sequence both arms of the crash tests drive: a param write,
/// control toggling and unevenly-chunked exactly-once steps.
std::vector<hil::TurnRecord> drive_phase_one(serve::SessionRuntime& rt,
                                             std::uint32_t id) {
  std::vector<hil::TurnRecord> out;
  auto a = rt.step(id, 300, 1);
  out.insert(out.end(), a.begin(), a.end());
  rt.set_param(id, "v_scale", 1.25);
  rt.set_state(id, "dt0", 2.5e-9);
  auto b = rt.step(id, 450, 2);
  out.insert(out.end(), b.begin(), b.end());
  rt.enable_control(id, false);
  auto c = rt.step(id, 50, 3);
  out.insert(out.end(), c.begin(), c.end());
  rt.enable_control(id, true);
  return out;
}

}  // namespace

TEST(ServeJournal, CrashResumeIsBitIdenticalToUninterruptedRun) {
  const std::string dir = fresh_state_dir("crash");
  const api::SessionConfig config = api::paper_operating_point();

  // Uninterrupted arm: one runtime, no journal, same operations.
  serve::SessionRuntime uninterrupted;
  const std::uint32_t uid = uninterrupted.create(config);
  (void)drive_phase_one(uninterrupted, uid);
  const double time_at_800 = uninterrupted.info(uid).time_s;
  const auto want = uninterrupted.step(uid, 400, 4);

  // Crashing arm: journal on; drop the runtime without destroying the
  // session (a destructor is the polite kill -9 — nothing is flushed beyond
  // what append() already fsync'd).
  std::uint32_t id = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)drive_phase_one(rt, id);
  }

  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime recovered(rc);
  ASSERT_EQ(recovered.recover(), 1u);
  EXPECT_EQ(recovered.stats().sessions_recovered, 1u);
  EXPECT_EQ(recovered.stats().journals_corrupt, 0u);

  const serve::SessionInfo info = recovered.info(id);
  EXPECT_EQ(info.turn, 800);
  EXPECT_EQ(info.last_step_seq, 3u);
  EXPECT_TRUE(bit_equal(info.time_s, time_at_800));

  expect_bit_identical(recovered.step(id, 400, 4), want);
}

TEST(ServeJournal, ParentJournalStillRecovers) {
  // tests/data/journal_v1_session-1.journal was written by the citl-journal-v1
  // writer: session 1 at the paper operating point, compacting every 256
  // turns, driven through drive_phase_one(). It must recover to the same
  // state, step on bit-identically, and keep journaling in place.
  const std::string dir = fresh_state_dir("parent_v1");
  const std::string path = journal_file(dir, 1);
  std::filesystem::copy_file(
      std::string(CITL_TEST_DATA_DIR) + "/journal_v1_session-1.journal", path);
  const serve::JournalScan v1 = serve::scan_journal(path);
  ASSERT_EQ(std::string(reinterpret_cast<const char*>(slurp(path).data()), 15),
            "citl-journal-v1");
  EXPECT_FALSE(v1.corrupt) << v1.corrupt_reason;
  EXPECT_EQ(v1.valid_bytes, std::filesystem::file_size(path));
  int checkpoints = 0;
  for (const auto& rec : v1.records) {
    if (rec.type == serve::JournalRecordType::kCheckpoint) ++checkpoints;
  }
  EXPECT_EQ(checkpoints, 2);

  const api::SessionConfig config = api::paper_operating_point();
  serve::SessionRuntime unjournaled;
  const std::uint32_t uid = unjournaled.create(config);
  (void)drive_phase_one(unjournaled, uid);
  const double time_at_800 = unjournaled.info(uid).time_s;
  const auto want = unjournaled.step(uid, 400, 4);

  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  rc.checkpoint_interval_turns = 256;
  {
    serve::SessionRuntime rt(rc);
    ASSERT_EQ(rt.recover(), 1u);
    EXPECT_EQ(rt.stats().journals_corrupt, 0u);
    const serve::SessionInfo info = rt.info(1);
    EXPECT_EQ(info.turn, 800);
    EXPECT_EQ(info.last_step_seq, 3u);
    EXPECT_TRUE(bit_equal(info.time_s, time_at_800));
    expect_bit_identical(rt.step(1, 400, 4), want);
  }
  // The resumed writer appended step 4 to the v1 file, which recovers
  // again.
  const serve::JournalScan resumed = serve::scan_journal(path);
  EXPECT_FALSE(resumed.corrupt) << resumed.corrupt_reason;
  EXPECT_EQ(resumed.records.size(), v1.records.size() + 1);
  serve::SessionRuntime again(rc);
  ASSERT_EQ(again.recover(), 1u);
  EXPECT_EQ(again.info(1).last_step_seq, 4u);
  EXPECT_EQ(again.info(1).turn, 1200);
}

TEST(ServeJournal, RecoveryReplaysTheCachedStepResponse) {
  const std::string dir = fresh_state_dir("stepcache");
  const api::SessionConfig config;  // quiet point
  std::uint32_t id = 0;
  std::vector<hil::TurnRecord> last;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)rt.step(id, 64, 1);
    last = rt.step(id, 32, 2);
  }
  // The response to step seq 2 was lost in the crash; the client re-sends
  // it after re-attaching and must get the identical records back without
  // the engine advancing.
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime rt(rc);
  ASSERT_EQ(rt.recover(), 1u);
  expect_bit_identical(rt.step(id, 32, 2), last);
  EXPECT_EQ(rt.stats().step_replays, 1u);
  EXPECT_EQ(rt.info(id).turn, 96);
}

TEST(ServeJournal, CheckpointFastForwardMatchesFullReplay) {
  const std::string dir = fresh_state_dir("ckpt");
  const api::SessionConfig config = api::paper_operating_point();

  serve::SessionRuntime uninterrupted;
  const std::uint32_t uid = uninterrupted.create(config);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    (void)uninterrupted.step(uid, 200, seq);
  }
  const auto want = uninterrupted.step(uid, 150, 7);

  std::uint32_t id = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    rc.checkpoint_interval_turns = 256;  // several compactions over 1200 turns
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) (void)rt.step(id, 200, seq);
  }
  // The journal must actually contain checkpoint images to fast-forward to.
  const serve::JournalScan scan = serve::scan_journal(journal_file(dir, id));
  int checkpoints = 0;
  for (const auto& rec : scan.records) {
    if (rec.type == serve::JournalRecordType::kCheckpoint) ++checkpoints;
  }
  EXPECT_GE(checkpoints, 2) << "interval 256 over 1200 turns must compact";

  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  rc.checkpoint_interval_turns = 256;
  serve::SessionRuntime rt(rc);
  ASSERT_EQ(rt.recover(), 1u);
  EXPECT_EQ(rt.info(id).turn, 1200);
  expect_bit_identical(rt.step(id, 150, 7), want);
}

TEST(ServeJournal, SnapshotRestoreSurvivesTheCrash) {
  const std::string dir = fresh_state_dir("snaprestore");
  const api::SessionConfig config = api::paper_operating_point();

  serve::SessionRuntime uninterrupted;
  const std::uint32_t uid = uninterrupted.create(config);
  (void)uninterrupted.step(uid, 700, 1);
  const std::uint32_t usnap = uninterrupted.snapshot(uid);
  (void)uninterrupted.step(uid, 200, 2);
  uninterrupted.restore(uid, usnap);
  const auto want = uninterrupted.step(uid, 200, 3);

  std::uint32_t id = 0;
  std::uint32_t snap = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)rt.step(id, 700, 1);
    snap = rt.snapshot(id);
    (void)rt.step(id, 200, 2);
    rt.restore(id, snap);
  }
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime rt(rc);
  ASSERT_EQ(rt.recover(), 1u);
  expect_bit_identical(rt.step(id, 200, 3), want);
}

TEST(ServeJournal, SupervisedSessionReplaysFromTurnZero) {
  const std::string dir = fresh_state_dir("supervised");
  api::SessionConfig config;
  config.supervised = true;

  serve::SessionRuntime uninterrupted;
  const std::uint32_t uid = uninterrupted.create(config);
  (void)uninterrupted.step(uid, 500, 1);
  const auto want = uninterrupted.step(uid, 100, 2);

  std::uint32_t id = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    rc.checkpoint_interval_turns = 64;  // must be ignored for supervised
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)rt.step(id, 500, 1);
  }
  const serve::JournalScan scan = serve::scan_journal(journal_file(dir, id));
  for (const auto& rec : scan.records) {
    EXPECT_NE(rec.type, serve::JournalRecordType::kCheckpoint)
        << "supervised sessions have no checkpoint image";
  }
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  rc.checkpoint_interval_turns = 64;
  serve::SessionRuntime rt(rc);
  ASSERT_EQ(rt.recover(), 1u);
  expect_bit_identical(rt.step(id, 100, 2), want);
}

TEST(ServeJournal, CorruptTailRecoversToLastDurableState) {
  const std::string dir = fresh_state_dir("tailcrash");
  const api::SessionConfig config;
  std::uint32_t id = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)rt.step(id, 100, 1);
    (void)rt.step(id, 100, 2);
  }
  // Torn final append: the log loses its last 6 bytes (cut at its logical
  // end, the zero tail goes with them).
  const std::string path = journal_file(dir, id);
  std::vector<std::uint8_t> bytes = slurp(path);
  bytes.resize(serve::scan_journal(path).valid_bytes - 6);
  dump(path, bytes);

  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime rt(rc);
  ASSERT_EQ(rt.recover(), 1u);
  EXPECT_EQ(rt.stats().journals_corrupt, 1u);
  // The torn step (seq 2) is gone; the session stands at its durable
  // prefix and accepts seq 2 afresh.
  EXPECT_EQ(rt.info(id).turn, 100);
  EXPECT_EQ(rt.info(id).last_step_seq, 1u);
  EXPECT_EQ(rt.step(id, 100, 2).size(), 100u);
}

TEST(ServeJournal, UnusableJournalIsSkippedNotFatal) {
  const std::string dir = fresh_state_dir("skip");
  const api::SessionConfig config;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    (void)rt.create(config);
  }
  // A second, garbage journal beside the good one.
  dump(dir + "/session-9.journal", {'n', 'o', 't', ' ', 'a', ' ', 'l', 'o',
                                    'g'});
  // A header-only journal: a create that crashed before its config record
  // (whose sync also covers the header) was synced, so never acknowledged.
  {
    serve::JournalWriter header_only(journal_file(dir, 8), 8,
                                     api::session_config_digest(config));
  }
  const serve::JournalScan scan = serve::scan_journal(journal_file(dir, 8));
  ASSERT_FALSE(scan.corrupt) << scan.corrupt_reason;
  ASSERT_TRUE(scan.records.empty());
  ASSERT_EQ(scan.valid_bytes, serve::kJournalHeaderBytes);
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime rt(rc);
  EXPECT_EQ(rt.recover(), 1u);
  EXPECT_EQ(rt.stats().journals_corrupt, 2u);
  EXPECT_EQ(rt.stats().active_sessions, 1u);
}

TEST(ServeJournal, RetiredTierJournalIsSkippedNotFatal) {
  // A journal whose config record carries execution-tier byte 1 (a retired
  // tier) no longer validates: recovery skips it and counts it corrupt, and
  // the healthy session beside it still recovers.
  const std::string dir = fresh_state_dir("retired_tier");
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    (void)rt.create(api::SessionConfig{});
  }
  api::SessionConfig retired;
  retired.exec_tier = static_cast<cgra::ExecTier>(1);
  {
    serve::JournalWriter w(journal_file(dir, 9), 9,
                           api::session_config_digest(retired));
    serve::WireWriter config;
    serve::encode_session_config(config, retired);
    config.u64(0);  // create nonce
    w.append(serve::JournalRecordType::kConfig, config.bytes());
  }
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  serve::SessionRuntime rt(rc);
  EXPECT_EQ(rt.recover(), 1u);
  EXPECT_EQ(rt.stats().journals_corrupt, 1u);
  EXPECT_EQ(rt.stats().active_sessions, 1u);
}

namespace {

/// Lowers the soft RLIMIT_FSIZE with SIGXFSZ ignored, so a write past the
/// limit tears and then fails with EFBIG instead of killing the process.
/// Leaving the scope puts the limit and the signal back.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uintmax_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

/// The code `fn` throws, or kOk when it returns.
template <typename Fn>
ErrorCode code_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

}  // namespace

TEST(ServeJournal, FailedWriteIsNeverAcknowledged) {
  // Step 2's record tears on a full disk. A retry must not append a second
  // record after the torn bytes and be acknowledged: recovery truncates
  // everything from the tear on, so that step would be lost.
  const std::string dir = fresh_state_dir("failed_write");
  const api::SessionConfig config = api::paper_operating_point();

  serve::SessionRuntime unjournaled;
  const std::uint32_t uid = unjournaled.create(config);
  (void)unjournaled.step(uid, 100, 1);
  const auto want = unjournaled.step(uid, 100, 2);

  std::uint32_t id = 0;
  std::uint64_t last_acked = 0;
  const std::string kept = dir + "/kept";
  {
    serve::RuntimeConfig rc;
    rc.state_dir = dir;
    serve::SessionRuntime rt(rc);
    id = rt.create(config);
    (void)rt.step(id, 100, 1);
    last_acked = 1;
    const std::string path = journal_file(dir, id);
    ErrorCode torn = ErrorCode::kOk;
    {
      // Step 2's 33-byte record may write 10 bytes past the log's logical
      // end only (the file's preallocated tail is longer).
      FileSizeLimit limit(serve::scan_journal(path).valid_bytes + 10);
      torn = code_of([&] { (void)rt.step(id, 100, 2); });
    }
    EXPECT_EQ(torn, ErrorCode::kInternal);

    // The disk has room again; the client retries.
    const ErrorCode retry = code_of([&] { (void)rt.step(id, 100, 2); });
    if (retry == ErrorCode::kOk) last_acked = 2;
    EXPECT_EQ(retry, ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] { rt.set_param(id, "v_scale", 1.25); }),
              ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] { (void)rt.state(id, "dt0"); }),
              ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] { (void)rt.info(id); }), ErrorCode::kInternal);

    // Keep the file as a crash would leave it; destroy still works.
    std::filesystem::create_directories(kept);
    std::filesystem::copy_file(path, journal_file(kept, id));
    EXPECT_EQ(code_of([&] { rt.destroy(id); }), ErrorCode::kOk);
    EXPECT_FALSE(std::filesystem::exists(path));
  }

  serve::RuntimeConfig rc;
  rc.state_dir = kept;
  serve::SessionRuntime recovered(rc);
  ASSERT_EQ(recovered.recover(), 1u);
  EXPECT_EQ(recovered.info(id).last_step_seq, last_acked);
  EXPECT_EQ(recovered.stats().journals_corrupt, 1u);
  expect_bit_identical(recovered.step(id, 100, 2), want);
}

TEST(ServeJournal, FailedSyncFailsTheWriter) {
  // fsync of a FIFO fails with EINVAL. The failure of the overlapped sync
  // must surface from finish_sync() and keep every later call off the file.
  const std::string dir = fresh_state_dir("failed_sync");
  const std::string path = dir + "/session-1.journal";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  {
    serve::JournalWriter w(path, 1, 7);
    w.write(serve::JournalRecordType::kStep, {1});
    w.start_sync();
    EXPECT_EQ(code_of([&] { w.finish_sync(); }), ErrorCode::kInternal);
    EXPECT_TRUE(w.failed());
    EXPECT_EQ(code_of([&] { w.finish_sync(); }), ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] { w.start_sync(); }), ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] {
                w.write(serve::JournalRecordType::kStep, {2});
              }),
              ErrorCode::kInternal);
    EXPECT_EQ(code_of([&] {
                w.append(serve::JournalRecordType::kStep, {2});
              }),
              ErrorCode::kInternal);
    EXPECT_EQ(w.records_written(), 1u);
  }
  // Only the header and the first record ever reached the file.
  std::vector<std::uint8_t> bytes(4096);
  const ssize_t n = ::read(reader, bytes.data(), bytes.size());
  ::close(reader);
  EXPECT_EQ(n, static_cast<ssize_t>(serve::kJournalHeaderBytes + 21 + 1));
}

// --- runtime-level idempotence and hygiene --------------------------------

TEST(ServeJournal, StepSequenceIsExactlyOnce) {
  serve::SessionRuntime rt;  // journaling off: dedupe is runtime-level
  const std::uint32_t id = rt.create(api::SessionConfig{});
  const auto first = rt.step(id, 50, 1);
  const auto replay = rt.step(id, 50, 1);  // duplicate: cached response
  expect_bit_identical(replay, first);
  EXPECT_EQ(rt.info(id).turn, 50);
  EXPECT_EQ(rt.stats().step_replays, 1u);
  try {
    (void)rt.step(id, 50, 5);  // gap: neither last nor last+1
    FAIL() << "out-of-order step sequence accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadState);
  }
  EXPECT_EQ(rt.step(id, 50, 2).size(), 50u);
}

TEST(ServeJournal, CreateNonceIsIdempotent) {
  serve::SessionRuntime rt;
  const std::uint32_t a = rt.create(api::SessionConfig{}, 42);
  const std::uint32_t b = rt.create(api::SessionConfig{}, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(rt.stats().active_sessions, 1u);
  rt.destroy(a);
  // The nonce dies with the session: the same nonce now creates afresh.
  const std::uint32_t c = rt.create(api::SessionConfig{}, 42);
  EXPECT_NE(c, a);
}

TEST(ServeJournal, DestroyDeletesTheJournal) {
  const std::string dir = fresh_state_dir("destroy");
  serve::RuntimeConfig rc;
  rc.state_dir = dir;
  std::uint32_t id = 0;
  {
    serve::SessionRuntime rt(rc);
    id = rt.create(api::SessionConfig{});
    (void)rt.step(id, 10, 1);
    EXPECT_TRUE(std::filesystem::exists(journal_file(dir, id)));
    rt.destroy(id);
    EXPECT_FALSE(std::filesystem::exists(journal_file(dir, id)));
  }
  serve::SessionRuntime rt(rc);
  EXPECT_EQ(rt.recover(), 0u);
}

TEST(ServeJournal, IdleSessionsAreReaped) {
  serve::RuntimeConfig rc;
  rc.idle_session_ttl_s = 1e-6;  // everything not touched "just now" is idle
  serve::SessionRuntime rt(rc);
  const std::uint32_t id = rt.create(api::SessionConfig{});
  (void)rt.step(id, 5, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(rt.reap_idle(), 1u);
  EXPECT_EQ(rt.stats().sessions_reaped, 1u);
  EXPECT_EQ(rt.stats().active_sessions, 0u);
  try {
    (void)rt.step(id, 1, 2);
    FAIL() << "reaped session still steps";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}
