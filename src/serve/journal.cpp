#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "core/fnv1a.hpp"

namespace citl::serve {

namespace {

/// Fixed bytes per record around the payload: u32 len + u8 type + u64 seq
/// before, u64 chain hash after.
constexpr std::size_t kRecordOverhead = 4 + 1 + 8 + 8;

/// Chain step shared by writer and scanner: mixes the previous chain value
/// with the record identity and payload.
std::uint64_t chain_record(std::uint64_t prev, JournalRecordType type,
                           std::uint64_t seq, const std::uint8_t* payload,
                           std::size_t len) noexcept {
  std::uint8_t fixed[17];
  for (int i = 0; i < 8; ++i) fixed[i] = static_cast<std::uint8_t>(prev >> (8 * i));
  fixed[8] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 8; ++i) {
    fixed[9 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  std::uint64_t h = fnv1a(kFnv1aOffset, fixed, sizeof(fixed));
  return fnv1a(h, payload, len);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> encode_header(std::uint32_t session_id,
                                        std::uint64_t config_digest) {
  std::vector<std::uint8_t> h(kJournalHeaderBytes);
  std::memcpy(h.data(), kJournalMagic, 15);
  h[15] = kJournalVersion;
  put_u32(h.data() + 16, session_id);
  put_u64(h.data() + 20, config_digest);
  return h;
}

std::string io_message(const std::string& what, const std::string& path,
                       int err) {
  return "journal " + path + ": " + what + " (" +
         std::string(std::strerror(err)) + ")";
}

[[noreturn]] void throw_io(const std::string& what, const std::string& path,
                           int err = errno) {
  throw Error(io_message(what, path, err), ErrorCode::kInternal);
}

/// Writes all `n` bytes; returns 0 or the errno of the failed write.
int write_all(int fd, const std::uint8_t* data, std::size_t n) noexcept {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    done += static_cast<std::size_t>(w);
  }
  return 0;
}

/// The one sync routine, run inline by append() and on the sync thread.
/// fdatasync skips the metadata commit while the file size stays put, which
/// it does for every record written inside a preallocated segment; a write
/// that grows the file still has its new size flushed. Returns 0 or the
/// errno of the failed call.
int sync_fd(int fd) noexcept { return ::fdatasync(fd) == 0 ? 0 : errno; }

}  // namespace

// --- writer ---------------------------------------------------------------

/// The writer's persistent sync thread. Each start() asks for one sync of
/// everything written before it; wait() blocks until the thread has caught
/// up. The destructor lets a requested sync finish, then joins.
class JournalWriter::SyncThread {
 public:
  explicit SyncThread(int fd) : fd_(fd), thread_([this] { run(); }) {}

  ~SyncThread() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  SyncThread(const SyncThread&) = delete;
  SyncThread& operator=(const SyncThread&) = delete;

  void start() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ++requested_;
    }
    cv_.notify_all();
  }

  /// Returns 0, or the errno of a sync that failed since the last wait().
  int wait() {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_.wait(lk, [&] { return synced_ == requested_; });
    return std::exchange(err_, 0);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      cv_.wait(lk, [&] { return synced_ != requested_ || stop_; });
      if (synced_ == requested_) return;
      const std::uint64_t target = requested_;
      lk.unlock();
      const int err = sync_fd(fd_);
      lk.lock();
      if (err_ == 0) err_ = err;
      synced_ = target;
      cv_.notify_all();
    }
  }

  const int fd_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t requested_ = 0;  ///< start() calls so far
  std::uint64_t synced_ = 0;     ///< start() calls the last sync covered
  int err_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: it runs against the members above
};

JournalWriter::JournalWriter() = default;

JournalWriter::JournalWriter(const std::string& path, std::uint32_t session_id,
                             std::uint64_t config_digest)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) throw_io("open failed", path);
  const auto header = encode_header(session_id, config_digest);
  preallocate(header.size());
  if (const int err = write_all(fd_, header.data(), header.size())) {
    throw_io("write failed", path, err);
  }
  chain_ = fnv1a(kFnv1aOffset, header.data(), header.size());
  bytes_ = header.size();
}

JournalWriter::JournalWriter(const std::string& path, const JournalScan& scan)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) throw_io("open failed", path);
  // Drop the corrupt tail (if any) and the zero tail so the continued chain
  // stays valid, then append in place at the end of the valid prefix.
  if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0) {
    throw_io("truncate failed", path);
  }
  if (::lseek(fd_, static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0) {
    throw_io("seek failed", path);
  }
  next_seq_ = scan.next_seq;
  chain_ = scan.chain;
  bytes_ = scan.valid_bytes;
  allocated_ = scan.valid_bytes;
  preallocate(bytes_ + 1);  // the segment the next record starts in
}

JournalWriter::~JournalWriter() { close_fd(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      next_seq_(other.next_seq_),
      chain_(other.chain_),
      records_(other.records_),
      bytes_(other.bytes_),
      allocated_(other.allocated_),
      preallocating_(other.preallocating_),
      sync_thread_(std::move(other.sync_thread_)),
      failed_(other.failed()),
      failure_(std::move(other.failure_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    next_seq_ = other.next_seq_;
    chain_ = other.chain_;
    records_ = other.records_;
    bytes_ = other.bytes_;
    allocated_ = other.allocated_;
    preallocating_ = other.preallocating_;
    sync_thread_ = std::move(other.sync_thread_);
    failed_.store(other.failed(), std::memory_order_release);
    failure_ = std::move(other.failure_);
  }
  return *this;
}

void JournalWriter::close_fd() noexcept {
  sync_thread_.reset();  // joined before the file closes
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void JournalWriter::preallocate(std::uint64_t end) noexcept {
  if (!preallocating_ || end <= allocated_) return;
  const std::uint64_t target =
      (end + kJournalSegmentBytes - 1) / kJournalSegmentBytes *
      kJournalSegmentBytes;
  // Advisory: a FIFO, a filesystem without fallocate or a full disk leave
  // the writer appending as it would without, and the sync flushes the size.
  if (::fallocate(fd_, 0, static_cast<off_t>(allocated_),
                  static_cast<off_t>(target - allocated_)) == 0) {
    allocated_ = target;
  } else {
    preallocating_ = false;
  }
}

void JournalWriter::fail(const std::string& what, int err) {
  failure_ = io_message(what, path_, err);
  failed_.store(true, std::memory_order_release);
  throw Error(failure_, ErrorCode::kInternal);
}

void JournalWriter::throw_if_failed() const {
  if (failed()) throw Error(failure_, ErrorCode::kInternal);
}

void JournalWriter::append(JournalRecordType type,
                           const std::vector<std::uint8_t>& payload) {
  if (fd_ < 0) return;
  write(type, payload);
  if (const int err = sync_fd(fd_)) fail("fdatasync failed", err);
}

void JournalWriter::write(JournalRecordType type,
                          const std::vector<std::uint8_t>& payload) {
  if (fd_ < 0) return;
  throw_if_failed();
  CITL_CHECK_MSG(payload.size() <= kMaxJournalPayloadBytes,
                 "journal record payload too large");
  const std::uint64_t seq = next_seq_;
  const std::uint64_t chain =
      chain_record(chain_, type, seq, payload.data(), payload.size());
  std::vector<std::uint8_t> rec(kRecordOverhead + payload.size());
  put_u32(rec.data(), static_cast<std::uint32_t>(payload.size()));
  rec[4] = static_cast<std::uint8_t>(type);
  put_u64(rec.data() + 5, seq);
  if (!payload.empty()) {  // empty payload: data() may be null
    std::memcpy(rec.data() + 13, payload.data(), payload.size());
  }
  put_u64(rec.data() + 13 + payload.size(), chain);
  preallocate(bytes_ + rec.size());
  if (const int err = write_all(fd_, rec.data(), rec.size())) {
    fail("write failed", err);
  }
  next_seq_ = seq + 1;
  chain_ = chain;
  ++records_;
  bytes_ += rec.size();
}

void JournalWriter::start_sync() {
  if (fd_ < 0) return;
  throw_if_failed();
  if (sync_thread_ == nullptr) {
    try {
      sync_thread_ = std::make_unique<SyncThread>(fd_);
    } catch (const std::system_error& e) {
      fail("cannot start the sync thread", e.code().value());
    }
  }
  sync_thread_->start();
}

void JournalWriter::finish_sync() {
  if (fd_ < 0) return;
  const int err = sync_thread_ != nullptr ? sync_thread_->wait() : 0;
  throw_if_failed();
  if (err != 0) fail("fdatasync failed", err);
}

void JournalWriter::discard() {
  close_fd();
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

// --- scanner --------------------------------------------------------------

JournalScan scan_journal(const std::string& path) {
  // Read the whole file; scanning runs once per recovery. Journals are not
  // bounded: a compaction image is appended, never replaces the log, so the
  // file (and this read and chain check) grows with every step even though
  // replay starts at the last image.
  std::vector<std::uint8_t> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw Error("journal " + path + ": open failed (" +
                      std::string(std::strerror(errno)) + ")",
                  ErrorCode::kNotFound);
    }
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        throw_io("read failed", path);
      }
      if (r == 0) break;
      bytes.insert(bytes.end(), buf, buf + r);
    }
    ::close(fd);
  }

  if (bytes.size() < kJournalHeaderBytes) {
    throw Error("journal " + path + ": file is " +
                    std::to_string(bytes.size()) +
                    " byte(s), shorter than the " +
                    std::to_string(kJournalHeaderBytes) + "-byte header",
                ErrorCode::kJournalCorrupt);
  }
  // v1 files (written before preallocation) still recover: one rule reads
  // both, since no v1 writer ever left a zero tail.
  std::uint8_t version = 0;
  if (std::memcmp(bytes.data(), kJournalMagic, 15) == 0) {
    version = kJournalVersion;
  } else if (std::memcmp(bytes.data(), kJournalMagicV1, 15) == 0) {
    version = 1;
  } else {
    throw Error("journal " + path + ": bad magic at offset 0",
                ErrorCode::kJournalCorrupt);
  }
  if (bytes[15] != version) {
    throw Error("journal " + path + ": unsupported format version " +
                    std::to_string(static_cast<int>(bytes[15])) +
                    " at offset 15",
                ErrorCode::kJournalCorrupt);
  }

  JournalScan out;
  out.session_id = get_u32(bytes.data() + 16);
  out.config_digest = get_u64(bytes.data() + 20);
  out.chain = fnv1a(kFnv1aOffset, bytes.data(), kJournalHeaderBytes);
  out.valid_bytes = kJournalHeaderBytes;

  std::size_t pos = kJournalHeaderBytes;
  const auto corrupt_at = [&](std::size_t offset, const std::string& why) {
    out.corrupt = true;
    out.corrupt_offset = offset;
    out.corrupt_reason = why + " at offset " + std::to_string(offset) + " (" +
                         error_code_name(ErrorCode::kJournalCorrupt) + ")";
  };

  while (pos < bytes.size()) {
    // The unwritten rest of a preallocated segment reads as zeros. A record
    // never starts with five zero bytes (its type byte is nonzero), so this
    // stops within a record's first bytes, and an all-zero remainder is the
    // clean end of the log.
    if (std::all_of(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                    bytes.end(), [](std::uint8_t b) { return b == 0; })) {
      break;
    }
    const std::size_t record_start = pos;
    if (bytes.size() - pos < kRecordOverhead) {
      corrupt_at(record_start, "truncated record frame");
      break;
    }
    const std::uint32_t len = get_u32(bytes.data() + pos);
    if (len > kMaxJournalPayloadBytes) {
      corrupt_at(record_start, "record payload length " + std::to_string(len) +
                                   " exceeds the 1 MiB bound");
      break;
    }
    if (bytes.size() - pos < kRecordOverhead + len) {
      corrupt_at(record_start, "truncated record payload");
      break;
    }
    const auto type = static_cast<JournalRecordType>(bytes[pos + 4]);
    if (static_cast<std::uint8_t>(type) <
            static_cast<std::uint8_t>(JournalRecordType::kConfig) ||
        static_cast<std::uint8_t>(type) >
            static_cast<std::uint8_t>(JournalRecordType::kCheckpoint)) {
      corrupt_at(record_start,
                 "unknown record type " +
                     std::to_string(static_cast<int>(bytes[pos + 4])));
      break;
    }
    const std::uint64_t seq = get_u64(bytes.data() + pos + 5);
    if (seq != out.next_seq) {
      corrupt_at(record_start, "record sequence " + std::to_string(seq) +
                                   " (expected " +
                                   std::to_string(out.next_seq) + ")");
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 13;
    const std::uint64_t want = chain_record(out.chain, type, seq, payload, len);
    const std::uint64_t got = get_u64(payload + len);
    if (want != got) {
      corrupt_at(record_start, "chain hash mismatch");
      break;
    }
    JournalRecord rec;
    rec.type = type;
    rec.seq = seq;
    rec.payload.assign(payload, payload + len);
    out.records.push_back(std::move(rec));
    out.chain = want;
    out.next_seq = seq + 1;
    pos += kRecordOverhead + len;
    out.valid_bytes = pos;
  }
  return out;
}

// --- checkpoint image codec ----------------------------------------------

void encode_checkpoint(WireWriter& w, const hil::TurnLoop::Checkpoint& cp) {
  w.f64(cp.time_s);
  w.u64(static_cast<std::uint64_t>(cp.turn));
  w.u8(cp.control_on ? 1 : 0);
  w.f64(cp.ctrl_phase_rad);
  w.f64(cp.correction_hz);
  w.f64(cp.last_phase);
  w.f64(cp.budget_cycles);
  // A violation-count slot kept for the image's layout: the profiler's miss
  // count, which is the loop's violation count. Decode skips it.
  w.u64(static_cast<std::uint64_t>(cp.deadline.misses()));

  const auto ctrl = cp.controller.state();
  w.u32(static_cast<std::uint32_t>(ctrl.fir_delay.size()));
  for (double v : ctrl.fir_delay) w.f64(v);
  w.u64(static_cast<std::uint64_t>(ctrl.fir_head));
  w.f64(ctrl.dc_prev_in);
  w.f64(ctrl.dc_prev_out);
  w.u8(ctrl.primed ? 1 : 0);
  w.f64(ctrl.last_correction_hz);

  const auto dec = cp.decimator.state();
  w.u64(static_cast<std::uint64_t>(dec.count));
  w.f64(dec.acc);
  w.f64(dec.output);

  const auto rng = cp.noise.state();
  for (std::uint64_t s : rng.s) w.u64(s);

  const auto dl = cp.deadline.state();
  w.u64(static_cast<std::uint64_t>(dl.revolutions));
  w.u64(static_cast<std::uint64_t>(dl.misses));
  w.f64(dl.headroom_min);
  w.f64(dl.headroom_max);
  w.f64(dl.headroom_sum);
  w.f64(dl.worst_overrun);
  for (std::uint64_t b : dl.buckets) w.u64(b);
  w.u32(static_cast<std::uint32_t>(dl.worst.size()));
  for (const auto& miss : dl.worst) {
    w.u64(static_cast<std::uint64_t>(miss.revolution));
    w.f64(miss.time_s);
    w.f64(miss.exec_cycles);
    w.f64(miss.budget_cycles);
  }

  w.u32(static_cast<std::uint32_t>(cp.states.size()));
  for (double v : cp.states) w.f64(v);
  w.u32(static_cast<std::uint32_t>(cp.pipe_regs.size()));
  for (double v : cp.pipe_regs) w.f64(v);
}

void decode_checkpoint_into(WireReader& r, hil::TurnLoop::Checkpoint& cp) {
  cp.time_s = r.f64();
  cp.turn = static_cast<std::int64_t>(r.u64());
  cp.control_on = r.u8() != 0;
  cp.ctrl_phase_rad = r.f64();
  cp.correction_hz = r.f64();
  cp.last_phase = r.f64();
  cp.budget_cycles = r.f64();
  (void)r.u64();  // the violation-count slot; the profiler below holds it

  ctrl::BeamPhaseController::State ctrl_st;
  const std::uint32_t fir_n = r.u32();
  if (fir_n != cp.controller.state().fir_delay.size()) {
    throw Error("checkpoint image FIR length " + std::to_string(fir_n) +
                    " does not match the session's controller",
                ErrorCode::kJournalCorrupt);
  }
  ctrl_st.fir_delay.resize(fir_n);
  for (auto& v : ctrl_st.fir_delay) v = r.f64();
  ctrl_st.fir_head = static_cast<std::size_t>(r.u64());
  ctrl_st.dc_prev_in = r.f64();
  ctrl_st.dc_prev_out = r.f64();
  ctrl_st.primed = r.u8() != 0;
  ctrl_st.last_correction_hz = r.f64();
  cp.controller.set_state(ctrl_st);

  ctrl::PhaseDecimator::State dec_st;
  dec_st.count = static_cast<std::size_t>(r.u64());
  dec_st.acc = r.f64();
  dec_st.output = r.f64();
  cp.decimator.set_state(dec_st);

  Rng::State rng_st;
  for (auto& s : rng_st.s) s = r.u64();
  cp.noise.set_state(rng_st);

  obs::DeadlineProfiler::State dl;
  dl.revolutions = static_cast<std::int64_t>(r.u64());
  dl.misses = static_cast<std::int64_t>(r.u64());
  dl.headroom_min = r.f64();
  dl.headroom_max = r.f64();
  dl.headroom_sum = r.f64();
  dl.worst_overrun = r.f64();
  for (auto& b : dl.buckets) b = r.u64();
  const std::uint32_t worst_n = r.u32();
  if (worst_n > obs::DeadlineProfiler::kWorstRecords) {
    throw Error("checkpoint image carries " + std::to_string(worst_n) +
                    " worst-miss records (profiler keeps at most " +
                    std::to_string(obs::DeadlineProfiler::kWorstRecords) + ")",
                ErrorCode::kJournalCorrupt);
  }
  dl.worst.resize(worst_n);
  for (auto& miss : dl.worst) {
    miss.revolution = static_cast<std::int64_t>(r.u64());
    miss.time_s = r.f64();
    miss.exec_cycles = r.f64();
    miss.budget_cycles = r.f64();
  }
  cp.deadline.set_state(dl);

  const std::uint32_t states_n = r.u32();
  if (states_n != cp.states.size()) {
    throw Error("checkpoint image has " + std::to_string(states_n) +
                    " model states, session expects " +
                    std::to_string(cp.states.size()),
                ErrorCode::kJournalCorrupt);
  }
  for (auto& v : cp.states) v = r.f64();
  const std::uint32_t regs_n = r.u32();
  if (regs_n != cp.pipe_regs.size()) {
    throw Error("checkpoint image has " + std::to_string(regs_n) +
                    " pipeline registers, session expects " +
                    std::to_string(cp.pipe_regs.size()),
                ErrorCode::kJournalCorrupt);
  }
  for (auto& v : cp.pipe_regs) v = r.f64();
}

}  // namespace citl::serve
