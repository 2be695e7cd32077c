#include "serve/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "obs/exposition.hpp"
#include "serve/journal.hpp"

namespace citl::serve {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- deadline-aware step gate ---------------------------------------------
// A counting gate of `width` slots whose waiters are admitted in priority
// order (highest first; FIFO among equals). Priority is the session's
// current occupancy estimate: the session with the least real-time headroom
// steps before comfortable ones when slots are contended.
class SessionRuntime::StepGate {
 public:
  explicit StepGate(unsigned width) : width_(width == 0 ? 1 : width) {}

  void acquire(double priority) {
    std::unique_lock<std::mutex> lk(mutex_);
    const std::uint64_t seq = next_seq_++;
    // Order by descending priority, then arrival. Keys are unique via seq.
    const Key key{-priority, seq};
    waiting_.insert(key);
    cv_.wait(lk, [&] {
      return running_ < width_ && *waiting_.begin() == key;
    });
    waiting_.erase(key);
    ++running_;
    // A freed slot may admit the next-highest waiter too.
    if (running_ < width_ && !waiting_.empty()) cv_.notify_all();
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      --running_;
    }
    cv_.notify_all();
  }

 private:
  using Key = std::pair<double, std::uint64_t>;
  std::mutex mutex_;
  std::condition_variable cv_;
  unsigned width_;
  unsigned running_ = 0;
  std::uint64_t next_seq_ = 0;
  std::set<Key> waiting_;
};

// --- session --------------------------------------------------------------

struct SessionRuntime::Session {
  Session(std::uint32_t id_, api::SessionConfig api_config_,
          hil::TurnLoopConfig config_,
          std::shared_ptr<const cgra::CompiledKernel> kernel)
      : id(id_),
        api_config(api_config_),
        config(config_),
        loop(config_, std::move(kernel)) {
    last_used_ns.store(steady_now_ns(), std::memory_order_relaxed);
  }

  std::uint32_t id;  ///< assigned before the session is published
  const api::SessionConfig api_config;
  const hil::TurnLoopConfig config;

  /// Serialises every engine operation on this session.
  std::mutex mutex;
  hil::TurnLoop loop;

  double static_occupancy = 0.0;
  double budget_cycles = 0.0;
  unsigned schedule_length = 0;

  std::map<std::uint32_t, hil::TurnLoop::Checkpoint> snapshots;
  std::uint32_t next_snapshot_id = 1;

  // --- durability (guarded by `mutex` except the published atomics) -------
  JournalWriter journal;               ///< disabled when journaling is off
  std::uint64_t create_nonce = 0;      ///< idempotent-create key (0 = none)
  std::uint64_t step_seq = 0;          ///< last applied exactly-once step
  std::vector<hil::TurnRecord> last_step_records;  ///< cached for retries
  std::int64_t turns_since_checkpoint = 0;

  // Published (lock-free) views of the stepped state, refreshed after each
  // step while the session mutex is held. Admission control, the step-gate
  // priority, info() and the metrics collector read these without taking
  // the session mutex, so a long-running step cannot stall them.
  std::atomic<double> occupancy{0.0};
  std::atomic<std::int64_t> turn{0};
  std::atomic<double> time_s{0.0};
  std::atomic<std::int64_t> realtime_violations{0};
  std::atomic<bool> aborted{false};
  std::atomic<std::uint64_t> step_seq_pub{0};
  /// Last request touching this session (steady clock, for TTL reaping).
  std::atomic<std::int64_t> last_used_ns{0};

  void touch() {
    last_used_ns.store(steady_now_ns(), std::memory_order_relaxed);
  }

  /// Throws kInternal once the journal failed: after a failed sync the
  /// engine may hold a step nobody acknowledged, so only destroy() may
  /// still reach the session.
  void check_journal() const {
    if (journal.failed()) {
      throw Error("session " + std::to_string(id) +
                      " lost its journal and serves no more requests",
                  ErrorCode::kInternal);
    }
  }

  /// Takes `mutex` for one request; see check_journal().
  [[nodiscard]] std::unique_lock<std::mutex> lock() {
    std::unique_lock<std::mutex> lk(mutex);
    check_journal();
    return lk;
  }

  /// Refresh the published views from the loop. Caller holds `mutex`.
  void publish() {
    const auto& d = loop.deadline();
    occupancy.store(d.revolutions() > 0 ? d.occupancy_quantile(0.99)
                                        : static_occupancy,
                    std::memory_order_relaxed);
    turn.store(loop.turn(), std::memory_order_relaxed);
    time_s.store(loop.time_s(), std::memory_order_relaxed);
    realtime_violations.store(loop.realtime_violations(),
                              std::memory_order_relaxed);
    aborted.store(loop.aborted(), std::memory_order_relaxed);
    step_seq_pub.store(step_seq, std::memory_order_relaxed);
  }
};

// --- runtime --------------------------------------------------------------

SessionRuntime::SessionRuntime(RuntimeConfig config)
    : config_(config),
      gate_(std::make_unique<StepGate>(
          config.max_concurrent_steps != 0
              ? config.max_concurrent_steps
              : std::thread::hardware_concurrency())),
      sessions_created_(metrics_.counter("serve.sessions_created_total")),
      sessions_destroyed_(metrics_.counter("serve.sessions_destroyed_total")),
      admission_rejections_(
          metrics_.counter("serve.admission_rejected_total")),
      step_requests_(metrics_.counter("serve.step_requests_total")),
      turns_stepped_(metrics_.counter("serve.turns_total")),
      sessions_recovered_(metrics_.counter("serve.sessions_recovered_total")),
      sessions_reaped_(metrics_.counter("serve.sessions_reaped_total")),
      journal_records_(metrics_.counter("serve.journal_records_total")),
      journal_bytes_(metrics_.counter("serve.journal_bytes_total")),
      journals_corrupt_(metrics_.counter("serve.journals_corrupt_total")),
      step_replays_(metrics_.counter("serve.step_replays_total")) {
  if (!config_.state_dir.empty()) {
    std::filesystem::create_directories(config_.state_dir);
  }
}

SessionRuntime::~SessionRuntime() = default;

std::shared_ptr<SessionRuntime::Session> SessionRuntime::find(
    std::uint32_t id) {
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw Error("session " + std::to_string(id) + " not found",
                ErrorCode::kNotFound);
  }
  it->second->touch();
  return it->second;
}

double SessionRuntime::occupancy_estimate(const Session& s) {
  return s.occupancy.load(std::memory_order_relaxed);
}

double SessionRuntime::aggregate_occupancy_locked() {
  double sum = 0.0;
  for (const auto& [id, s] : sessions_) sum += occupancy_estimate(*s);
  for (const auto& [id, occupancy] : reserved_) sum += occupancy;
  return sum;
}

std::string SessionRuntime::journal_path(std::uint32_t id) const {
  return config_.state_dir + "/session-" + std::to_string(id) + ".journal";
}

std::shared_ptr<SessionRuntime::Session> SessionRuntime::build_session(
    std::uint32_t id, const api::SessionConfig& config) {
  const hil::TurnLoopConfig tl = api::to_turnloop_config(config);
  const auto kind = tl.synthesize_waveform ? sweep::KernelKind::kAnalytic
                                           : sweep::KernelKind::kSampled;
  auto kernel = cache_.get(hil::effective_kernel_config(tl), tl.arch, kind);

  // One revolution's budget at the CGRA clock vs one kernel iteration.
  const double budget_cycles = kernel->arch.clock_hz / tl.f_ref_hz;
  const double static_occupancy =
      static_cast<double>(kernel->schedule.length) / budget_cycles;

  auto session = std::make_shared<Session>(id, config, tl, std::move(kernel));
  session->static_occupancy = static_occupancy;
  session->budget_cycles = budget_cycles;
  session->schedule_length = session->loop.kernel().schedule.length;
  session->occupancy.store(static_occupancy, std::memory_order_relaxed);
  return session;
}

std::optional<std::uint32_t> SessionRuntime::admit_locked(
    std::uint64_t nonce) {
  if (nonce != 0) {
    // A retried create (response lost, request re-sent) must not leak an
    // orphan session: the nonce identifies the original request.
    auto it = nonces_.find(nonce);
    if (it != nonces_.end()) return it->second;
  }
  const std::size_t live = sessions_.size() + reserved_.size();
  if (live >= config_.max_sessions) {
    admission_rejections_.add();
    throw ConfigError(
        "admission rejected: session pool is full (" +
            std::to_string(live) + " of " +
            std::to_string(config_.max_sessions) + " sessions live)",
        ErrorCode::kAdmissionRejected);
  }
  return std::nullopt;
}

std::uint32_t SessionRuntime::create(const api::SessionConfig& config,
                                     std::uint64_t nonce) {
  // Validate first: a malformed config is kInvalidConfig (etc.) even when
  // the pool is full, never an admission problem.
  api::validate(config);
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    if (const auto known = admit_locked(nonce)) return *known;
  }
  // The kernel compiles before the id is assigned, so a config the
  // toolchain refuses never consumes an id or a journal file. It compiles
  // outside the lock, which every other session's requests take to find
  // their session: a cold host compile takes a fraction of a second.
  auto session = build_session(0, config);

  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    // Another create may have used the nonce or the last slot meanwhile.
    if (const auto known = admit_locked(nonce)) return *known;
    const double aggregate = aggregate_occupancy_locked();
    if (aggregate + session->static_occupancy > config_.occupancy_budget) {
      admission_rejections_.add();
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "admission rejected: aggregate CGRA occupancy %.3f + new "
                    "session's %.3f exceeds the %.3f budget",
                    aggregate, session->static_occupancy,
                    config_.occupancy_budget);
      throw ConfigError(buf, ErrorCode::kAdmissionRejected);
    }
    // Reserve the id and the admission slot; the journal is opened and
    // synced without the lock, so a slow disk stalls only this create.
    id = next_id_++;
    reserved_.emplace(id, session->static_occupancy);
  }
  session->id = id;
  session->create_nonce = nonce;
  try {
    if (!config_.state_dir.empty()) {
      session->journal = JournalWriter(journal_path(id), id,
                                       api::session_config_digest(config));
      WireWriter w;
      encode_session_config(w, config);
      w.u64(nonce);
      append_journal(*session, JournalRecordType::kConfig, w);
    }
  } catch (...) {
    session->journal.discard();
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    reserved_.erase(id);
    throw;
  }

  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    reserved_.erase(id);
    // A create with the same nonce may have published while this one
    // journaled: the client gets that session, and this one is dropped.
    const auto known = nonce != 0 ? nonces_.find(nonce) : nonces_.end();
    if (known == nonces_.end()) {
      if (nonce != 0) nonces_.emplace(nonce, id);
      sessions_.emplace(id, std::move(session));
      sessions_created_.add();
      return id;
    }
    id = known->second;
  }
  session->journal.discard();
  return id;
}

void SessionRuntime::destroy(std::uint32_t id) { destroy_session(id, false); }

void SessionRuntime::destroy_session(std::uint32_t id, bool reaped) {
  std::shared_ptr<Session> doomed;  // deleted outside the lock
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw Error("session " + std::to_string(id) + " not found",
                  ErrorCode::kNotFound);
    }
    doomed = std::move(it->second);
    sessions_.erase(it);
    if (doomed->create_nonce != 0) nonces_.erase(doomed->create_nonce);
  }
  {
    // A destroyed session's journal goes with it: recovery must not
    // resurrect sessions the client explicitly tore down.
    std::lock_guard<std::mutex> lk(doomed->mutex);
    doomed->journal.discard();
  }
  sessions_destroyed_.add();
  if (reaped) sessions_reaped_.add();
}

std::size_t SessionRuntime::reap_idle() {
  if (!(config_.idle_session_ttl_s > 0.0)) return 0;
  const std::int64_t cutoff_ns =
      steady_now_ns() -
      static_cast<std::int64_t>(config_.idle_session_ttl_s * 1e9);
  std::vector<std::uint32_t> idle;
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    for (const auto& [id, s] : sessions_) {
      if (s->last_used_ns.load(std::memory_order_relaxed) < cutoff_ns) {
        idle.push_back(id);
      }
    }
  }
  std::size_t reaped = 0;
  for (const std::uint32_t id : idle) {
    try {
      destroy_session(id, true);
      ++reaped;
    } catch (const Error&) {
      // Raced with an explicit destroy — already gone.
    }
  }
  return reaped;
}

std::vector<hil::TurnRecord> SessionRuntime::step(std::uint32_t id,
                                                  std::uint32_t turns,
                                                  std::uint64_t step_seq) {
  if (turns > config_.max_turns_per_step) {
    throw ConfigError("step of " + std::to_string(turns) +
                          " turns exceeds max_turns_per_step (" +
                          std::to_string(config_.max_turns_per_step) + ")",
                      ErrorCode::kOutOfRange);
  }
  auto s = find(id);
  step_requests_.add();

  const auto session_lock = s->lock();
  if (step_seq != 0) {
    if (step_seq == s->step_seq) {
      // Exactly-once retry: the step already applied; re-serve the cached
      // response instead of stepping twice.
      step_replays_.add();
      return s->last_step_records;
    }
    if (step_seq != s->step_seq + 1) {
      throw Error("step sequence " + std::to_string(step_seq) +
                      " out of order for session " + std::to_string(id) +
                      " (last applied " + std::to_string(s->step_seq) + ")",
                  ErrorCode::kBadState);
    }
  }
  if (s->loop.aborted()) {
    throw Error("session " + std::to_string(id) +
                    " was aborted by its supervisor's deadline policy",
                ErrorCode::kBadState);
  }
  const std::uint64_t seq = step_seq != 0 ? step_seq : s->step_seq + 1;

  if (s->journal.enabled()) {
    // Periodic compaction image, written *before* the step it precedes so
    // recovery always re-executes the final journalled step (rebuilding the
    // cached response a retry of that step needs).
    if (!s->api_config.supervised && config_.checkpoint_interval_turns > 0 &&
        s->turns_since_checkpoint >=
            static_cast<std::int64_t>(config_.checkpoint_interval_turns)) {
      WireWriter w;
      w.u64(s->step_seq);
      encode_checkpoint(w, s->loop.checkpoint());
      append_journal(*s, JournalRecordType::kCheckpoint, w, /*sync=*/false);
      s->turns_since_checkpoint = 0;
    }
    // Write-ahead: the step is written before it executes and durable
    // before it is acknowledged, so a crash after the ack replays it on
    // recovery — the client's retry then finds it applied exactly once. One
    // sync covers the step and the image, and it runs during the turns.
    WireWriter w;
    w.u32(turns);
    w.u64(seq);
    append_journal(*s, JournalRecordType::kStep, w, /*sync=*/false);
    s->journal.start_sync();
  }

  std::vector<hil::TurnRecord> out;
  out.reserve(turns);
  {
    // Every exit path waits for the sync, so the session lock is never
    // released while one of its records is written but not yet durable. A
    // failed sync marks the writer failed; finish_sync() below reports it.
    struct AwaitSync {
      JournalWriter& journal;
      ~AwaitSync() {
        try {
          journal.finish_sync();
        } catch (const Error&) {
        }
      }
    } await_sync{s->journal};
    // RAII slot so exceptions thrown mid-step still release the gate.
    gate_->acquire(occupancy_estimate(*s));
    struct Release {
      StepGate* gate;
      ~Release() { gate->release(); }
    } release{gate_.get()};
    s->loop.run(static_cast<std::int64_t>(turns),
                [&](const hil::TurnRecord& rec) { out.push_back(rec); });
  }
  s->journal.finish_sync();  // acknowledge only a durable step
  s->step_seq = seq;
  s->last_step_records = out;
  s->turns_since_checkpoint += static_cast<std::int64_t>(turns);
  s->publish();
  turns_stepped_.add(out.size());
  return out;
}

void SessionRuntime::append_journal(Session& s, JournalRecordType type,
                                    const WireWriter& payload, bool sync) {
  if (!s.journal.enabled()) return;
  const std::uint64_t before = s.journal.bytes_written();
  if (sync) {
    s.journal.append(type, payload.bytes());
  } else {
    s.journal.write(type, payload.bytes());
  }
  journal_records_.add();
  journal_bytes_.add(s.journal.bytes_written() - before);
}

// The small mutating requests below apply, then journal: validation failures
// throw before anything lands in the journal, so replay can never reproduce
// an error path.

void SessionRuntime::set_param(std::uint32_t id, std::string_view name,
                               double value) {
  auto s = find(id);
  const auto lk = s->lock();
  api::set_kernel_param(s->loop.model(), name, value, s->loop.lane());
  WireWriter w;
  w.str(name);
  w.f64(value);
  append_journal(*s, JournalRecordType::kSetParam, w);
}

double SessionRuntime::param(std::uint32_t id, std::string_view name) {
  auto s = find(id);
  const auto lk = s->lock();
  return api::kernel_param(s->loop.model(), name, s->loop.lane());
}

void SessionRuntime::set_state(std::uint32_t id, std::string_view name,
                               double value) {
  auto s = find(id);
  const auto lk = s->lock();
  api::set_kernel_state(s->loop.model(), name, value, s->loop.lane());
  WireWriter w;
  w.str(name);
  w.f64(value);
  append_journal(*s, JournalRecordType::kSetState, w);
}

double SessionRuntime::state(std::uint32_t id, std::string_view name) {
  auto s = find(id);
  const auto lk = s->lock();
  return api::kernel_state(s->loop.model(), name, s->loop.lane());
}

void SessionRuntime::enable_control(std::uint32_t id, bool on) {
  auto s = find(id);
  const auto lk = s->lock();
  s->loop.enable_control(on);
  WireWriter w;
  w.u8(on ? 1 : 0);
  append_journal(*s, JournalRecordType::kEnableControl, w);
}

std::uint32_t SessionRuntime::snapshot(std::uint32_t id) {
  auto s = find(id);
  const auto lk = s->lock();
  if (s->api_config.supervised) {
    throw ConfigError(
        "snapshot: supervised sessions cannot be checkpointed (supervisor "
        "state is not part of the image)",
        ErrorCode::kUnsupported);
  }
  if (s->snapshots.size() >= config_.max_snapshots_per_session) {
    throw ConfigError(
        "snapshot: session " + std::to_string(id) + " already holds " +
            std::to_string(s->snapshots.size()) +
            " snapshots (max_snapshots_per_session)",
        ErrorCode::kOutOfRange);
  }
  const std::uint32_t snap_id = s->next_snapshot_id++;
  auto [it, inserted] = s->snapshots.emplace(snap_id, s->loop.checkpoint());
  WireWriter w;
  w.u32(snap_id);
  encode_checkpoint(w, it->second);
  append_journal(*s, JournalRecordType::kSnapshot, w);
  return snap_id;
}

void SessionRuntime::restore(std::uint32_t id, std::uint32_t snapshot_id) {
  auto s = find(id);
  const auto lk = s->lock();
  auto it = s->snapshots.find(snapshot_id);
  if (it == s->snapshots.end()) {
    throw Error("snapshot " + std::to_string(snapshot_id) +
                    " not found in session " + std::to_string(id),
                ErrorCode::kNotFound);
  }
  s->loop.restore(it->second);
  s->publish();
  WireWriter w;
  w.u32(snapshot_id);
  append_journal(*s, JournalRecordType::kRestore, w);
}

// --- crash recovery -------------------------------------------------------

std::shared_ptr<SessionRuntime::Session> SessionRuntime::replay_journal(
    const std::string& path, JournalScan& scan) {
  if (scan.records.empty() ||
      scan.records.front().type != JournalRecordType::kConfig) {
    throw Error("journal " + path + ": no config record at offset " +
                    std::to_string(kJournalHeaderBytes),
                ErrorCode::kJournalCorrupt);
  }
  WireReader cfg_reader(scan.records.front().payload);
  const api::SessionConfig config = decode_session_config(cfg_reader);
  const std::uint64_t nonce = cfg_reader.u64();
  cfg_reader.expect_end();
  if (api::session_config_digest(config) != scan.config_digest) {
    throw Error("journal " + path +
                    ": config record does not match the header digest",
                ErrorCode::kJournalCorrupt);
  }

  auto session = build_session(scan.session_id, config);
  session->create_nonce = nonce;
  hil::TurnLoop& loop = session->loop;

  // Fast-forward point: the last compaction image. Records before it that
  // the image captures (steps, state writes, control toggles, restores) are
  // skipped; parameter registers are NOT part of the image, so param writes
  // are applied throughout, and snapshot images are collected throughout
  // (a later restore may reference an early snapshot).
  std::size_t ckpt = 0;  // 0 = none (record 0 is the config)
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    if (scan.records[i].type == JournalRecordType::kCheckpoint) ckpt = i;
  }

  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    const JournalRecord& rec = scan.records[i];
    WireReader r(rec.payload);
    const bool before_ckpt = ckpt != 0 && i < ckpt;
    switch (rec.type) {
      case JournalRecordType::kConfig:
        throw Error("journal " + path + ": duplicate config record #" +
                        std::to_string(rec.seq),
                    ErrorCode::kJournalCorrupt);
      case JournalRecordType::kSetParam: {
        const std::string name = r.str();
        const double value = r.f64();
        r.expect_end();
        api::set_kernel_param(loop.model(), name, value, loop.lane());
        break;
      }
      case JournalRecordType::kSetState: {
        const std::string name = r.str();
        const double value = r.f64();
        r.expect_end();
        if (!before_ckpt) {
          api::set_kernel_state(loop.model(), name, value, loop.lane());
        }
        break;
      }
      case JournalRecordType::kEnableControl: {
        const bool on = r.u8() != 0;
        r.expect_end();
        if (!before_ckpt) loop.enable_control(on);
        break;
      }
      case JournalRecordType::kStep: {
        const std::uint32_t turns = r.u32();
        const std::uint64_t seq = r.u64();
        r.expect_end();
        if (!before_ckpt) {
          std::vector<hil::TurnRecord> out;
          out.reserve(turns);
          loop.run(static_cast<std::int64_t>(turns),
                   [&](const hil::TurnRecord& tr) { out.push_back(tr); });
          session->last_step_records = std::move(out);
          session->turns_since_checkpoint +=
              static_cast<std::int64_t>(turns);
        }
        session->step_seq = seq;
        break;
      }
      case JournalRecordType::kSnapshot: {
        const std::uint32_t snap_id = r.u32();
        hil::TurnLoop::Checkpoint image = loop.checkpoint();
        decode_checkpoint_into(r, image);
        r.expect_end();
        session->snapshots.emplace(snap_id, std::move(image));
        session->next_snapshot_id =
            std::max(session->next_snapshot_id, snap_id + 1);
        break;
      }
      case JournalRecordType::kRestore: {
        const std::uint32_t snap_id = r.u32();
        r.expect_end();
        if (!before_ckpt) {
          auto it = session->snapshots.find(snap_id);
          if (it == session->snapshots.end()) {
            throw Error("journal " + path + ": restore of unknown snapshot " +
                            std::to_string(snap_id),
                        ErrorCode::kJournalCorrupt);
          }
          loop.restore(it->second);
        }
        break;
      }
      case JournalRecordType::kCheckpoint: {
        if (i != ckpt) break;  // superseded by a later compaction image
        const std::uint64_t seq = r.u64();
        hil::TurnLoop::Checkpoint image = loop.checkpoint();
        decode_checkpoint_into(r, image);
        r.expect_end();
        loop.restore(image);
        session->step_seq = seq;
        session->turns_since_checkpoint = 0;
        break;
      }
    }
  }

  if (!config_.state_dir.empty()) {
    // Continue the same file (truncating any corrupt tail) so the recovered
    // session keeps journaling where the crashed process stopped.
    session->journal = JournalWriter(path, scan);
  }
  session->publish();
  return session;
}

std::size_t SessionRuntime::recover() {
  if (config_.state_dir.empty()) return 0;
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.state_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("session-", 0) == 0 &&
        name.size() > 16 && name.substr(name.size() - 8) == ".journal") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::size_t recovered = 0;
  for (const std::string& path : paths) {
    std::shared_ptr<Session> session;
    try {
      JournalScan scan = scan_journal(path);
      if (scan.corrupt) {
        // The valid prefix still recovers; the damage is surfaced in the
        // counters (and the corrupt tail is truncated on reopen).
        journals_corrupt_.add();
      }
      session = replay_journal(path, scan);
    } catch (const std::exception&) {
      // Unusable from byte 0 (bad magic/version/header) or the replay
      // itself failed: skip the file, keep serving.
      journals_corrupt_.add();
      continue;
    }
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    if (sessions_.count(session->id) != 0) {
      journals_corrupt_.add();
      continue;  // duplicate id across files — first one wins
    }
    next_id_ = std::max(next_id_, session->id + 1);
    if (session->create_nonce != 0) {
      nonces_.emplace(session->create_nonce, session->id);
    }
    sessions_.emplace(session->id, std::move(session));
    sessions_recovered_.add();
    ++recovered;
  }
  return recovered;
}

SessionInfo SessionRuntime::info(std::uint32_t id) {
  auto s = find(id);
  s->check_journal();
  SessionInfo out;
  out.id = s->id;
  out.schedule_length = s->schedule_length;
  out.budget_cycles = s->budget_cycles;
  out.occupancy_estimate = occupancy_estimate(*s);
  out.turn = s->turn.load(std::memory_order_relaxed);
  out.time_s = s->time_s.load(std::memory_order_relaxed);
  out.realtime_violations =
      s->realtime_violations.load(std::memory_order_relaxed);
  out.supervised = s->api_config.supervised;
  out.aborted = s->aborted.load(std::memory_order_relaxed);
  out.last_step_seq = s->step_seq_pub.load(std::memory_order_relaxed);
  return out;
}

RuntimeStats SessionRuntime::stats() {
  RuntimeStats out;
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    out.active_sessions = sessions_.size();
    out.occupancy_admitted = aggregate_occupancy_locked();
  }
  out.sessions_created = sessions_created_.value();
  out.sessions_destroyed = sessions_destroyed_.value();
  out.admission_rejections = admission_rejections_.value();
  out.step_requests = step_requests_.value();
  out.turns_stepped = turns_stepped_.value();
  out.kernel_compilations = cache_.compilations();
  out.kernel_lookups = cache_.lookups();
  out.sessions_recovered = sessions_recovered_.value();
  out.sessions_reaped = sessions_reaped_.value();
  out.journal_records = journal_records_.value();
  out.journal_bytes = journal_bytes_.value();
  out.journals_corrupt = journals_corrupt_.value();
  out.step_replays = step_replays_.value();
  return out;
}

std::string SessionRuntime::prometheus_text() {
  obs::MetricsSnapshot snap = metrics_.snapshot();
  // Scrape-time values join the snapshot. The per-session gauges are not
  // registered: the registry cannot drop a destroyed session's series.
  snap.counters.emplace_back("serve.kernel_compilations_total",
                             cache_.compilations());
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    snap.gauges.emplace_back("serve.sessions_active",
                             static_cast<double>(sessions_.size()));
    snap.gauges.emplace_back("serve.occupancy_admitted",
                             aggregate_occupancy_locked());
    for (const auto& [id, s] : sessions_) {
      snap.gauges.emplace_back(
          "serve.session_occupancy[session=" + std::to_string(id) + "]",
          occupancy_estimate(*s));
    }
    for (const auto& [id, s] : sessions_) {
      snap.gauges.emplace_back(
          "serve.session_turn[session=" + std::to_string(id) + "]",
          static_cast<double>(s->turn.load(std::memory_order_relaxed)));
    }
  }
  return obs::prometheus_text(snap);
}

}  // namespace citl::serve
