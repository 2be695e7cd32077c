// SessionRuntime: a multi-tenant pool of HIL engine instances.
//
// Each session is one turn-level closed loop (hil::TurnLoop — optionally
// supervised) created from an api::SessionConfig. The runtime owns what the
// engines cannot do for themselves in a multi-tenant world:
//
//   * shared kernel compilation — every create() resolves its compiled
//     kernel through a sweep::KernelCache, so a hundred sessions at the
//     same operating point pay for one parse→lower→schedule run;
//   * admission control — a new session is refused (kAdmissionRejected)
//     when the session cap is reached or when the pool's aggregate CGRA
//     occupancy would exceed the configured budget. A session's occupancy
//     starts as the static estimate schedule_length/budget_cycles and is
//     replaced by its DeadlineProfiler's observed p99 once it has stepped —
//     the same headroom percentile the sweep reports (docs/SERVING.md);
//   * deadline-aware scheduling — concurrent step() calls pass a gate that
//     admits at most `max_concurrent_steps` steppers, least-headroom-first:
//     when slots are contended, the session closest to its real-time budget
//     runs before comfortable ones, bounding worst-case turn latency skew;
//   * snapshot/restore — server-side TurnLoop::Checkpoint images by id
//     (fault-free, unsupervised sessions only: injector/supervisor state is
//     not part of the checkpoint image, so those report kUnsupported).
//
// Determinism: the runtime adds no nondeterminism to a session. Stepping is
// serialised per session (one mutex per session), the engine never migrates
// threads' state, and the gate only orders *when* a step runs, never what
// it computes — N concurrent sessions are each bit-identical to their
// serial replay (pinned by the ServeRuntime tests).
//
// Every public operation reports failures as citl::Error subclasses with a
// typed ErrorCode; the server maps them 1:1 onto wire status codes, so a
// remote client sees exactly what an in-process caller catches.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "hil/turnloop.hpp"
#include "obs/metrics.hpp"
#include "sweep/kernel_cache.hpp"

namespace citl::serve {

struct JournalScan;
class WireWriter;
enum class JournalRecordType : std::uint8_t;

struct RuntimeConfig {
  /// Hard cap on concurrently live sessions.
  std::size_t max_sessions = 64;
  /// Aggregate CGRA occupancy budget across admitted sessions (sum of
  /// per-session occupancy estimates; 1.0 ≙ one fully-loaded CGRA). The
  /// default models an 8-overlay deployment at ~90% utilisation.
  double occupancy_budget = 7.2;
  /// Step-gate width: how many sessions may execute turns at once.
  /// 0 = hardware_concurrency.
  unsigned max_concurrent_steps = 0;
  /// Largest single step() request (kOutOfRange beyond it). A step over
  /// citl-wire-v1 is bounded lower, by the records one response frame holds
  /// (serve::kMaxStepTurns, 21845): the server refuses a longer one with
  /// kOutOfRange before it runs or reaches the journal.
  std::uint32_t max_turns_per_step = 1u << 16;
  /// Checkpoint images retained per session (kOutOfRange beyond it).
  std::size_t max_snapshots_per_session = 16;
  /// Directory for per-session citl-journal-v2 write-ahead journals. Empty =
  /// journaling off (no durability). With a state_dir set, every mutating
  /// request is journalled + synced before it is acknowledged, and
  /// recover() rebuilds the sessions found there bit-exactly.
  std::string state_dir;
  /// Turns between periodic journal checkpoint images (bounds replay time on
  /// recovery). 0 disables compaction: recovery replays from the config
  /// record. Supervised sessions never compact (their state has no
  /// checkpoint image) — they always replay from turn 0.
  std::uint32_t checkpoint_interval_turns = 1u << 16;
  /// Sessions idle longer than this are reaped by reap_idle() (their journal
  /// is deleted with them). 0 disables TTL reaping.
  double idle_session_ttl_s = 0.0;
};

/// Point-in-time aggregate counters (monotonic except active/occupancy),
/// read from the runtime's metrics() registry.
struct RuntimeStats {
  std::size_t active_sessions = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_destroyed = 0;
  std::uint64_t admission_rejections = 0;
  std::uint64_t step_requests = 0;
  std::uint64_t turns_stepped = 0;
  std::size_t kernel_compilations = 0;
  std::size_t kernel_lookups = 0;
  /// Current aggregate occupancy estimate of admitted sessions.
  double occupancy_admitted = 0.0;
  // --- durability (all zero with journaling off) --------------------------
  std::uint64_t sessions_recovered = 0;  ///< rebuilt from journals
  std::uint64_t sessions_reaped = 0;     ///< destroyed by TTL reaping
  std::uint64_t journal_records = 0;     ///< records appended since start
  std::uint64_t journal_bytes = 0;       ///< bytes appended since start
  std::uint64_t journals_corrupt = 0;    ///< damaged files seen by recover()
  std::uint64_t step_replays = 0;        ///< duplicate-seq steps answered
                                         ///< from the cached response
};

/// Public view of one session.
struct SessionInfo {
  std::uint32_t id = 0;
  unsigned schedule_length = 0;   ///< CGRA cycles per kernel iteration
  double budget_cycles = 0.0;     ///< per-revolution deadline budget
  double occupancy_estimate = 0.0;  ///< static or observed-p99 (see header)
  std::int64_t turn = 0;
  double time_s = 0.0;
  std::int64_t realtime_violations = 0;
  bool supervised = false;
  bool aborted = false;
  /// Last applied exactly-once step sequence number (0 = none yet). A
  /// re-attaching client resumes its step counter from this.
  std::uint64_t last_step_seq = 0;
};

class SessionRuntime {
 public:
  explicit SessionRuntime(RuntimeConfig config = {});
  ~SessionRuntime();

  SessionRuntime(const SessionRuntime&) = delete;
  SessionRuntime& operator=(const SessionRuntime&) = delete;

  /// Admits and constructs a session. Throws ConfigError{kAdmissionRejected}
  /// when the pool is full (by count or occupancy budget), or whatever
  /// api::to_turnloop_config / kernel compilation raises for a bad config.
  /// A non-zero `nonce` makes creation idempotent: re-sending the same nonce
  /// (a retried create after a dropped response) returns the already-created
  /// session's id instead of creating an orphan. The kernel compiles, and
  /// the journal is opened and synced, without the pool lock held, so other
  /// sessions' requests never wait for either. Until it is published the
  /// new session holds a reserved id and admission slot; a failed create
  /// gives the slot back and leaves the id unused.
  std::uint32_t create(const api::SessionConfig& config,
                       std::uint64_t nonce = 0);
  /// Destroys a session (kNotFound if absent) and deletes its journal. Safe
  /// while other threads operate on it: they finish against the detached
  /// instance.
  void destroy(std::uint32_t id);

  /// Runs `turns` revolutions and returns their records. Serialised per
  /// session; passes the deadline-aware step gate. kOutOfRange when `turns`
  /// exceeds max_turns_per_step; kBadState once a supervised session's
  /// abort policy stopped the loop.
  ///
  /// A non-zero `step_seq` requests exactly-once semantics: the sequence
  /// must be last_step_seq + 1 (applied, journalled, response cached) or
  /// last_step_seq itself (a retry — the cached response is returned without
  /// re-stepping); anything else is kBadState. step_seq 0 keeps the legacy
  /// at-most-once behaviour (the step still lands in the journal).
  ///
  /// With journaling on, the step's record is written before the turns run
  /// and synced while they run; the call returns only once it is durable.
  /// kInternal when the record cannot be written or synced; from then on
  /// every request for the session except destroy() is kInternal.
  std::vector<hil::TurnRecord> step(std::uint32_t id, std::uint32_t turns,
                                    std::uint64_t step_seq = 0);

  // By-name kernel access (api facade semantics: kUnknownKey names the
  // kernel and the offending key, kOutOfRange for a bad lane).
  void set_param(std::uint32_t id, std::string_view name, double value);
  [[nodiscard]] double param(std::uint32_t id, std::string_view name);
  void set_state(std::uint32_t id, std::string_view name, double value);
  [[nodiscard]] double state(std::uint32_t id, std::string_view name);

  /// Opens/closes the phase control loop.
  void enable_control(std::uint32_t id, bool on);

  /// Captures a checkpoint image server-side; returns its id. kUnsupported
  /// on supervised or faulted sessions (their state is not in the image).
  std::uint32_t snapshot(std::uint32_t id);
  /// Rolls the session back to a snapshot() image, bit-exactly.
  void restore(std::uint32_t id, std::uint32_t snapshot_id);

  [[nodiscard]] SessionInfo info(std::uint32_t id);
  [[nodiscard]] RuntimeStats stats();
  [[nodiscard]] const RuntimeConfig& config() const noexcept {
    return config_;
  }

  /// Rebuilds sessions from the journals found in config.state_dir — call
  /// once, before serving. Each journal's valid prefix is replayed against a
  /// fresh engine (fast-forwarding to its last checkpoint image), which by
  /// engine determinism reproduces the crashed session bit-exactly; damaged
  /// files count in stats().journals_corrupt and recover to their longest
  /// valid prefix. Returns the number of sessions recovered. No-op without
  /// a state_dir.
  std::size_t recover();

  /// Destroys sessions idle (no request touched them) for longer than
  /// config.idle_session_ttl_s; returns how many were reaped. The server's
  /// housekeeping tick calls this; no-op when the TTL is 0.
  std::size_t reap_idle();

  /// The runtime's own instrument registry, always enabled and separate
  /// from obs::Registry::global(): the `serve.*` counters of this runtime
  /// and of the SessionServer in front of it.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Prometheus exposition of metrics() plus the values known only at
  /// scrape time (live sessions, admitted occupancy, kernel compilations,
  /// per-session occupancy/turn gauges): every `citl_serve_*` series.
  /// Register it as a ScrapeServer collector to surface the pool on the
  /// /metrics endpoint.
  [[nodiscard]] std::string prometheus_text();

 private:
  struct Session;
  class StepGate;

  [[nodiscard]] std::shared_ptr<Session> find(std::uint32_t id);
  /// Current occupancy estimate of one session (static until it stepped).
  [[nodiscard]] static double occupancy_estimate(const Session& s);
  /// Sum of estimates over live sessions and reserved creates. Caller holds
  /// sessions_mutex_.
  [[nodiscard]] double aggregate_occupancy_locked();
  /// The session a create with `nonce` already made, if any; otherwise
  /// throws kAdmissionRejected when the pool, reserved slots included, is
  /// full. Caller holds sessions_mutex_.
  [[nodiscard]] std::optional<std::uint32_t> admit_locked(std::uint64_t nonce);
  /// Builds (but does not admit) a session for `config` under `id`. Takes no
  /// runtime lock: it may wait on a cold host compile.
  [[nodiscard]] std::shared_ptr<Session> build_session(
      std::uint32_t id, const api::SessionConfig& config);
  /// Journal path of session `id` under config.state_dir.
  [[nodiscard]] std::string journal_path(std::uint32_t id) const;
  /// Replays one scanned journal into a live session. Throws on any replay
  /// failure (the caller skips the file and counts it corrupt).
  [[nodiscard]] std::shared_ptr<Session> replay_journal(
      const std::string& path, JournalScan& scan);
  void destroy_session(std::uint32_t id, bool reaped);
  /// Appends one record to the session's journal and counts its records and
  /// bytes; no-op with journaling off. With `sync` the record is durable on
  /// return; without it the caller's start_sync()/finish_sync() make it so.
  /// Caller holds the session mutex (or has not published the session yet).
  void append_journal(Session& s, JournalRecordType type,
                      const WireWriter& payload, bool sync = true);

  RuntimeConfig config_;
  sweep::KernelCache cache_;

  std::mutex sessions_mutex_;
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions_;
  /// Idempotent-create dedupe: nonce → session id (live sessions only).
  std::map<std::uint64_t, std::uint32_t> nonces_;
  /// Creates journaling outside the lock: reserved id → static occupancy.
  /// They count against max_sessions and the occupancy budget.
  std::map<std::uint32_t, double> reserved_;
  std::uint32_t next_id_ = 1;

  std::unique_ptr<StepGate> gate_;

  // Counters on metrics_; obs::prometheus_name() turns `serve.x` into the
  // `citl_serve_x` series.
  obs::Registry metrics_;
  obs::Counter& sessions_created_;
  obs::Counter& sessions_destroyed_;
  obs::Counter& admission_rejections_;
  obs::Counter& step_requests_;
  obs::Counter& turns_stepped_;
  obs::Counter& sessions_recovered_;
  obs::Counter& sessions_reaped_;
  obs::Counter& journal_records_;
  obs::Counter& journal_bytes_;
  obs::Counter& journals_corrupt_;
  obs::Counter& step_replays_;
};

}  // namespace citl::serve
