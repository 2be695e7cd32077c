// citl-journal-v2: the session server's per-session write-ahead journal.
//
// One file per session under the runtime's state_dir records everything a
// session's state is a function of: its SessionConfig (first record, always),
// every mutating request in arrival order (param/state writes, control
// toggles, steps with their exactly-once sequence numbers, snapshot/restore)
// and periodic full checkpoint images that bound replay time. Because every
// engine in this codebase is deterministic for a fixed config (the invariant
// every sweep and serve test pins), replaying the journal against a fresh
// engine reproduces the crashed session bit-exactly — that is the
// crash-resume guarantee the ServeJournal tests prove against the in-process
// engine.
//
// File layout (all integers little-endian, doubles as raw binary64 bits —
// the same bit-transparent encoding as citl-wire-v1):
//
//   header   15 bytes  magic "citl-journal-v2"
//            u8        journal format version (2)
//            u32       session id
//            u64       api::session_config_digest of the session's config
//   record   u32       payload length
//            u8        JournalRecordType
//            u64       record sequence number (0, 1, 2, ...)
//            ...       payload (wire-encoded, layout per type)
//            u64       chain hash: FNV-1a over (previous chain hash ‖ type ‖
//                      seq ‖ payload); the first record chains off a hash of
//                      the header
//   tail     zeros     the unwritten rest of the last preallocated segment
//
// The file grows in preallocated segments of kJournalSegmentBytes, so a
// record written inside one does not change the file size and its
// fdatasync skips the metadata commit; only the first sync after a new
// segment pays for it. Preallocation is advisory: where fallocate fails the
// writer appends as before and fdatasync flushes the size. v2 differs from
// v1 only in the magic, the version byte and the zero tail, so v1 journals
// (the same layout without a tail) still recover.
//
// Every record is synced before the server acknowledges the request, so an
// acknowledged mutation survives kill -9. A step becomes durable in three
// parts: its record (with the compaction image, when one falls due) is
// written before its turns run, synced on the writer's sync thread while
// they run, and the step is acknowledged only after both finished. The
// other mutations append and sync inline before they are acknowledged.
//
// A write or sync that fails marks the writer failed: every later call
// throws kInternal without touching the file, so no record after a torn or
// unsynced one is ever acknowledged. The runtime then answers kInternal to
// every request for that session except destroy, because its engine may
// hold a step nobody acknowledged.
//
// The chain hash makes torn tails and bit flips detectable: scan_journal()
// loads the longest valid prefix, reads an all-zero remainder after it as
// the clean end, and reports anything else with the first offending byte
// offset and kJournalCorrupt — a truncated or corrupted journal recovers to
// the last durable state instead of failing entirely (recovery semantics in
// docs/SERVING.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "hil/turnloop.hpp"
#include "serve/wire.hpp"

namespace citl::serve {

inline constexpr char kJournalMagic[] = "citl-journal-v2";  // 15 chars
inline constexpr std::uint8_t kJournalVersion = 2;
/// The previous format (no preallocation), still read by scan_journal().
inline constexpr char kJournalMagicV1[] = "citl-journal-v1";
/// A journal grows in preallocated segments of this many bytes: disk use per
/// session is its logical length rounded up to a whole segment.
inline constexpr std::uint64_t kJournalSegmentBytes = 256 * 1024;
/// Header bytes: magic (15) + version (1) + session id (4) + digest (8).
inline constexpr std::size_t kJournalHeaderBytes = 28;
/// A record claiming a larger payload is corrupt, not an allocation request.
inline constexpr std::uint32_t kMaxJournalPayloadBytes = 1u << 20;

/// What one journal record means on replay. Values are format-stable like
/// the wire opcodes: never renumber, only append.
enum class JournalRecordType : std::uint8_t {
  kConfig = 1,         ///< wire SessionConfig + u64 create nonce; always first
  kSetParam = 2,       ///< str name + f64 value
  kSetState = 3,       ///< str name + f64 value
  kEnableControl = 4,  ///< u8 on/off
  kStep = 5,           ///< u32 turns + u64 step sequence number
  kSnapshot = 6,       ///< u32 snapshot id + checkpoint image
  kRestore = 7,        ///< u32 snapshot id
  /// Periodic compaction image written immediately *before* the step that
  /// crossed the checkpoint interval (payload: u64 last applied step seq +
  /// checkpoint image). Replay fast-forwards to the last one, so the final
  /// journalled step is always re-executed — which rebuilds the cached
  /// response an exactly-once retry of that step needs.
  kCheckpoint = 8,
};

[[nodiscard]] const char* journal_record_type_name(
    JournalRecordType type) noexcept;

/// One decoded record of the valid prefix.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kConfig;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Everything scan_journal() learned from one file: the header identity, the
/// longest valid record prefix, and — when the file is damaged — where the
/// damage starts. `corrupt` does not make the prefix unusable; recovery
/// replays the prefix and surfaces the corruption in the runtime counters.
struct JournalScan {
  std::uint32_t session_id = 0;
  std::uint64_t config_digest = 0;
  std::vector<JournalRecord> records;
  bool corrupt = false;
  std::uint64_t corrupt_offset = 0;  ///< first invalid byte offset
  std::string corrupt_reason;        ///< human-readable diagnosis
  /// Chain/append state after the valid prefix, so a writer can continue
  /// the same file: next record seq, running chain hash, and the byte length
  /// of the valid prefix (a corrupt tail is truncated away on reopen).
  std::uint64_t next_seq = 0;
  std::uint64_t chain = 0;
  std::uint64_t valid_bytes = 0;
};

/// Reads a v2 or v1 journal file and returns its longest valid prefix; an
/// all-zero remainder after it is the clean end. Throws
/// Error{kJournalCorrupt} only when the file is unusable from byte 0 — too
/// short for a header, wrong magic, or a version byte that does not match
/// its magic (the mixed-version case); anything after a valid header
/// degrades to a truncated prefix with `corrupt` set instead of an
/// exception.
[[nodiscard]] JournalScan scan_journal(const std::string& path);

/// Appends synced, chain-hashed records to one session's journal file,
/// sequentially with write() inside preallocated segments. Default-
/// constructed writers are disabled (journaling off): every call is a no-op,
/// so call sites need no `if` forest.
///
/// append() is durable on return. write(), start_sync() and finish_sync()
/// split the same work so the caller can run something while the sync is in
/// flight. The sync then runs on the writer's own thread, started by the
/// first start_sync() and joined before the file closes.
class JournalWriter {
 public:
  JournalWriter();
  /// Creates (truncating) `path`, preallocates its first segment and writes
  /// the header. The header is not synced on its own: the first record's
  /// sync makes both durable.
  JournalWriter(const std::string& path, std::uint32_t session_id,
                std::uint64_t config_digest);
  /// Reopens an existing journal after scan_journal(): truncates to the
  /// valid prefix (dropping a corrupt or zero tail), preallocates again and
  /// continues the record chain in place. A v1 file keeps its v1 header.
  JournalWriter(const std::string& path, const JournalScan& scan);
  ~JournalWriter();

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return fd_ >= 0; }

  /// Appends one record and syncs it. Throws Error{kInternal} on I/O
  /// failure (a session that cannot journal must not acknowledge mutations).
  void append(JournalRecordType type, const std::vector<std::uint8_t>& payload);

  /// Appends one record without syncing it. Throws Error{kInternal} on I/O
  /// failure.
  void write(JournalRecordType type, const std::vector<std::uint8_t>& payload);
  /// Hands a sync of everything written so far to the sync thread and
  /// returns at once.
  void start_sync();
  /// Waits for the sync start_sync() handed over, if one is in flight.
  /// Throws Error{kInternal} if it failed, or if the writer failed earlier.
  void finish_sync();

  /// True once a write or sync failed. Every later write(), append(),
  /// start_sync() and finish_sync() then throws Error{kInternal} without
  /// touching the file. Safe to read from any thread.
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// Closes and deletes the file (session destroyed or reaped).
  void discard();

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }
  /// The logical length: header plus records, without the zero tail.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  class SyncThread;

  /// Grows the file to whole segments covering `end` bytes, unless it
  /// already does or preallocation failed before.
  void preallocate(std::uint64_t end) noexcept;
  /// Marks the writer failed and throws Error{kInternal}.
  [[noreturn]] void fail(const std::string& what, int err);
  /// Throws Error{kInternal} if the writer failed earlier.
  void throw_if_failed() const;
  void close_fd() noexcept;

  int fd_ = -1;
  std::string path_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t chain_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t allocated_ = 0;  ///< file size preallocation reached
  bool preallocating_ = true;    ///< false once fallocate failed
  std::unique_ptr<SyncThread> sync_thread_;
  std::atomic<bool> failed_{false};
  std::string failure_;  ///< the first failure, repeated by later calls
};

// --- checkpoint image codec ----------------------------------------------

/// Serialises a TurnLoop checkpoint (loop bookkeeping, controller/decimator
/// filter state, noise RNG, deadline accounting, model lane states and
/// pipeline registers) as raw binary64 bit patterns — restoring from the
/// decoded image is bit-exact, the same contract as TurnLoop::restore.
void encode_checkpoint(WireWriter& w, const hil::TurnLoop::Checkpoint& cp);

/// Decodes into an existing image (take loop.checkpoint() of the freshly
/// constructed session for a correctly-shaped one — Checkpoint carries live
/// controller/decimator instances and has no default constructor). Throws
/// Error{kBadFrame} on truncation, Error{kJournalCorrupt} on shape mismatch
/// against the target image.
void decode_checkpoint_into(WireReader& r, hil::TurnLoop::Checkpoint& cp);

}  // namespace citl::serve
