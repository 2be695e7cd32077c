// Error handling helpers.
//
// Library-internal invariants use CITL_CHECK (always on, throws
// std::logic_error) so misuse is loud in tests and benches alike. User-facing
// configuration problems throw ConfigError with a descriptive message and a
// typed ErrorCode, so a remote client of the session server receives the same
// classification a library caller catches in-process.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace citl {

/// Machine-readable classification of every user-facing error, shared by the
/// in-process exception hierarchy and the citl-wire-v1 protocol's response
/// status field (docs/SERVING.md). Values are wire-stable: never renumber,
/// only append.
enum class ErrorCode : std::uint16_t {
  kOk = 0,                 ///< wire only: success status
  kInvalidConfig = 1,      ///< inconsistent user-supplied configuration
  kUnknownKey = 2,         ///< unknown parameter/state/register/target name
  kOutOfRange = 3,         ///< lane, index or value outside the valid range
  kUnsupported = 4,        ///< operation not valid for this engine/fidelity
  kCompileFailed = 5,      ///< kernel-language source failed to compile
  kNotFound = 6,           ///< named entity (session, snapshot, file) absent
  kBadState = 7,           ///< operation illegal in the current state
  kAdmissionRejected = 8,  ///< session runtime refused the load
  kBadFrame = 9,           ///< malformed citl-wire-v1 frame
  kInternal = 10,          ///< unclassified failure
  kTimeout = 11,           ///< socket or request deadline expired
  kRetryExhausted = 12,    ///< retry policy gave up before success
  kJournalCorrupt = 13,    ///< citl-journal file failed validation
};

/// Stable lower_snake name of a code ("admission_rejected"), for logs and
/// error messages; "unknown" for values outside the enum.
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// Common base of every user-facing library error. Catching citl::Error is
/// the supported way to handle "the caller asked for something impossible"
/// uniformly (unknown kernel parameter, lane out of range, bad source, ...);
/// std::logic_error from CITL_CHECK still means a library bug.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 ErrorCode code = ErrorCode::kInternal)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown when a user-supplied configuration is inconsistent. The default
/// code is kInvalidConfig; sites that can say more precisely what went wrong
/// (unknown key, out-of-range lane, unsupported combination) pass it.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what,
                       ErrorCode code = ErrorCode::kInvalidConfig)
      : Error(what, code) {}
};

/// Thrown when kernel-language source fails to compile for the CGRA.
class CompileError : public Error {
 public:
  CompileError(const std::string& what, int line, int column)
      : Error(what + " (line " + std::to_string(line) + ", column " +
                  std::to_string(column) + ")",
              ErrorCode::kCompileFailed),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

inline const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidConfig: return "invalid_config";
    case ErrorCode::kUnknownKey: return "unknown_key";
    case ErrorCode::kOutOfRange: return "out_of_range";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kCompileFailed: return "compile_failed";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kBadState: return "bad_state";
    case ErrorCode::kAdmissionRejected: return "admission_rejected";
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kRetryExhausted: return "retry_exhausted";
    case ErrorCode::kJournalCorrupt: return "journal_corrupt";
  }
  return "unknown";
}

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CITL_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}
}  // namespace detail

}  // namespace citl

#define CITL_CHECK(expr)                                                  \
  do {                                                                    \
    if (!(expr))                                                          \
      ::citl::detail::check_failed(#expr, __FILE__, __LINE__, "");        \
  } while (0)

#define CITL_CHECK_MSG(expr, msg)                                         \
  do {                                                                    \
    if (!(expr))                                                          \
      ::citl::detail::check_failed(#expr, __FILE__, __LINE__, (msg));     \
  } while (0)
