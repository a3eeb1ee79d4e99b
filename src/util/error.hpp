// Typed error layer for the partition -> SpMV pipeline.
//
// Every failure the library can report deliberately falls into one of a few
// categories, each with its own exception type and process exit code (see
// exit_code), and carries structured context (file path, line, pipeline
// phase, part index) so callers can react programmatically instead of
// parsing message strings:
//
//   IoError               — a file could not be opened / read / written
//   FormatError           — a file opened but its contents are malformed
//   InvariantError        — an internal consistency check failed (strict mode)
//   InfeasibleError       — a balance constraint could not be satisfied
//   FaultError            — an injected fault fired (util/fault.hpp)
//   CancelledError        — the run's CancelToken was cancelled (util/cancel.hpp)
//   DeadlineExceededError — the run's deadline expired (util/cancel.hpp)
//   AggregateError        — several concurrent tasks failed (util/thread_pool.hpp)
//
// All of them derive from std::runtime_error via fghp::Error, so existing
// catch (const std::runtime_error&) handlers keep working.
//
// The warning log (push_warning / drain_warnings) is the channel for
// degraded-but-recovered events: a retried bisection, a greedy fallback
// split, an executor task that fell back to the serial path. It is
// process-global and thread-safe; CLIs drain it after a run and print the
// entries to stderr.
#pragma once

#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace fghp {

/// Error categories double as process exit codes (0 = success, 1 = unknown
/// exception, 2 = usage / precondition violation).
enum class ErrorCode : int {
  kGeneric = 1,
  kUsage = 2,
  kIo = 3,
  kFormat = 4,
  kInvariant = 5,
  kInfeasible = 6,
  kFault = 7,
  kCancelled = 8,
  kDeadline = 9,
};

/// Name of a category ("io", "format", ...), for logs and tests.
const char* error_code_name(ErrorCode code);

/// Structured context attached to an Error. Every field is optional; unset
/// fields are skipped when the message is formatted.
struct ErrorContext {
  std::string path;   ///< file involved, empty if none
  long line = 0;      ///< 1-based line within path/stream, 0 if n/a
  std::string phase;  ///< pipeline phase or fault site, empty if n/a
  long part = -1;     ///< part / processor / ordinal index, -1 if n/a
};

/// Shorthand for the most common context: just a file path.
inline ErrorContext at_path(std::string path) {
  ErrorContext ctx;
  ctx.path = std::move(path);
  return ctx;
}

/// Base of the hierarchy: a runtime_error whose what() is the message
/// decorated with the context, and whose code/context survive for callers
/// that want to dispatch without string matching.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& what, ErrorContext ctx = {});

  ErrorCode code() const { return code_; }
  const ErrorContext& context() const { return ctx_; }

 private:
  static std::string decorate(const std::string& what, const ErrorContext& ctx);

  ErrorCode code_;
  ErrorContext ctx_;
};

class IoError : public Error {
 public:
  explicit IoError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kIo, what, std::move(ctx)) {}
};

class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kFormat, what, std::move(ctx)) {}
};

class InvariantError : public Error {
 public:
  explicit InvariantError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kInvariant, what, std::move(ctx)) {}
};

class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kInfeasible, what, std::move(ctx)) {}
};

class FaultError : public Error {
 public:
  explicit FaultError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kFault, what, std::move(ctx)) {}
};

/// The run's CancelToken was cancelled (util/cancel.hpp). ctx.phase names
/// the check-point that observed the cancellation.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kCancelled, what, std::move(ctx)) {}
};

/// The run's deadline expired at a check-point that could not (or was
/// configured not to) degrade. ctx.phase names the check-point.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what, ErrorContext ctx = {})
      : Error(ErrorCode::kDeadline, what, std::move(ctx)) {}
};

/// Several concurrent tasks failed (TaskGroup::wait). what() concatenates
/// every task's message; errors() keeps the original exception_ptrs. The
/// code is the contained errors' common category, or kGeneric if they mix;
/// the context is adopted from the first contained Error that carries one,
/// so phase names survive aggregation across fork-join boundaries.
class AggregateError : public Error {
 public:
  explicit AggregateError(std::vector<std::exception_ptr> errors);

  std::size_t size() const { return errors_.size(); }
  const std::vector<std::exception_ptr>& errors() const { return errors_; }

 private:
  std::vector<std::exception_ptr> errors_;
};

/// Checked narrowing of a count or index to idx_t: a value outside idx_t's
/// range throws InfeasibleError naming `what` (the input is well-formed but
/// larger than the 32-bit index space) instead of wrapping silently.
template <class T>
idx_t narrow_idx(T value, const char* what, ErrorContext ctx = {}) {
  if (!std::in_range<idx_t>(value))
    throw InfeasibleError(std::string(what) + " is " + std::to_string(value) +
                              ", outside the index range (" +
                              std::to_string(std::numeric_limits<idx_t>::max()) + ")",
                          std::move(ctx));
  return static_cast<idx_t>(value);
}

/// Process exit code for an exception: Error -> its category code,
/// std::invalid_argument (FGHP_REQUIRE / bad CLI input) -> kUsage,
/// anything else -> kGeneric.
int exit_code(const std::exception& e);

/// Appends one entry to the process-global warning log (thread-safe).
void push_warning(std::string message);

/// Atomically takes and clears the warning log.
std::vector<std::string> drain_warnings();

/// Number of entries currently in the warning log.
std::size_t warning_count();

}  // namespace fghp
