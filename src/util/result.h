// Result<T>: a lightweight expected-like type used across the control plane.
//
// The orchestration stack reports recoverable failures (mapping infeasible,
// domain rejected a config, malformed model, ...) as values, not exceptions:
// a manager must be able to inspect, aggregate and propagate errors from many
// domains without unwinding. Exceptions remain reserved for programming
// errors.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace unify {

/// Machine-readable error category carried alongside the human message.
enum class ErrorCode {
  kInvalidArgument,   ///< caller passed something malformed
  kNotFound,          ///< referenced entity does not exist
  kAlreadyExists,     ///< duplicate id / double-install
  kResourceExhausted, ///< insufficient cpu/mem/storage/bandwidth
  kInfeasible,        ///< no mapping satisfies the constraints
  kUnavailable,       ///< domain/channel down or not yet connected
  kProtocol,          ///< framing / codec / RPC violation
  kRejected,          ///< lower layer refused the configuration
  kTimeout,           ///< RPC or deployment deadline exceeded
  kRollbackFailed,    ///< op failed AND restoring prior state also failed:
                      ///< data plane may diverge from the control view
  kInternal,          ///< invariant violation inside the library
};

/// Stable ASCII name of every ErrorCode, indexed by the code's value: the
/// one table both to_string() and error_code_from_string() read.
inline constexpr std::array<std::string_view, 11> kErrorCodeNames{
    "invalid_argument", "not_found", "already_exists", "resource_exhausted",
    "infeasible",       "unavailable", "protocol",     "rejected",
    "timeout",          "rollback_failed", "internal"};
static_assert(kErrorCodeNames.size() ==
                  static_cast<std::size_t>(ErrorCode::kInternal) + 1,
              "every ErrorCode needs a name");

/// Returns a stable ASCII name for an ErrorCode ("infeasible", ...).
constexpr const char* to_string(ErrorCode code) noexcept {
  const auto index = static_cast<std::size_t>(code);
  return index < kErrorCodeNames.size() ? kErrorCodeNames[index].data()
                                        : "unknown";
}

/// The ErrorCode named `name` (the inverse of to_string), if any.
constexpr std::optional<ErrorCode> error_code_from_string(
    std::string_view name) noexcept {
  for (std::size_t i = 0; i < kErrorCodeNames.size(); ++i) {
    if (kErrorCodeNames[i] == name) return static_cast<ErrorCode>(i);
  }
  return std::nullopt;
}

/// An error: category plus a human-readable message assembled at the
/// failure site (include ids of the entities involved).
struct Error {
  /// One element an operation could not apply, named by its id (NETCONF's
  /// error-path, RFC 6241 §4.3), with why it failed.
  struct Cause {
    std::string path;
    ErrorCode code = ErrorCode::kInternal;
    std::string message;

    friend bool operator==(const Cause&, const Cause&) = default;
  };

  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  /// Per-element outcomes of a partly applied operation; empty when the
  /// error concerns the operation as a whole.
  std::vector<Cause> causes = {};

  /// "infeasible: no path from sap1 to fw0 within 5ms"
  [[nodiscard]] std::string to_string() const {
    std::string out = unify::to_string(code);
    if (!message.empty()) {
      out += ": ";
      out += message;
    }
    return out;
  }

  friend bool operator==(const Error&, const Error&) = default;
};

/// Aggregates errors from a fan-out (one slice push per domain, one view
/// fetch per domain, ...) where every branch is attempted regardless of the
/// others' outcomes. Each entry carries the scope it failed in (a domain
/// name) plus the branch's own Error; to_error() collapses the collection
/// into one Error a Result can carry north.
class MultiError {
 public:
  void add(std::string scope, Error error) {
    entries_.emplace_back(std::move(scope), std::move(error));
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, Error>>& entries()
      const noexcept {
    return entries_;
  }

  /// A single entry keeps its code verbatim (message prefixed with the
  /// scope, so "which domain" survives propagation); several entries take
  /// the first entry's code and a joined message listing every failure.
  /// Precondition: !empty().
  [[nodiscard]] Error to_error() const {
    assert(!empty());
    if (entries_.size() == 1) {
      const auto& [scope, error] = entries_.front();
      return Error{error.code, "[" + scope + "] " + error.message};
    }
    std::string message =
        std::to_string(entries_.size()) + " failures:";
    for (const auto& [scope, error] : entries_) {
      message += " [" + scope + "] " + error.to_string() + ";";
    }
    message.pop_back();
    return Error{entries_.front().second.code, std::move(message)};
  }

 private:
  std::vector<std::pair<std::string, Error>> entries_;
};

/// Result<T> holds either a T or an Error. Construction from either side is
/// implicit so `return Error{...}` and `return value` both work.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}  // NOLINT
  Result(Error error) : data_(std::in_place_index<1>, std::move(error)) {}  // NOLINT
  Result(ErrorCode code, std::string message)
      : data_(std::in_place_index<1>, Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const noexcept { return data_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  /// Precondition: ok().
  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<0>(data_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<0>(data_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<0>(std::move(data_));
  }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  /// Precondition: !ok().
  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return std::get<1>(data_);
  }

  /// Returns the contained value or `fallback` when this holds an error.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<0>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> data_;
};

/// Result<void>: success or an Error.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}  // NOLINT
  Result(ErrorCode code, std::string message)
      : error_(Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return *error_;
  }

  /// Canonical success value, reads better than `return {};` at call sites.
  static Result success() { return Result{}; }

 private:
  std::optional<Error> error_;
};

/// Propagate an error from an expression yielding Result<...>.
/// Usage: UNIFY_RETURN_IF_ERROR(do_thing());
#define UNIFY_RETURN_IF_ERROR(expr)            \
  do {                                         \
    if (auto res_ = (expr); !res_.ok()) {      \
      return res_.error();                     \
    }                                          \
  } while (false)

/// Bind the value of a Result or propagate its error.
/// Usage: UNIFY_ASSIGN_OR_RETURN(auto cfg, virtualizer.get_config());
#define UNIFY_ASSIGN_OR_RETURN(decl, expr)               \
  UNIFY_ASSIGN_OR_RETURN_IMPL_(                          \
      UNIFY_RESULT_CONCAT_(res_, __LINE__), decl, expr)
#define UNIFY_RESULT_CONCAT_INNER_(a, b) a##b
#define UNIFY_RESULT_CONCAT_(a, b) UNIFY_RESULT_CONCAT_INNER_(a, b)
#define UNIFY_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) {                                    \
    return tmp.error();                               \
  }                                                   \
  decl = std::move(tmp).value()

}  // namespace unify
