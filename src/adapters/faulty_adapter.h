// Fault-injecting decorator around any DomainAdapter: fails the next N
// operations, or every operation with a seeded probability. Used to test
// the orchestration stack's behaviour under domain failures (rejected
// configs, unreachable controllers) and its retry/backoff paths
// deterministically, without special-casing the simulators.
#pragma once

#include <memory>
#include <string>

#include "adapters/domain_adapter.h"
#include "util/rng.h"

namespace unify::adapters {

class FaultyAdapter final : public DomainAdapter {
 public:
  explicit FaultyAdapter(std::unique_ptr<DomainAdapter> inner,
                         std::uint64_t seed = 1)
      : inner_(std::move(inner)), rng_(seed) {}

  /// The next `n` apply/fetch operations fail with `code`.
  void fail_next(int n, ErrorCode code = ErrorCode::kUnavailable) {
    fail_next_ = n;
    code_ = code;
  }
  /// Every operation fails independently with this probability.
  void set_failure_rate(double rate) { failure_rate_ = rate; }

  [[nodiscard]] const std::string& domain() const noexcept override {
    return inner_->domain();
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    UNIFY_RETURN_IF_ERROR(maybe_fail("fetch_view"));
    return inner_->fetch_view();
  }
  // Transactional path forwarded natively so fault injection exercises the
  // exact code path real adapters use (fault checks charge on
  // begin_apply — the "issue" side — await only collects).
  Result<PushTicket> begin_apply(const model::Nffg& desired) override {
    UNIFY_RETURN_IF_ERROR(maybe_fail("begin_apply"));
    return inner_->begin_apply(desired);
  }
  Result<void> await(const PushTicket& ticket) override {
    return inner_->await(ticket);
  }
  [[nodiscard]] bool push_in_flight() const noexcept override {
    return inner_->push_in_flight();
  }
  [[nodiscard]] std::uint64_t view_epoch() const noexcept override {
    return inner_->view_epoch();
  }
  Result<void> probe() override {
    UNIFY_RETURN_IF_ERROR(maybe_fail("probe"));
    return inner_->probe();
  }
  /// Legacy sync hook, kept for callers that bypass the ticket API.
  Result<void> apply(const model::Nffg& desired) override {
    UNIFY_RETURN_IF_ERROR(maybe_fail("apply"));
    return inner_->apply(desired);
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return inner_->native_operations();
  }
  /// The decorated adapter's exclusion constraints still hold underneath.
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return inner_->exclusion_key();
  }
  [[nodiscard]] std::uint64_t injected_failures() const noexcept {
    return injected_;
  }
  [[nodiscard]] std::uint64_t operations_seen() const noexcept {
    return operations_;
  }

 private:
  Result<void> maybe_fail(const char* op) {
    ++operations_;
    if (fail_next_ > 0) {
      --fail_next_;
      ++injected_;
      return Error{code_, std::string(op) + " failed (injected) in domain " +
                              inner_->domain()};
    }
    if (failure_rate_ > 0 && rng_.next_bool(failure_rate_)) {
      ++injected_;
      return Error{code_, std::string(op) + " failed (injected, random) in " +
                              inner_->domain()};
    }
    return Result<void>::success();
  }

  std::unique_ptr<DomainAdapter> inner_;
  Rng rng_;
  int fail_next_ = 0;
  double failure_rate_ = 0;
  ErrorCode code_ = ErrorCode::kUnavailable;
  std::uint64_t injected_ = 0;
  std::uint64_t operations_ = 0;
};

}  // namespace unify::adapters
