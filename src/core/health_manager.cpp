#include "core/health_manager.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace unify::core {
namespace {

// The circuit breaker's fixed policy.
/// Consecutive transient failures that open the circuit (domain down).
constexpr int kFailureThreshold = 3;
/// Consecutive transient failures that mark the domain degraded (still in
/// the fan-out, but on the way to the breaker).
constexpr int kDegradeAfter = 1;
/// Embedding-cost bias (same unit as path delay) charged per consecutive
/// transient failure while a domain is degraded, so flaky domains drain
/// before their circuit trips. Stays below kProbingPenalty even at streak
/// kFailureThreshold - 1, so a half-open domain never looks cheaper than a
/// merely flaky one.
constexpr double kPenaltyPerFailure = 4.0;
/// Bias while a probe is in flight (half-open): almost-but-not-readmitted.
constexpr double kProbingPenalty = 32.0;
/// Bias while down. Capacity is masked to zero anyway; this is belt and
/// braces for force-installed placements that survive the mask.
constexpr double kDownPenalty = 64.0;
static_assert(kPenaltyPerFailure * (kFailureThreshold - 1) < kProbingPenalty &&
              kProbingPenalty < kDownPenalty);

bool is_transient(ErrorCode code) noexcept {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
}

}  // namespace

const char* to_string(DomainHealth health) noexcept {
  switch (health) {
    case DomainHealth::kHealthy:
      return "healthy";
    case DomainHealth::kDegraded:
      return "degraded";
    case DomainHealth::kDown:
      return "down";
    case DomainHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

void HealthManager::reset(std::vector<std::string> domains) {
  records_.clear();
  records_.reserve(domains.size());
  for (auto& domain : domains) {
    DomainRecord record;
    record.domain = std::move(domain);
    records_.push_back(std::move(record));
  }
}

bool HealthManager::record_failure(std::size_t index, const Error& error) {
  if (index >= records_.size()) return false;
  auto& rec = records_[index];
  rec.generation += 1;
  rec.failures_total += 1;
  rec.last_error = error.to_string();
  // An open circuit already excludes the domain; stray observations from a
  // heal probe or a racing fetch must not double-count.
  if (rec.health == DomainHealth::kDown || rec.health == DomainHealth::kProbing) {
    return false;
  }
  if (!is_transient(error.code)) {
    // The domain answered (with a rejection): it is alive.
    rec.consecutive_failures = 0;
    return false;
  }
  rec.consecutive_failures += 1;
  if (rec.consecutive_failures >= kFailureThreshold) {
    return open_circuit(index, error.to_string());
  }
  if (rec.consecutive_failures >= kDegradeAfter) {
    rec.health = DomainHealth::kDegraded;
  }
  return false;
}

void HealthManager::record_success(std::size_t index) {
  if (index >= records_.size()) return;
  auto& rec = records_[index];
  rec.generation += 1;
  if (rec.health == DomainHealth::kDown || rec.health == DomainHealth::kProbing) {
    // Readmission goes through close_circuit() so the orchestrator can
    // unmask capacity and resync first; a bare success can't short it.
    return;
  }
  rec.consecutive_failures = 0;
  rec.health = DomainHealth::kHealthy;
}

bool HealthManager::open_circuit(std::size_t index, const std::string& reason) {
  if (index >= records_.size()) return false;
  auto& rec = records_[index];
  if (rec.health == DomainHealth::kDown || rec.health == DomainHealth::kProbing) {
    return false;
  }
  rec.generation += 1;
  rec.health = DomainHealth::kDown;
  rec.circuit_opens += 1;
  rec.last_error = reason;
  UNIFY_LOG(kWarn, "core.health")
      << "circuit open for domain '" << rec.domain << "': " << reason;
  return true;
}

void HealthManager::begin_probe(std::size_t index) {
  if (index >= records_.size()) return;
  auto& rec = records_[index];
  if (rec.health != DomainHealth::kDown) return;
  rec.generation += 1;
  rec.health = DomainHealth::kProbing;
  rec.probes += 1;
}

void HealthManager::probe_failed(std::size_t index, const Error& error) {
  if (index >= records_.size()) return;
  auto& rec = records_[index];
  if (rec.health != DomainHealth::kProbing) return;
  rec.generation += 1;
  rec.health = DomainHealth::kDown;
  rec.probe_failures += 1;
  rec.failures_total += 1;
  rec.last_error = error.to_string();
}

void HealthManager::close_circuit(std::size_t index) {
  if (index >= records_.size()) return;
  auto& rec = records_[index];
  rec.generation += 1;
  rec.health = DomainHealth::kHealthy;
  rec.consecutive_failures = 0;
  UNIFY_LOG(kInfo, "core.health")
      << "circuit closed for domain '" << rec.domain << "'";
}

bool HealthManager::admits(std::size_t index) const noexcept {
  if (index >= records_.size()) return true;
  const auto health = records_[index].health;
  return health != DomainHealth::kDown && health != DomainHealth::kProbing;
}

DomainHealth HealthManager::health(std::size_t index) const noexcept {
  if (index >= records_.size()) return DomainHealth::kHealthy;
  return records_[index].health;
}

double HealthManager::penalty(std::size_t index) const noexcept {
  if (index >= records_.size()) return 0.0;
  const auto& rec = records_[index];
  switch (rec.health) {
    case DomainHealth::kHealthy:
      return 0.0;
    case DomainHealth::kDegraded:
      // A non-transient failure resets the streak but leaves the domain
      // degraded; max(1, streak) keeps the penalty nonzero until a clean
      // success actually restores it to healthy.
      return kPenaltyPerFailure *
             static_cast<double>(std::max(1, rec.consecutive_failures));
    case DomainHealth::kProbing:
      return kProbingPenalty;
    case DomainHealth::kDown:
      return kDownPenalty;
  }
  return 0.0;
}

const HealthManager::DomainRecord& HealthManager::record(std::size_t index) const {
  return records_.at(index);
}

std::vector<std::size_t> HealthManager::open_circuits() const {
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!admits(i)) open.push_back(i);
  }
  return open;
}

bool HealthManager::any_open() const noexcept {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!admits(i)) return true;
  }
  return false;
}

bool HealthManager::any_unhealthy() const noexcept {
  for (const DomainRecord& rec : records_) {
    if (rec.health != DomainHealth::kHealthy) return true;
  }
  return false;
}

std::uint64_t HealthManager::state_fingerprint() const noexcept {
  // FNV-1a over the state sequence: position-sensitive, and all-healthy
  // always maps to the same value so callers can cache "nothing wrong".
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const DomainRecord& rec : records_) {
    h ^= static_cast<std::uint64_t>(rec.health);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace unify::core
