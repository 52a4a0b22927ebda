// Baseline mappers for benchmarking: first-fit (no locality awareness) and
// seeded random placement. Both route with the same min-delay path engine
// as the smarter mappers, isolating the placement policy as the variable
// under test (experiment E3).
#pragma once

#include <cstdint>

#include "mapping/mapper.h"

namespace unify::mapping {

/// Places every NF on the first feasible host in id order.
class FirstFitMapper final : public Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "first-fit"; }
  [[nodiscard]] Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const override;
};

/// Places every NF on a uniformly random feasible host; retries the whole
/// placement until routing + requirements succeed (bounded attempts).
class RandomMapper final : public Mapper {
 public:
  explicit RandomMapper(std::uint64_t seed = 1) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const override;

 private:
  std::uint64_t seed_;
};

}  // namespace unify::mapping
