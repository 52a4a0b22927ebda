// Mappers under real concurrency (run under TSan via the tsan-concurrency
// preset): the mapper field speculates in parallel on the shared process
// pool against one immutable substrate snapshot — the Mapper contract of
// mapping/mapper.h. The shared view (and its prebuilt topology index) must
// come through bit-untouched, and every returned mapping must verify
// against it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "infra/topologies.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_hash.h"
#include "model/view_snapshot.h"
#include "util/orchestration_pool.h"
#include "util/rng.h"

namespace unify::mapping {
namespace {

sg::ServiceGraph chain(std::size_t i) {
  return sg::make_chain("svc" + std::to_string(i), "sap1",
                        {"nat", "monitor", "vpn"}, "sap2",
                        20 + static_cast<double>(i), 400);
}

TEST(MapperConcurrency, ConcurrentMappersNeverCorruptTheSharedView) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  Rng rng(42);
  auto substrate = std::make_shared<const model::Nffg>(
      infra::topo::random_connected(12, 3.0, 2, rng));
  const std::uint64_t pristine = model::content_hash(*substrate);
  const model::ViewSnapshot snapshot{
      substrate, std::make_shared<const model::TopologyIndex>(*substrate),
      1};
  const SubstrateView view(snapshot);

  std::vector<std::shared_ptr<const Mapper>> field;
  field.push_back(std::make_shared<GreedyMapper>());
  field.push_back(std::make_shared<ChainDpMapper>());
  field.push_back(std::make_shared<BnbMapper>());
  field.push_back(std::make_shared<FirstFitMapper>());
  field.push_back(std::make_shared<RandomMapper>());

  constexpr std::size_t kChains = 24;
  const std::size_t runs = kChains * field.size();
  std::vector<Result<Mapping>> results(
      runs, Result<Mapping>(Error{ErrorCode::kInternal, "not run"}));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    tasks.push_back([&, i] {
      results[i] = field[i % field.size()]->map(chain(i / field.size()),
                                                view, cat);
    });
  }
  util::OrchestrationPool::process_pool().run_all(std::move(tasks));

  // The substrate no mapper was allowed to touch hashes identically.
  EXPECT_EQ(model::content_hash(*substrate), pristine);

  for (std::size_t i = 0; i < runs; ++i) {
    const std::string lane = field[i % field.size()]->name() + " chain " +
                             std::to_string(i / field.size());
    ASSERT_TRUE(results[i].ok())
        << lane << ": " << results[i].error().to_string();
    const auto verified =
        verify_mapping(chain(i / field.size()), *substrate, cat, *results[i]);
    EXPECT_TRUE(verified.ok()) << lane << ": " << verified.error().to_string();
  }
}

}  // namespace
}  // namespace unify::mapping
