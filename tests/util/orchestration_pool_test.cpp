// Unit tests for the shared orchestration pool: worker sizing, per-batch
// joins, caller participation, nesting, and the one-pool-per-process
// telemetry. Runs in
// the concurrency_tests binary (and therefore under TSan when enabled).
#include "util/orchestration_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace unify::util {
namespace {

std::vector<std::function<void()>> counting_tasks(std::size_t n,
                                                  std::atomic<int>& counter) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  return tasks;
}

TEST(OrchestrationPool, RunsEveryTaskExactlyOnce) {
  // The map_batch() usage pattern: N tasks each writing its own slot.
  OrchestrationPool pool(4);
  std::vector<int> hits(64, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  const std::size_t runners = pool.run_all(std::move(tasks));
  EXPECT_GE(runners, 1u);
  EXPECT_LE(runners, 4u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "task " << i;
  }
  EXPECT_EQ(pool.batches(), 1u);
  EXPECT_EQ(pool.tasks_run(), 64u);
}

TEST(OrchestrationPool, RunsEverySubmittedTask) {
  OrchestrationPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::atomic<int> counter{0};
  pool.run_all(counting_tasks(100, counter));
  EXPECT_EQ(counter.load(), 100);
}

TEST(OrchestrationPool, ParallelWritesToDisjointSlotsAreSafe) {
  // Each task writes a distinct value into its own slot; a lost or
  // misrouted task leaves a slot holding the wrong value.
  OrchestrationPool pool(4);
  std::vector<int> slots(64, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    tasks.push_back([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  pool.run_all(std::move(tasks));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

TEST(OrchestrationPool, RunAllIsReusable) {
  // Successive batches on one pool each join only once all their tasks ran.
  OrchestrationPool pool(2);
  std::atomic<int> counter{0};
  pool.run_all(counting_tasks(1, counter));
  EXPECT_EQ(counter.load(), 1);
  pool.run_all(counting_tasks(2, counter));
  EXPECT_EQ(counter.load(), 3);
  EXPECT_EQ(pool.run_all({}), 0u);  // empty batch: returns immediately
  EXPECT_EQ(pool.batches(), 2u);
}

TEST(OrchestrationPool, ClampWorkers) {
  // 0 = hardware concurrency, and never zero.
  EXPECT_EQ(OrchestrationPool(0).workers(),
            std::size_t{std::max(1u, std::thread::hardware_concurrency())});
  EXPECT_EQ(OrchestrationPool(3).workers(), 3u);
}

TEST(OrchestrationPool, ZeroWorkersStillRuns) {
  OrchestrationPool pool(0);
  std::atomic<int> counter{0};
  EXPECT_GE(pool.run_all(counting_tasks(8, counter)), 1u);
  EXPECT_EQ(counter.load(), 8);
}

TEST(OrchestrationPool, EmptyBatchIsANoOp) {
  OrchestrationPool pool(4);
  EXPECT_EQ(pool.run_all({}), 0u);
  EXPECT_FALSE(pool.started());  // no reason to spawn threads
}

TEST(OrchestrationPool, MaxParallelOneRunsInlineOnCaller) {
  OrchestrationPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    tasks.push_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  EXPECT_EQ(pool.run_all(std::move(tasks), 1), 1u);
  for (const auto id : ran_on) EXPECT_EQ(id, caller);
  // Inline batches never touch the lazily spawned threads.
  EXPECT_FALSE(pool.started());
}

TEST(OrchestrationPool, SingleWorkerPoolNeverSpawnsThreads) {
  OrchestrationPool pool(1);
  std::atomic<int> counter{0};
  EXPECT_EQ(pool.run_all(counting_tasks(16, counter)), 1u);
  EXPECT_EQ(counter.load(), 16);
  EXPECT_FALSE(pool.started());
}

TEST(OrchestrationPool, ThreadsSpawnLazilyOnFirstParallelBatch) {
  OrchestrationPool pool(3);
  EXPECT_FALSE(pool.started());
  std::atomic<int> counter{0};
  pool.run_all(counting_tasks(8, counter));
  EXPECT_EQ(counter.load(), 8);
  EXPECT_TRUE(pool.started());
}

TEST(OrchestrationPool, NestedBatchesDoNotDeadlock) {
  // Every outer task fans out an inner batch on the SAME pool — the shape
  // of a service-layer batch whose wave triggers an RO map_batch. Caller
  // participation guarantees progress even with all workers busy.
  OrchestrationPool pool(2);
  std::atomic<int> inner_total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner_total] {
      pool.run_all(counting_tasks(8, inner_total));
    });
  }
  pool.run_all(std::move(outer));
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(OrchestrationPool, ConcurrentClientsJoinOnlyTheirOwnBatch) {
  // Several threads push batches into one small pool at once; each
  // run_all() must return only after ITS tasks completed, never blocking
  // on another client's queue.
  OrchestrationPool pool(2);
  constexpr int kClients = 4;
  constexpr int kRounds = 20;
  constexpr std::size_t kTasks = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<int> mine{0};
        pool.run_all(counting_tasks(kTasks, mine));
        if (mine.load() != static_cast<int>(kTasks)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.tasks_run(),
            static_cast<std::uint64_t>(kClients * kRounds) * kTasks);
  EXPECT_EQ(pool.batches(), static_cast<std::uint64_t>(kClients * kRounds));
}

TEST(OrchestrationPool, ProcessPoolIsOneInstance) {
  OrchestrationPool& a = OrchestrationPool::process_pool();
  OrchestrationPool& b = OrchestrationPool::process_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1u);

  // Arbitrarily many batches on the shared instance never construct
  // another pool.
  const std::uint64_t constructed = OrchestrationPool::constructed();
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    a.run_all(counting_tasks(8, counter));
  }
  EXPECT_EQ(counter.load(), 80);
  EXPECT_EQ(OrchestrationPool::constructed(), constructed);
}

}  // namespace
}  // namespace unify::util
