#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace unify::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { ++counter; });
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 3);
  pool.wait_idle();  // idle pool: returns immediately
}

TEST(ThreadPool, ZeroWorkersStillRuns) {
  ThreadPool pool(0);  // clamped to one worker
  EXPECT_GE(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelWritesToDisjointSlotsAreSafe) {
  // The map_batch() usage pattern: N tasks each writing its own slot.
  ThreadPool pool(4);
  std::vector<int> slots(64, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    pool.submit([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPool, ClampWorkers) {
  EXPECT_EQ(ThreadPool::clamp_workers(4, 100), 4u);
  EXPECT_EQ(ThreadPool::clamp_workers(8, 3), 3u);   // capped at jobs
  EXPECT_GE(ThreadPool::clamp_workers(0, 100), 1u); // 0 = hardware
  // 0 = hardware and jobs == 0 = no cap, so the pair yields the core
  // count — and never zero.
  EXPECT_EQ(ThreadPool::clamp_workers(0, 0),
            std::size_t{std::max(1u, std::thread::hardware_concurrency())});
}

}  // namespace
}  // namespace unify::util
