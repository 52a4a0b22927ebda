#include "util/orchestration_pool.h"

#include <memory>

namespace unify::util {

namespace {
std::atomic<std::uint64_t> g_constructed{0};

/// `requested` workers, 0 meaning the hardware concurrency; never zero.
std::size_t clamp_workers(std::size_t requested) {
  const std::size_t workers =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  return workers == 0 ? 1 : workers;
}
}  // namespace

OrchestrationPool::OrchestrationPool(std::size_t workers)
    : workers_(clamp_workers(workers)) {
  g_constructed.fetch_add(1, std::memory_order_relaxed);
}

OrchestrationPool::~OrchestrationPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

OrchestrationPool& OrchestrationPool::process_pool() {
  static OrchestrationPool pool;
  return pool;
}

std::uint64_t OrchestrationPool::constructed() noexcept {
  return g_constructed.load(std::memory_order_relaxed);
}

bool OrchestrationPool::started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !helpers_.empty();
}

void OrchestrationPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (helpers_.empty()) {
      // The calling thread of every batch acts as one runner, so only
      // workers_ - 1 helpers are needed to reach full width (submit() is
      // only reached with workers_ > 1).
      helpers_.reserve(workers_ - 1);
      for (std::size_t i = 0; i + 1 < workers_; ++i) {
        helpers_.emplace_back([this] { helper_loop(); });
      }
    }
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void OrchestrationPool::helper_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void OrchestrationPool::run_batch_tasks(Batch& batch) {
  const std::size_t n = batch.tasks.size();
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    batch.tasks[i]();
    if (batch.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Lock before notifying: the caller checks the predicate under
      // done_mutex, so this cannot race past its wait registration.
      std::lock_guard<std::mutex> lock(batch.done_mutex);
      batch.done.notify_all();
    }
  }
}

std::size_t OrchestrationPool::run_all(std::vector<std::function<void()>> tasks,
                                       std::size_t max_parallel) {
  const std::size_t n = tasks.size();
  if (n == 0) return 0;
  batches_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(n, std::memory_order_relaxed);

  std::size_t runners = workers_;
  if (max_parallel != 0 && max_parallel < runners) runners = max_parallel;
  if (runners > n) runners = n;
  if (runners <= 1) {
    for (auto& task : tasks) task();
    return 1;
  }

  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  // Extra runners are best-effort helpers: each drains unclaimed tasks
  // when (if ever) a pool thread picks it up. The shared_ptr keeps the
  // batch alive for helpers that fire after the caller already returned;
  // they find every task claimed and exit without touching the join.
  for (std::size_t r = 0; r + 1 < runners; ++r) {
    submit([batch] { run_batch_tasks(*batch); });
  }
  run_batch_tasks(*batch);  // the caller is a runner too
  std::unique_lock<std::mutex> lock(batch->done_mutex);
  batch->done.wait(lock, [&] {
    return batch->completed.load(std::memory_order_acquire) == n;
  });
  return runners;
}

}  // namespace unify::util
