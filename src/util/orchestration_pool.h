// Shared, lazily started worker pool for CPU-bound orchestration work.
//
// One pool, owned at process scope (process_pool()), started lazily on the
// first parallel batch and shared by every client — the RO (map_batch,
// heal, push fan-out) and the batch-aware service layer above it — so no
// batch pays thread spawn/join and no client grows a private pool.
// Because several clients may run batches concurrently, the pool joins per
// *batch*, not per queue: run_all() blocks until its own tasks finished,
// regardless of what other clients have in flight (a queue-wide "wait
// until idle" would over-wait or never return under a steady concurrent
// load).
//
// The calling thread participates as a runner, so workers - 1 helper
// threads serve one FIFO queue of runner tasks (each handed off with
// notify_one), and a batch always makes progress even when every helper
// is busy with someone else's batch — which also makes nested run_all()
// calls (service layer batch -> RO batch) deadlock-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace unify::util {

class OrchestrationPool {
 public:
  /// `workers` = 0 sizes the pool to the hardware concurrency. Threads are
  /// not spawned until the first run_all() that needs them.
  explicit OrchestrationPool(std::size_t workers = 0);
  /// Joins the helper threads once they drained the queue.
  ~OrchestrationPool();

  OrchestrationPool(const OrchestrationPool&) = delete;
  OrchestrationPool& operator=(const OrchestrationPool&) = delete;

  /// The process-scoped shared instance injected (by default) into every
  /// ResourceOrchestrator and ServiceLayer. Constructed on first use,
  /// never destroyed before exit.
  [[nodiscard]] static OrchestrationPool& process_pool();

  /// Runs every task and blocks until all of them completed. Safe to call
  /// from several threads concurrently; each call waits only for its own
  /// tasks. `max_parallel` caps the number of tasks of THIS batch in
  /// flight at once (0 = pool size); 1 runs the batch inline on the
  /// calling thread without touching the pool. Returns the number of
  /// runners actually used (1 when run inline).
  std::size_t run_all(std::vector<std::function<void()>> tasks,
                      std::size_t max_parallel = 0);

  /// Configured worker count (threads may not be spawned yet).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  /// True once the lazy thread spawn happened.
  [[nodiscard]] bool started() const;

  // -- telemetry ----------------------------------------------------------
  /// Batches executed through run_all() (including inline ones).
  [[nodiscard]] std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Individual tasks executed.
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_.load(std::memory_order_relaxed);
  }
  /// OrchestrationPool instances ever constructed in this process. Tests
  /// assert this stays at 1 across arbitrarily many batches when everyone
  /// uses process_pool().
  [[nodiscard]] static std::uint64_t constructed() noexcept;

 private:
  /// Per-run_all join state, shared between the caller and its runners.
  /// The caller joins on `completed == tasks.size()`, never on runner
  /// exits: a queued runner lambda that was never scheduled (all pool
  /// threads busy, possibly with THIS caller's own nested batch) must not
  /// be able to block the join — it claims no tasks when it finally runs.
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};       ///< next unclaimed task index
    std::atomic<std::size_t> completed{0};  ///< tasks finished executing
    std::mutex done_mutex;
    std::condition_variable done;
  };

  /// Enqueues a runner task, spawning the helper threads on first use.
  void submit(std::function<void()> task);
  void helper_loop();
  static void run_batch_tasks(Batch& batch);

  std::size_t workers_;
  mutable std::mutex mutex_;  ///< guards queue_, stop_ and helpers_
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> helpers_;  ///< spawned lazily by submit()
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tasks_{0};
};

}  // namespace unify::util
