// Single-threaded epoll reactor: the real-socket Driver (DESIGN.md §13).
//
// Owns one epoll instance plus a monotonic-clock timer heap and dispatches
// both from poll(). Everything registered with a reactor — listeners,
// connections, timers — runs on whichever thread calls poll()/pump();
// that thread is the reactor's execution domain (exclusion_key() == this),
// and no reactor object is safe to touch from outside it.
//
// Registration is edge-triggered where the owner asks for it (the TCP
// transport does): callbacks must drain until EAGAIN. Callbacks may
// deregister any fd — including their own — mid-dispatch; the reactor
// defers teardown safely.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "proto/transport.h"
#include "util/result.h"

namespace unify::proto::net {

class Reactor final : public Driver {
 public:
  /// Fired with the epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using IoFn = std::function<void(std::uint32_t events)>;

  Reactor();
  ~Reactor() override;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Driver:
  void schedule(SimTime delay_us, std::function<void()> fn) override;
  /// One poll() bounded by the next timer deadline (capped at 100 ms).
  /// Returns false iff no fds are registered and no timers are pending.
  bool pump() override;
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return this;
  }

  /// Waits up to `timeout_ms` for I/O (-1 = until the next timer or event,
  /// 0 = non-blocking), dispatches ready fds, then fires due timers.
  /// Returns the number of I/O events dispatched.
  int poll(int timeout_ms);

  /// Registers `fd` for `events` (caller picks EPOLLET). One handler per
  /// fd; the reactor never owns the fd.
  Result<void> add_fd(int fd, std::uint32_t events, IoFn fn);
  /// Safe to call from inside the fd's own callback.
  void del_fd(int fd);

  [[nodiscard]] std::size_t pending_timers() const noexcept {
    return timers_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Timer {
    Clock::time_point deadline;
    std::uint64_t seq;  // FIFO among equal deadlines
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const noexcept {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  void fire_due_timers();
  [[nodiscard]] int timeout_until_next_timer(int timeout_ms) const;

  int epoll_fd_ = -1;
  // shared_ptr so a handler erased mid-dispatch stays alive for the frame
  // that is invoking it.
  std::unordered_map<int, std::shared_ptr<IoFn>> handlers_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
};

}  // namespace unify::proto::net
