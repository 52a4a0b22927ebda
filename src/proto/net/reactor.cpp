#include "proto/net/reactor.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/log.h"

namespace unify::proto::net {

namespace {
/// Upper bound on one blocking poll so pump() loops stay responsive even
/// when no timer is armed.
constexpr int kMaxBlockMs = 100;
constexpr int kMaxEventsPerPoll = 64;
}  // namespace

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    UNIFY_LOG(kError, "proto.net")
        << "epoll_create1 failed: " << std::strerror(errno);
  }
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::schedule(SimTime delay_us, std::function<void()> fn) {
  if (delay_us < 0) delay_us = 0;
  timers_.push(Timer{Clock::now() + std::chrono::microseconds(delay_us),
                     next_seq_++, std::move(fn)});
}

bool Reactor::pump() {
  if (handlers_.empty() && timers_.empty()) return false;
  poll(kMaxBlockMs);
  return true;
}

int Reactor::timeout_until_next_timer(int timeout_ms) const {
  if (timers_.empty()) return timeout_ms;
  const auto delta = timers_.top().deadline - Clock::now();
  // Round up so a 0.4 ms deadline does not busy-spin at timeout 0.
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(delta).count();
  const int until = ms <= 0 ? 0 : static_cast<int>(ms);
  if (timeout_ms < 0) return until;
  return until < timeout_ms ? until : timeout_ms;
}

int Reactor::poll(int timeout_ms) {
  int dispatched = 0;
  if (epoll_fd_ >= 0) {
    // With an empty interest set epoll_wait degrades to a plain bounded
    // sleep, which is exactly what a timers-only reactor needs.
    epoll_event events[kMaxEventsPerPoll];
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEventsPerPoll,
                               timeout_until_next_timer(timeout_ms));
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // deregistered mid-dispatch
      const auto handler = it->second;      // keep alive across the call
      (*handler)(events[i].events);
      ++dispatched;
    }
  }
  fire_due_timers();
  return dispatched;
}

void Reactor::fire_due_timers() {
  const auto now = Clock::now();
  // Timers scheduled while firing run in a later batch, exactly like
  // SimClock's semantics for zero-delay reschedules.
  std::vector<std::function<void()>> due;
  while (!timers_.empty() && timers_.top().deadline <= now) {
    due.push_back(std::move(const_cast<Timer&>(timers_.top()).fn));
    timers_.pop();
  }
  for (auto& fn : due) fn();
}

Result<void> Reactor::add_fd(int fd, std::uint32_t events, IoFn fn) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Error{ErrorCode::kInternal,
                 std::string("epoll_ctl(ADD) failed: ") +
                     std::strerror(errno)};
  }
  handlers_[fd] = std::make_shared<IoFn>(std::move(fn));
  return Result<void>::success();
}

void Reactor::del_fd(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

}  // namespace unify::proto::net
