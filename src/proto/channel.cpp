#include "proto/channel.h"

#include <utility>

namespace unify::proto {

Endpoint::~Endpoint() {
  if (auto peer = peer_weak_.lock()) {
    peer->peer_weak_.reset();
    peer->handle_peer_closed();
  }
}

Result<void> Endpoint::send(std::string bytes) {
  auto peer = peer_weak_.lock();
  if (peer == nullptr) {
    return Error{ErrorCode::kUnavailable, "channel disconnected"};
  }
  if (bytes.empty()) return Result<void>::success();
  counters_.messages_sent++;
  counters_.bytes_sent += bytes.size();
  const auto schedule = [this](std::string data) {
    driver_->schedule(latency_us_,
                      [weak = peer_weak_, data = std::move(data)]() mutable {
                        if (auto p = weak.lock()) p->deliver(std::move(data));
                      });
  };
  if (chunk_size_ == 0 || bytes.size() <= chunk_size_) {
    schedule(std::move(bytes));
    return Result<void>::success();
  }
  for (std::size_t off = 0; off < bytes.size(); off += chunk_size_) {
    schedule(bytes.substr(off, chunk_size_));
  }
  return Result<void>::success();
}

void Endpoint::on_receive(ReceiveFn fn) {
  receive_ = std::move(fn);
  if (receive_ && !backlog_.empty()) {
    std::string pending;
    pending.swap(backlog_);
    receive_(pending);
  }
}

void Endpoint::on_close(CloseFn fn) { close_ = std::move(fn); }

void Endpoint::disconnect() {
  if (auto peer = peer_weak_.lock()) {
    peer->peer_weak_.reset();
    peer->handle_peer_closed();
  }
  peer_weak_.reset();
  handle_peer_closed();
}

bool Endpoint::connected() const noexcept { return !peer_weak_.expired(); }

void Endpoint::handle_peer_closed() {
  if (closed_) return;
  closed_ = true;
  if (close_) close_();
}

void Endpoint::deliver(std::string bytes) {
  counters_.messages_received++;
  counters_.bytes_received += bytes.size();
  if (receive_) {
    receive_(bytes);
  } else {
    backlog_ += bytes;
  }
}

std::pair<std::shared_ptr<Endpoint>, std::shared_ptr<Endpoint>>
make_channel_pair(SimClock& clock, SimTime latency_us,
                  std::size_t chunk_size) {
  auto driver = std::make_shared<SimDriver>(clock);
  auto a = std::make_shared<Endpoint>();
  auto b = std::make_shared<Endpoint>();
  a->driver_ = driver;
  b->driver_ = std::move(driver);
  a->latency_us_ = latency_us;
  b->latency_us_ = latency_us;
  a->chunk_size_ = chunk_size;
  b->chunk_size_ = chunk_size;
  a->peer_weak_ = b;
  b->peer_weak_ = a;
  return {a, b};
}

}  // namespace unify::proto
