// The transport concept behind every control-plane session (DESIGN.md §13).
//
// The paper's Unify interface runs NETCONF/OpenFlow-style sessions over TCP
// between layers and domains. All session/RPC code in this reproduction is
// written against two small interfaces instead of a concrete wire:
//
//   Transport — a connected, ordered, reliable byte stream (send bytes,
//               receive bytes, observe close). The deterministic in-memory
//               channel (proto/channel.h) and the epoll TCP connection
//               (proto/net/tcp.h) both conform, byte-for-byte compatible
//               with the same length-prefixed framing.
//   Driver    — the timer/deadline provider and event pump the transport's
//               callbacks run on: SimClock for in-memory channels, the
//               epoll reactor for sockets. One deadline path serves both.
//
// Threading: a transport and everything constructed over it (RpcPeer,
// UnifyServer, ...) belong to their driver's single-threaded execution
// domain, identified by Driver::exclusion_key(). Two transports may be
// used concurrently iff their exclusion keys differ.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/sim_clock.h"

namespace unify::proto {

struct TransportCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

/// Timer/deadline provider + event pump. SimClock-backed for in-memory
/// channels, epoll-reactor-backed for sockets.
class Driver {
 public:
  virtual ~Driver() = default;

  /// Runs `fn` once after `delay_us` microseconds of this driver's time
  /// base (simulated time for SimClock, monotonic wall time for the
  /// reactor). delay_us <= 0 means "as soon as possible".
  virtual void schedule(SimTime delay_us, std::function<void()> fn) = 0;

  /// Runs one batch of due work (timers, I/O readiness). Returns false iff
  /// nothing is pending and no future work can arrive — the "wait until
  /// X or the driver goes idle" loops (`RpcPeer::call_and_wait`) terminate
  /// on that. A true return does not promise progress was made, only that
  /// waiting longer could still produce some.
  virtual bool pump() = 0;

  /// Stable key of the single-threaded execution domain this driver's
  /// callbacks run in. Transports sharing a key must never be driven
  /// concurrently (the push fan-out groups adapters by this).
  [[nodiscard]] virtual const void* exclusion_key() const noexcept = 0;
};

/// A connected, ordered, reliable duplex byte stream.
///
/// Buffer ownership: the string_view handed to the receive callback points
/// into transport-owned storage and is valid only for the duration of the
/// callback — copy out anything kept (FrameDecoder does). Bytes passed to
/// send() are owned by the transport from that point on.
class Transport {
 public:
  using ReceiveFn = std::function<void(std::string_view bytes)>;
  using CloseFn = std::function<void()>;

  virtual ~Transport() = default;

  /// Queues bytes for in-order delivery to the peer. Fails with
  /// kUnavailable once the transport is disconnected — callers get a send
  /// status instead of a silent drop.
  virtual Result<void> send(std::string bytes) = 0;

  /// Installs the receive callback (replaces any previous one). Bytes that
  /// arrive while no callback is installed are buffered and flushed on
  /// installation.
  virtual void on_receive(ReceiveFn fn) = 0;

  /// Installs the close callback (replaces any previous one); fires exactly
  /// once, when the transport transitions to disconnected — locally via
  /// disconnect() or remotely (peer closed, connection reset).
  virtual void on_close(CloseFn fn) = 0;

  /// Initiates a graceful close: already-queued outbound bytes are still
  /// flushed where the medium allows, then the stream is severed.
  virtual void disconnect() = 0;

  [[nodiscard]] virtual bool connected() const noexcept = 0;
  [[nodiscard]] virtual const TransportCounters& counters() const noexcept = 0;

  /// The driver whose execution domain this transport lives in. Valid for
  /// the transport's lifetime.
  [[nodiscard]] virtual Driver& driver() noexcept = 0;
};

}  // namespace unify::proto
