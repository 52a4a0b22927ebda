// Length-prefixed message framing over the byte-stream channels.
//
// Wire format: 4-byte big-endian payload length, then the payload. The
// decoder is incremental — feed it arbitrary byte fragments and collect
// complete frames — because the simulated channels (like TCP) may split or
// coalesce writes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace unify::proto {

/// Frames larger than this are a protocol violation (64 MiB).
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Bytes of the big-endian length header in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Completes a frame built in place: `frame` starts with kFrameHeaderBytes
/// reserved bytes followed by the payload; writes the payload length into
/// them. Lets a writer serialize straight into the frame buffer.
void seal_frame(std::string& frame);

class FrameDecoder {
 public:
  /// Consumes bytes; appends every completed payload to `out`. Returns a
  /// kProtocol error (and poisons the decoder) on an oversized frame.
  Result<void> feed(std::string_view bytes, std::vector<std::string>& out);

  /// Bytes buffered towards the next incomplete frame.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buffer_.size();
  }
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace unify::proto
