#include "proto/framing.h"

#include <cassert>

namespace unify::proto {

void seal_frame(std::string& frame) {
  assert(frame.size() >= kFrameHeaderBytes);
  const auto size =
      static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes);
  frame[0] = static_cast<char>((size >> 24) & 0xFF);
  frame[1] = static_cast<char>((size >> 16) & 0xFF);
  frame[2] = static_cast<char>((size >> 8) & 0xFF);
  frame[3] = static_cast<char>(size & 0xFF);
}

Result<void> FrameDecoder::feed(std::string_view bytes,
                                std::vector<std::string>& out) {
  if (poisoned_) {
    return Error{ErrorCode::kProtocol, "decoder poisoned by earlier error"};
  }
  // Frames that arrive whole are cut straight from `bytes`; only a
  // partial tail is buffered, and consumed frames leave the buffer at once.
  const bool buffered = !buffer_.empty();
  if (buffered) buffer_.append(bytes);
  const std::string_view data = buffered ? std::string_view(buffer_) : bytes;
  std::size_t pos = 0;
  Result<void> status = Result<void>::success();
  while (data.size() - pos >= kFrameHeaderBytes) {
    const auto b = [&](std::size_t i) {
      return static_cast<std::uint32_t>(
          static_cast<unsigned char>(data[pos + i]));
    };
    const std::uint32_t size = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
    if (size > kMaxFrameBytes) {
      poisoned_ = true;
      status = Error{ErrorCode::kProtocol,
                     "frame of " + std::to_string(size) + " bytes exceeds cap"};
      break;
    }
    if (data.size() - pos - kFrameHeaderBytes < size) break;
    out.emplace_back(data.substr(pos + kFrameHeaderBytes, size));
    pos += kFrameHeaderBytes + size;
  }
  if (buffered) {
    buffer_.erase(0, pos);
  } else {
    buffer_.assign(data.substr(pos));
  }
  return status;
}

}  // namespace unify::proto
