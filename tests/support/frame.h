// Builds a whole frame from a payload for tests that write raw wire bytes.
#pragma once

#include <string>
#include <string_view>

#include "proto/framing.h"

namespace unify::test {

/// The length header followed by `payload`, as RpcPeer sends it.
inline std::string encode_frame(std::string_view payload) {
  std::string frame(proto::kFrameHeaderBytes, '\0');
  frame.append(payload);
  proto::seal_frame(frame);
  return frame;
}

}  // namespace unify::test
