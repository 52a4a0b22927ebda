#include "proto/framing.h"

#include <gtest/gtest.h>

#include "support/frame.h"

namespace unify::proto {
namespace {

using test::encode_frame;

TEST(Framing, EncodeProducesHeaderPlusPayload) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame.substr(4), "abc");
  EXPECT_EQ(frame[0], 0);
  EXPECT_EQ(frame[3], 3);
}

TEST(Framing, RoundTripSingleFrame) {
  FrameDecoder dec;
  std::vector<std::string> out;
  ASSERT_TRUE(dec.feed(encode_frame("payload"), out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "payload");
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, EmptyPayload) {
  FrameDecoder dec;
  std::vector<std::string> out;
  ASSERT_TRUE(dec.feed(encode_frame(""), out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "");
}

TEST(Framing, CoalescedFrames) {
  FrameDecoder dec;
  std::vector<std::string> out;
  ASSERT_TRUE(dec.feed(encode_frame("one") + encode_frame("two"), out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"one", "two"}));
}

TEST(Framing, ByteAtATime) {
  const std::string wire = encode_frame("dribble") + encode_frame("x");
  FrameDecoder dec;
  std::vector<std::string> out;
  for (const char c : wire) {
    ASSERT_TRUE(dec.feed(std::string_view(&c, 1), out).ok());
  }
  EXPECT_EQ(out, (std::vector<std::string>{"dribble", "x"}));
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, SplitInsideHeader) {
  const std::string wire = encode_frame("abcd");
  FrameDecoder dec;
  std::vector<std::string> out;
  ASSERT_TRUE(dec.feed(wire.substr(0, 2), out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(dec.feed(wire.substr(2), out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"abcd"}));
}

TEST(Framing, OversizedFramePoisons) {
  std::string bad;
  bad.push_back(static_cast<char>(0x7F));  // ~2 GiB length
  bad.append(3, '\0');
  FrameDecoder dec;
  std::vector<std::string> out;
  auto r = dec.feed(bad, out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kProtocol);
  EXPECT_TRUE(dec.poisoned());
  EXPECT_FALSE(dec.feed("more", out).ok());
}

TEST(Framing, BinaryPayloadSafe) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  FrameDecoder dec;
  std::vector<std::string> out;
  ASSERT_TRUE(dec.feed(encode_frame(payload), out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], payload);
}

}  // namespace
}  // namespace unify::proto
