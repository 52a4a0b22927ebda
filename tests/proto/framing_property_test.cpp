// Property test for the length-prefixed framing: any payload sequence must
// survive any fragmentation of the byte stream — 1-byte reads, MTU-ish
// chunks, coalesced frames — and it must survive it identically over the
// pure decoder, the in-memory channel and the real TCP loopback transport.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "proto/channel.h"
#include "proto/framing.h"
#include "proto/net/tcp.h"
#include "proto/rpc.h"
#include "support/frame.h"

namespace unify::proto {
namespace {

using test::encode_frame;

std::vector<std::string> random_payloads(std::mt19937& rng, int count) {
  // Sizes spread over the interesting regimes: empty, tiny (header
  // dominates), mid, and multi-chunk large.
  std::uniform_int_distribution<int> regime(0, 3);
  std::uniform_int_distribution<int> tiny(1, 4);
  std::uniform_int_distribution<int> mid(5, 2000);
  std::uniform_int_distribution<int> large(2001, 150000);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    int size = 0;
    switch (regime(rng)) {
      case 0: size = 0; break;
      case 1: size = tiny(rng); break;
      case 2: size = mid(rng); break;
      default: size = large(rng); break;
    }
    std::string p(static_cast<std::size_t>(size), '\0');
    for (char& c : p) c = static_cast<char>(byte(rng));
    payloads.push_back(std::move(p));
  }
  return payloads;
}

/// Cuts `stream` into random fragments; every cut width down to one byte
/// is possible and several frames may land in one fragment (coalescing).
std::vector<std::string> random_fragments(std::mt19937& rng,
                                          const std::string& stream) {
  std::uniform_int_distribution<int> regime(0, 2);
  std::uniform_int_distribution<std::size_t> tiny(1, 3);
  std::uniform_int_distribution<std::size_t> big(4, 70000);
  std::vector<std::string> fragments;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t want = regime(rng) == 0 ? tiny(rng) : big(rng);
    const std::size_t take = std::min(want, stream.size() - at);
    fragments.push_back(stream.substr(at, take));
    at += take;
  }
  return fragments;
}

TEST(FramingProperty, DecoderSurvivesRandomFragmentation) {
  std::mt19937 rng(20260809);  // seeded: failures must reproduce
  for (int trial = 0; trial < 20; ++trial) {
    const auto payloads = random_payloads(rng, 12);
    std::string stream;
    for (const auto& p : payloads) stream += encode_frame(p);
    FrameDecoder decoder;
    std::vector<std::string> decoded;
    for (const auto& fragment : random_fragments(rng, stream)) {
      ASSERT_TRUE(decoder.feed(fragment, decoded).ok());
    }
    ASSERT_EQ(decoded, payloads) << "trial " << trial;
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

/// Shared transport-level property: frame-encode each payload, send it
/// through `tx`, decode at `rx`, pump the pair's driver until everything
/// arrived. The transport under it is free to fragment or coalesce.
void roundtrip_over(Transport& tx, Transport& rx,
                    const std::vector<std::string>& payloads) {
  FrameDecoder decoder;
  std::vector<std::string> decoded;
  rx.on_receive([&](std::string_view bytes) {
    ASSERT_TRUE(decoder.feed(bytes, decoded).ok());
  });
  for (const auto& p : payloads) {
    ASSERT_TRUE(tx.send(encode_frame(p)).ok());
  }
  while (decoded.size() < payloads.size() && tx.driver().pump()) {
  }
  ASSERT_EQ(decoded, payloads);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  rx.on_receive(nullptr);
}

TEST(FramingProperty, InMemoryChannelAnyChunkSize) {
  std::mt19937 rng(4242);
  const auto payloads = random_payloads(rng, 10);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{1400}}) {
    SimClock clock;
    auto [a, b] = make_channel_pair(clock, 10, chunk);
    roundtrip_over(*a, *b, payloads);
    roundtrip_over(*b, *a, payloads);  // and the reverse direction
  }
}

TEST(FramingProperty, TcpLoopback) {
  net::Reactor reactor;
  std::shared_ptr<net::TcpTransport> accepted;
  auto listener = net::TcpListener::listen(
      reactor, "127.0.0.1", 0,
      [&accepted](std::shared_ptr<net::TcpTransport> conn) {
        accepted = std::move(conn);
      });
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  auto client = net::TcpTransport::connect(reactor, "127.0.0.1",
                                           (*listener)->port());
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  while (accepted == nullptr) reactor.poll(100);

  std::mt19937 rng(90125);
  const auto payloads = random_payloads(rng, 10);
  roundtrip_over(**client, *accepted, payloads);
  roundtrip_over(*accepted, **client, payloads);
}

// ---- Adversarial inputs: the decoder faces a hostile or faulty wire. ----

std::string header_claiming(std::uint32_t length) {
  std::string header(4, '\0');
  header[0] = static_cast<char>(length >> 24);
  header[1] = static_cast<char>(length >> 16);
  header[2] = static_cast<char>(length >> 8);
  header[3] = static_cast<char>(length);
  return header;
}

TEST(FramingAdversarial, OversizedFrameIsRejectedAndPoisons) {
  FrameDecoder decoder;
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.feed(encode_frame("fine"), out).ok());
  const auto poisoned = decoder.feed(header_claiming(kMaxFrameBytes + 1), out);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.error().code, ErrorCode::kProtocol);
  EXPECT_TRUE(decoder.poisoned());
  // Stream sync is lost for good: even well-formed bytes are refused now.
  EXPECT_FALSE(decoder.feed(encode_frame("late"), out).ok());
  EXPECT_EQ(out, std::vector<std::string>{"fine"});
}

TEST(FramingAdversarial, TruncatedFinalFrameStaysPendingWithoutError) {
  // A connection reset mid-frame (FaultTransport's truncate fault) leaves
  // the decoder holding a partial frame: every completed frame before it
  // must already be out, the dangling tail is pending, and no error fires
  // — the close, not the decoder, reports the failure.
  std::mt19937 rng(777);
  const auto payloads = random_payloads(rng, 6);
  std::string stream;
  for (const auto& p : payloads) stream += encode_frame(p);
  const std::string last = encode_frame("never finishes");
  for (std::size_t cut = 1; cut < last.size(); cut += 7) {
    FrameDecoder decoder;
    std::vector<std::string> decoded;
    ASSERT_TRUE(decoder.feed(stream, decoded).ok());
    ASSERT_TRUE(decoder.feed(last.substr(0, cut), decoded).ok());
    EXPECT_EQ(decoded, payloads) << "cut " << cut;
    EXPECT_EQ(decoder.pending_bytes(), cut);
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(FramingAdversarial, CorruptedLengthPrefixNeverOverreads) {
  // Flip every possible single byte of a frame header. The decoder may
  // misparse downstream bytes or reject the length, but it must never
  // fabricate payload bytes it was not fed and never crash.
  const std::string frames =
      encode_frame("alpha") + encode_frame("beta") + encode_frame("gamma");
  for (std::size_t flip = 0; flip < 4; ++flip) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frames;
      mutated[flip] = static_cast<char>(mutated[flip] ^ (1 << bit));
      FrameDecoder decoder;
      std::vector<std::string> decoded;
      const auto fed = decoder.feed(mutated, decoded);
      std::size_t decoded_bytes = 0;
      for (const auto& p : decoded) decoded_bytes += p.size() + 4;
      EXPECT_LE(decoded_bytes, mutated.size());
      if (!fed.ok()) {
        EXPECT_EQ(fed.error().code, ErrorCode::kProtocol);
        EXPECT_TRUE(decoder.poisoned());
      } else {
        EXPECT_LE(decoder.pending_bytes(), mutated.size());
      }
    }
  }
}

TEST(FramingAdversarial, OversizedFrameKillsTheChannelRpcSession) {
  // An RpcPeer that receives an impossible length prefix has lost stream
  // sync and must drop the connection rather than stall or over-allocate.
  SimClock clock;
  auto [attacker, victim_end] = make_channel_pair(clock, 10);
  RpcPeer victim(victim_end, "victim");
  ASSERT_TRUE(attacker->send(header_claiming(kMaxFrameBytes + 7)).ok());
  clock.run_until_idle();
  EXPECT_FALSE(victim.transport().connected());
  EXPECT_FALSE(attacker->connected());  // the hangup propagates back
  EXPECT_GE(victim.protocol_errors(), 1u);
}

TEST(FramingAdversarial, OversizedFrameKillsTheTcpRpcSession) {
  net::Reactor reactor;
  std::shared_ptr<net::TcpTransport> accepted;
  auto listener = net::TcpListener::listen(
      reactor, "127.0.0.1", 0,
      [&accepted](std::shared_ptr<net::TcpTransport> conn) {
        accepted = std::move(conn);
      });
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  auto client = net::TcpTransport::connect(reactor, "127.0.0.1",
                                           (*listener)->port());
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  while (accepted == nullptr) reactor.poll(100);

  RpcPeer victim(accepted, "victim");
  ASSERT_TRUE((*client)->send(header_claiming(kMaxFrameBytes + 7)).ok());
  for (int i = 0; i < 200 && victim.transport().connected(); ++i) {
    reactor.poll(50);
  }
  EXPECT_FALSE(victim.transport().connected());
  EXPECT_GE(victim.protocol_errors(), 1u);
}

}  // namespace
}  // namespace unify::proto
