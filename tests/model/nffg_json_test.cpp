#include "model/nffg_json.h"

#include <gtest/gtest.h>

#include <cmath>

#include "model/nffg_builder.h"
#include "util/rng.h"

namespace unify::model {
namespace {

Nffg rich_graph() {
  Nffg g{"dc-view", "demo"};
  BisBis bb1 = make_bisbis("bb1", {8, 8192, 100}, 4, 0.05);
  bb1.name = "universal-node-1";
  bb1.nf_types = {"firewall", "nat"};
  EXPECT_TRUE(g.add_bisbis(std::move(bb1)).ok());
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb2", {4, 4096, 50}, 4)).ok());
  connect(g, "bb1", 1, "bb2", 1, {1000, 1.5});
  attach_sap(g, "sap1", "bb1", 0);
  EXPECT_TRUE(
      g.place_nf("bb1", make_nf("fw0", "firewall", {2, 1024, 10}, 2)).ok());
  EXPECT_TRUE(g.add_flowrule("bb1", Flowrule{"r1", {"bb1", 0}, {"fw0", 0},
                                             "", "tag-a", 100})
                  .ok());
  EXPECT_TRUE(g.add_flowrule("bb1", Flowrule{"r2", {"fw0", 1}, {"bb1", 1},
                                             "tag-a", "-", 100})
                  .ok());
  g.find_link("l-bb1-bb2")->reserved = 100;
  return g;
}

TEST(PortRefCodec, RoundTrip) {
  const PortRef ref{"node-7", 3};
  auto parsed = port_ref_from_string(port_ref_to_string(ref));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ref);
}

TEST(PortRefCodec, RejectsMalformed) {
  for (const char* bad : {"", "noport", ":3", "node:", "node:x", "node:3x"}) {
    EXPECT_FALSE(port_ref_from_string(bad).ok()) << bad;
  }
}

TEST(PortRefCodec, LastColonWins) {
  // Node ids may not contain ':', but the parser uses the last colon so a
  // numeric suffix is always the port.
  auto parsed = port_ref_from_string("a:b:2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->node, "a:b");
  EXPECT_EQ(parsed->port, 2);
}

TEST(NffgJson, RoundTripPreservesEverything) {
  const Nffg original = rich_graph();
  const std::string wire = to_json_string(original);
  auto decoded = nffg_from_json_string(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(*decoded, original);
  // And the re-serialization is byte-identical (stable ordering).
  EXPECT_EQ(to_json_string(*decoded), wire);
}

TEST(NffgJson, RoundTripThroughPretty) {
  const Nffg original = rich_graph();
  auto decoded = nffg_from_json_string(to_json(original).dump_pretty());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(NffgJson, EmptyGraph) {
  auto decoded = nffg_from_json_string(to_json_string(Nffg{"empty"}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id(), "empty");
  EXPECT_TRUE(decoded->bisbis().empty());
  EXPECT_TRUE(decoded->saps().empty());
  EXPECT_TRUE(decoded->links().empty());
}

TEST(NffgJson, DecodedGraphValidates) {
  auto decoded = nffg_from_json_string(to_json_string(rich_graph()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->validate().empty());
}

TEST(NffgJson, RejectsNonObject) {
  EXPECT_FALSE(nffg_from_json(json::Value{3}).ok());
  EXPECT_FALSE(nffg_from_json_string("[1,2]").ok());
}

TEST(NffgJson, RejectsBadShape) {
  // nodes must be an array.
  EXPECT_FALSE(nffg_from_json_string(R"({"id":"x","nodes":{}})").ok());
  // link with unknown endpoint.
  const char* dangling =
      R"({"id":"x","links":[{"id":"l","from":"a:0","to":"b:0",)"
      R"("bandwidth":1,"delay":1}]})";
  auto r = nffg_from_json_string(dangling);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  // flowrule with malformed port ref.
  const char* bad_ref =
      R"({"id":"x","nodes":[{"id":"bb","resources":{"cpu":1},)"
      R"("ports":[{"id":0}],"flowrules":[{"id":"r","in":"junk","out":"bb:0"}]}]})";
  EXPECT_FALSE(nffg_from_json_string(bad_ref).ok());
  // unknown NF status.
  const char* bad_status =
      R"({"id":"x","nodes":[{"id":"bb","resources":{"cpu":4},)"
      R"("ports":[{"id":0}],"nfs":[{"id":"n","type":"t","status":"zombie"}]}]})";
  EXPECT_FALSE(nffg_from_json_string(bad_status).ok());
}

TEST(NffgJson, OvercommittedViewStillDecodes) {
  // Serialized operational state may be transiently overcommitted; decode
  // must not reject it (validation is a separate, explicit step).
  Nffg g{"x"};
  ASSERT_TRUE(g.add_bisbis(make_bisbis("bb", {1, 1, 1}, 1)).ok());
  ASSERT_TRUE(g.place_nf("bb", make_nf("big", "t", {50, 0, 0}), true).ok());
  auto decoded = nffg_from_json_string(to_json_string(g));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->validate().empty());
}

TEST(NffgJson, OmitsDefaults) {
  Nffg g{"x"};
  ASSERT_TRUE(g.add_bisbis(make_bisbis("bb", {1, 1, 1}, 1)).ok());
  const std::string wire = to_json_string(g);
  EXPECT_EQ(wire.find("internal_delay"), std::string::npos);
  EXPECT_EQ(wire.find("nf_types"), std::string::npos);
  EXPECT_EQ(wire.find("\"name\""), std::string::npos);
}

TEST(NffgJson, HintViaRoundTripsAndIsOmittedWhenEmpty) {
  Nffg g{"x"};
  ASSERT_TRUE(g.add_bisbis(make_bisbis("bb", {1, 1, 1}, 2)).ok());
  attach_sap(g, "sap1", "bb", 0);
  attach_sap(g, "sap2", "bb", 1);
  ASSERT_TRUE(g.add_hint(ServiceHint{"plain", "sap1", "sap2", 5, 0}).ok());
  EXPECT_EQ(to_json_string(g).find("\"via\""), std::string::npos);
  ASSERT_TRUE(
      g.add_hint(ServiceHint{"named", "sap1", "sap2", 5, 0, "svc.cl0"}).ok());
  const auto decoded = nffg_from_json_string(to_json_string(g));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->hints(), g.hints());
  EXPECT_EQ(decoded->hints()[1].via, "svc.cl0");
}

/// A churn-sized edit-config: 200 chains of one to three NFs on the
/// single BiS-BiS view of the four-domain churn line, written the way the
/// service layer writes them (NFs on the big node, one untagged flowrule
/// per chain hop, one hint per chain).
Nffg churn_config(std::uint64_t seed) {
  const char* const kTypes[] = {"nat", "fw-lite", "dpi"};
  constexpr int kSaps = 4;
  Rng rng(seed);
  Nffg g{"churn-view", "single BiS-BiS"};
  EXPECT_TRUE(g.add_bisbis(make_bisbis("big", {32768, 1 << 26, 1 << 22},
                                       kSaps, 0.02))
                  .ok());
  for (int i = 0; i < kSaps; ++i) {
    attach_sap(g, "sap" + std::to_string(i), "big", i, {1e6, 0.1});
  }
  for (int c = 0; c < 200; ++c) {
    const std::string id = "c" + std::to_string(c);
    const auto src = static_cast<int>(rng.next_below(kSaps));
    const auto dst = static_cast<int>(
        (src + 1 + rng.next_below(kSaps - 1)) % kSaps);
    // Two decimals: the wire prints six significant digits, so these
    // values decode to the very doubles that were encoded.
    const double bandwidth = std::round(rng.next_double(1, 10) * 100) / 100;
    const auto length = 1 + rng.next_below(3);
    PortRef prev{"big", src};
    for (std::uint64_t k = 0; k < length; ++k) {
      const std::string nf = id + ".nf" + std::to_string(k);
      NfInstance instance =
          make_nf(nf, kTypes[rng.next_below(3)],
                  {std::round(rng.next_double(0.5, 2) * 100) / 100, 256, 1});
      instance.status = NfStatus::kRunning;
      EXPECT_TRUE(g.place_nf("big", std::move(instance), true).ok());
      EXPECT_TRUE(g.add_flowrule("big", Flowrule{id + ".l" + std::to_string(k),
                                                 prev, {nf, 0}, "", "",
                                                 bandwidth})
                      .ok());
      prev = PortRef{nf, 1};
    }
    EXPECT_TRUE(g.add_flowrule("big", Flowrule{id + ".l" +
                                                   std::to_string(length),
                                               prev, {"big", dst}, "", "",
                                               bandwidth})
                    .ok());
    EXPECT_TRUE(g.add_hint(ServiceHint{id + ".e2e", "sap" + std::to_string(src),
                                       "sap" + std::to_string(dst), 500,
                                       bandwidth})
                    .ok());
  }
  return g;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(NffgJson, ChurnSizedWireBytesArePinned) {
  // The wire form is the interface between layers: these bytes must not
  // move when the codec's internals change.
  const Nffg config = churn_config(2001);
  const std::string wire = to_json_string(config);
  EXPECT_GT(wire.size(), 100000u);
  EXPECT_EQ(fnv1a(wire), 0xD8A210ECFD482F72ULL)
      << std::hex << fnv1a(wire) << " over " << std::dec << wire.size()
      << " bytes";
  auto decoded = nffg_from_json_string(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(*decoded == config);
  EXPECT_EQ(to_json_string(*decoded), wire);
}

TEST(NffgJson, RejectsPortIdsOutsideIntRange) {
  for (const char* id : {"1e300", "-1e300", "2147483648", "-2147483649"}) {
    const std::string doc =
        std::string(R"({"id":"g","nodes":[{"id":"bb","ports":[{"id":)") + id +
        "}]}]}";
    const auto decoded = nffg_from_json_string(doc);
    ASSERT_FALSE(decoded.ok()) << id;
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocol) << id;
  }
  for (const char* id : {"2147483647", "-2147483648"}) {
    const std::string doc =
        std::string(R"({"id":"g","nodes":[{"id":"bb","ports":[{"id":)") + id +
        "}]}]}";
    const auto decoded = nffg_from_json_string(doc);
    ASSERT_TRUE(decoded.ok()) << id;
    EXPECT_EQ(decoded->find_bisbis("bb")->ports.front().id, std::stoi(id));
  }
}

}  // namespace
}  // namespace unify::model
