#include "model/nffg.h"

#include <gtest/gtest.h>

#include "model/nffg_builder.h"
#include "model/nffg_json.h"

namespace unify::model {
namespace {

Nffg two_node_graph() {
  Nffg g{"g"};
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb1", {8, 8192, 100}, 4)).ok());
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb2", {4, 4096, 50}, 4)).ok());
  connect(g, "bb1", 1, "bb2", 1, {1000, 1.0});
  attach_sap(g, "sap1", "bb1", 0);
  attach_sap(g, "sap2", "bb2", 0);
  return g;
}

TEST(Resources, Arithmetic) {
  Resources a{4, 1024, 10};
  Resources b{1, 512, 5};
  EXPECT_EQ(a + b, (Resources{5, 1536, 15}));
  EXPECT_EQ(a - b, (Resources{3, 512, 5}));
  EXPECT_TRUE(a.fits(b));
  EXPECT_FALSE(b.fits(a));
  EXPECT_TRUE(a.fits(a));
  EXPECT_FALSE((a - b).negative());
  EXPECT_TRUE((b - a).negative());
  EXPECT_TRUE(Resources{}.is_zero());
}

TEST(Resources, MaxWith) {
  Resources a{4, 100, 1};
  Resources b{2, 200, 3};
  EXPECT_EQ(a.max_with(b), (Resources{4, 200, 3}));
}

TEST(Resources, ToString) {
  EXPECT_EQ((Resources{4, 2048, 10}).to_string(),
            "cpu=4 mem=2048 storage=10");
}

TEST(PortRef, StringificationAndOrder) {
  PortRef a{"bb1", 2};
  EXPECT_EQ(a.to_string(), "bb1:2");
  EXPECT_TRUE(PortRef{}.empty());
  EXPECT_LT((PortRef{"a", 5}), (PortRef{"b", 0}));
  EXPECT_LT((PortRef{"a", 1}), (PortRef{"a", 2}));
}

TEST(NfStatus, RoundTripsThroughStrings) {
  for (const NfStatus s :
       {NfStatus::kRequested, NfStatus::kDeploying, NfStatus::kRunning,
        NfStatus::kStopped, NfStatus::kFailed}) {
    const auto parsed = nf_status_from_string(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(nf_status_from_string("bogus").has_value());
}

TEST(Nffg, AddAndFindNodes) {
  Nffg g = two_node_graph();
  EXPECT_NE(g.find_bisbis("bb1"), nullptr);
  EXPECT_EQ(g.find_bisbis("nope"), nullptr);
  EXPECT_NE(g.find_sap("sap1"), nullptr);
  EXPECT_TRUE(g.has_node("bb1"));
  EXPECT_TRUE(g.has_node("sap1"));
  EXPECT_FALSE(g.has_node("sap9"));
}

TEST(Nffg, RejectsDuplicateIdsAcrossKinds) {
  Nffg g;
  ASSERT_TRUE(g.add_bisbis(make_bisbis("x", {1, 1, 1}, 1)).ok());
  EXPECT_EQ(g.add_sap(Sap{"x", ""}).error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(g.add_bisbis(make_bisbis("x", {1, 1, 1}, 1)).error().code,
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(g.add_bisbis(make_bisbis("", {1, 1, 1}, 1)).error().code,
            ErrorCode::kInvalidArgument);
}

TEST(Nffg, LinkEndpointValidation) {
  Nffg g = two_node_graph();
  // Unknown node.
  EXPECT_EQ(g.add_link(Link{"bad", {"zz", 0}, {"bb1", 0}, {10, 1}, 0})
                .error()
                .code,
            ErrorCode::kNotFound);
  // Port out of range.
  EXPECT_EQ(g.add_link(Link{"bad", {"bb1", 9}, {"bb2", 0}, {10, 1}, 0})
                .error()
                .code,
            ErrorCode::kNotFound);
  // SAP port != 0.
  EXPECT_EQ(g.add_link(Link{"bad", {"sap1", 1}, {"bb1", 0}, {10, 1}, 0})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
  // Negative attrs.
  EXPECT_EQ(g.add_link(Link{"bad", {"bb1", 2}, {"bb2", 2}, {-5, 1}, 0})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
}

TEST(Nffg, BidirectionalLinkCreatesPair) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.add_bidirectional_link("extra", {"bb1", 2}, {"bb2", 2},
                                       {500, 2.0})
                  .ok());
  ASSERT_NE(g.find_link("extra"), nullptr);
  ASSERT_NE(g.find_link("extra-back"), nullptr);
  EXPECT_EQ(g.find_link("extra")->from.node, "bb1");
  EXPECT_EQ(g.find_link("extra-back")->from.node, "bb2");
}

TEST(Nffg, BidirectionalLinkAtomicOnFailure) {
  Nffg g = two_node_graph();
  // Second direction collides with an existing id -> first must roll back.
  ASSERT_TRUE(g.add_link(Link{"dup-back", {"bb1", 3}, {"bb2", 3}, {1, 1}, 0})
                  .ok());
  EXPECT_FALSE(
      g.add_bidirectional_link("dup", {"bb1", 2}, {"bb2", 2}, {1, 1}).ok());
  EXPECT_EQ(g.find_link("dup"), nullptr);
}

TEST(Nffg, RemoveBisBisDropsIncidentLinks) {
  Nffg g = two_node_graph();
  const std::size_t before = g.links().size();
  ASSERT_TRUE(g.remove_bisbis("bb2").ok());
  EXPECT_EQ(g.find_bisbis("bb2"), nullptr);
  // bb1<->bb2 pair and sap2<->bb2 pair gone.
  EXPECT_EQ(g.links().size(), before - 4);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Nffg, PlaceNfChecksCapacityAndType) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "firewall", {2, 1024, 1})).ok());
  // Capacity exceeded.
  EXPECT_EQ(
      g.place_nf("bb1", make_nf("big", "dpi", {100, 0, 0})).error().code,
      ErrorCode::kResourceExhausted);
  // Duplicate id.
  EXPECT_EQ(
      g.place_nf("bb1", make_nf("fw", "firewall", {1, 1, 1})).error().code,
      ErrorCode::kAlreadyExists);
  // Unsupported type.
  g.find_bisbis("bb2")->nf_types = {"nat"};
  EXPECT_EQ(
      g.place_nf("bb2", make_nf("fw2", "firewall", {1, 1, 1})).error().code,
      ErrorCode::kRejected);
  ASSERT_TRUE(g.place_nf("bb2", make_nf("n1", "nat", {1, 1, 1})).ok());
  // Force overrides both checks.
  EXPECT_TRUE(
      g.place_nf("bb2", make_nf("huge", "dpi", {99, 0, 0}), true).ok());
}

TEST(Nffg, ResidualTracksPlacements) {
  Nffg g = two_node_graph();
  const BisBis* bb = g.find_bisbis("bb1");
  EXPECT_EQ(bb->residual(), (Resources{8, 8192, 100}));
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "fw", {2, 1024, 10})).ok());
  ASSERT_TRUE(g.place_nf("bb1", make_nf("nat", "nat", {1, 512, 5})).ok());
  EXPECT_EQ(bb->allocated(), (Resources{3, 1536, 15}));
  EXPECT_EQ(bb->residual(), (Resources{5, 6656, 85}));
  ASSERT_TRUE(g.remove_nf("bb1", "fw").ok());
  EXPECT_EQ(bb->residual(), (Resources{7, 7680, 95}));
}

TEST(Nffg, FindNfSearchesAllNodes) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb2", make_nf("fw", "fw", {1, 1, 1})).ok());
  const auto found = g.find_nf("fw");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->first, "bb2");
  EXPECT_EQ(found->second->type, "fw");
  EXPECT_FALSE(g.find_nf("nope").has_value());
}

TEST(Nffg, FlowruleEndpointRules) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "fw", {1, 1, 1}, 2)).ok());

  // infra port -> NF port: ok.
  EXPECT_TRUE(g.add_flowrule("bb1", Flowrule{"r1", {"bb1", 0}, {"fw", 0},
                                             "", "", 10})
                  .ok());
  // NF port -> infra port: ok.
  EXPECT_TRUE(g.add_flowrule("bb1", Flowrule{"r2", {"fw", 1}, {"bb1", 1},
                                             "", "", 10})
                  .ok());
  // Port of an NF hosted elsewhere: rejected.
  EXPECT_EQ(g.add_flowrule("bb2", Flowrule{"r3", {"fw", 0}, {"bb2", 0}, "",
                                           "", 0})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
  // Unknown rule port on own node.
  EXPECT_EQ(g.add_flowrule("bb1", Flowrule{"r4", {"bb1", 77}, {"fw", 0}, "",
                                           "", 0})
                .error()
                .code,
            ErrorCode::kNotFound);
  // Duplicate rule id.
  EXPECT_EQ(g.add_flowrule("bb1", Flowrule{"r1", {"bb1", 0}, {"fw", 0}, "",
                                           "", 0})
                .error()
                .code,
            ErrorCode::kAlreadyExists);
  // Negative bandwidth.
  EXPECT_EQ(g.add_flowrule("bb1", Flowrule{"r5", {"bb1", 0}, {"fw", 0}, "",
                                           "", -1})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
}

TEST(Nffg, AddFlowrulesChecksInRuleOrderAndIsAllOrNothing) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "fw", {1, 1, 1}, 2)).ok());
  ASSERT_TRUE(
      g.add_flowrule("bb1", Flowrule{"r1", {"bb1", 0}, {"fw", 0}, "", "", 0})
          .ok());
  const auto rule = [](std::string id, PortRef in, double bandwidth = 0) {
    return Flowrule{std::move(id), std::move(in), {"fw", 0}, "", "",
                    bandwidth};
  };
  const auto first_error = [&](std::vector<Flowrule> rules) {
    const auto added = g.add_flowrules("bb1", std::move(rules));
    EXPECT_FALSE(added.ok());
    return added.ok() ? Error{} : added.error();
  };

  // The first failing rule decides the error, whatever comes after it.
  Error e = first_error({rule("a", {"bb1", 0}), rule("r1", {"bb1", 0}),
                         rule("b", {"bb1", 77})});
  EXPECT_EQ(e.code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(e.message, "flowrule r1 on bb1");
  e = first_error({rule("a", {"bb1", 0}), rule("b", {"bb1", 77}),
                   rule("a", {"bb1", 0})});
  EXPECT_EQ(e.code, ErrorCode::kNotFound);
  // A repeat inside the batch is a duplicate at its second occurrence.
  e = first_error({rule("a", {"bb1", 0}), rule("b", {"bb1", 0}),
                   rule("a", {"bb1", 1}, -1)});
  EXPECT_EQ(e.code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(e.message, "flowrule a on bb1");
  e = first_error({rule("a", {"bb1", 0}), rule("", {"bb1", 0})});
  EXPECT_EQ(e.code, ErrorCode::kInvalidArgument);
  e = first_error({rule("a", {"bb1", 0}, -1), rule("r1", {"bb1", 0})});
  EXPECT_EQ(e.message, "flowrule a has negative bandwidth");
  EXPECT_EQ(g.add_flowrules("ghost", {rule("a", {"bb1", 0})}).error().code,
            ErrorCode::kNotFound);
  // Failed batches left the node as it was.
  ASSERT_EQ(g.find_bisbis("bb1")->flowrules.size(), 1u);

  ASSERT_TRUE(g.add_flowrules("bb1", {rule("a", {"bb1", 0}),
                                      rule("b", {"bb1", 1}, 5)})
                  .ok());
  const auto& rules = g.find_bisbis("bb1")->flowrules;
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[1].id, "a");
  EXPECT_EQ(rules[2].id, "b");
  EXPECT_TRUE(g.add_flowrules("bb1", {}).ok());
}

TEST(Nffg, AddHintsChecksInOrderAndIsAllOrNothing) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.add_hint(ServiceHint{"h1", "sap1", "sap2", 5, 0}).ok());
  const auto hint = [](std::string id, std::string to = "sap2") {
    return ServiceHint{std::move(id), "sap1", std::move(to), 5, 0};
  };
  const auto first_error = [&](std::vector<ServiceHint> hints) {
    const auto added = g.add_hints(std::move(hints));
    EXPECT_FALSE(added.ok());
    return added.ok() ? Error{} : added.error();
  };

  // The first failing hint decides the error, whatever comes after it.
  Error e = first_error({hint("a"), hint("h1"), hint("b", "ghost")});
  EXPECT_EQ(e.code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(e.message, "hint h1");
  e = first_error({hint("a"), hint("b", "ghost"), hint("h1")});
  EXPECT_EQ(e.code, ErrorCode::kNotFound);
  EXPECT_EQ(e.message, "hint SAP ghost");
  // A repeat inside the batch is a duplicate at its second occurrence.
  e = first_error({hint("a"), hint("b"), hint("a", "ghost")});
  EXPECT_EQ(e.code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(e.message, "hint a");
  e = first_error({hint("a"), hint(""), hint("h1")});
  EXPECT_EQ(e.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(e.message, "hint id must not be empty");
  // Failed batches left the config as it was.
  ASSERT_EQ(g.hints().size(), 1u);

  ASSERT_TRUE(g.add_hints({hint("a"), hint("b")}).ok());
  ASSERT_EQ(g.hints().size(), 3u);
  EXPECT_EQ(g.hints()[1].id, "a");
  EXPECT_EQ(g.hints()[2].id, "b");
  EXPECT_TRUE(g.add_hints({}).ok());
  EXPECT_EQ(g.add_hint(hint("b")).error().message, "hint b");

  // The JSON decoder attaches a config's hints as one batch: a repeated id
  // still fails there.
  std::string wire = to_json_string(g);
  const std::string b_id = "\"id\":\"b\"";
  ASSERT_NE(wire.find(b_id), std::string::npos);
  wire.replace(wire.find(b_id), b_id.size(), "\"id\":\"a\"");
  const auto decoded = nffg_from_json_string(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(decoded.error().message, "hint a");
}

TEST(Nffg, RemoveNfDropsItsFlowrules) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "fw", {1, 1, 1}, 2)).ok());
  ASSERT_TRUE(
      g.add_flowrule("bb1", Flowrule{"r1", {"bb1", 0}, {"fw", 0}, "", "", 0})
          .ok());
  ASSERT_TRUE(
      g.add_flowrule("bb1", Flowrule{"keep", {"bb1", 0}, {"bb1", 1}, "", "",
                                     0})
          .ok());
  ASSERT_TRUE(g.remove_nf("bb1", "fw").ok());
  const BisBis* bb = g.find_bisbis("bb1");
  ASSERT_EQ(bb->flowrules.size(), 1u);
  EXPECT_EQ(bb->flowrules[0].id, "keep");
}

TEST(Nffg, RemoveFlowrule) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(
      g.add_flowrule("bb1", Flowrule{"r", {"bb1", 0}, {"bb1", 1}, "", "", 0})
          .ok());
  EXPECT_TRUE(g.remove_flowrule("bb1", "r").ok());
  EXPECT_EQ(g.remove_flowrule("bb1", "r").error().code, ErrorCode::kNotFound);
  EXPECT_EQ(g.remove_flowrule("zz", "r").error().code, ErrorCode::kNotFound);
}

TEST(Nffg, LinksOf) {
  Nffg g = two_node_graph();
  const auto links = g.links_of("bb1");
  // sap1 pair + bb1<->bb2 pair = 4 links touch bb1.
  EXPECT_EQ(links.size(), 4u);
}

TEST(Nffg, StatsAggregates) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("fw", "fw", {2, 100, 1}, 2)).ok());
  ASSERT_TRUE(
      g.add_flowrule("bb1", Flowrule{"r", {"bb1", 0}, {"fw", 0}, "", "", 0})
          .ok());
  const NffgStats s = g.stats();
  EXPECT_EQ(s.bisbis_count, 2u);
  EXPECT_EQ(s.sap_count, 2u);
  EXPECT_EQ(s.link_count, 6u);
  EXPECT_EQ(s.nf_count, 1u);
  EXPECT_EQ(s.flowrule_count, 1u);
  EXPECT_EQ(s.total_capacity, (Resources{12, 12288, 150}));
  EXPECT_EQ(s.total_allocated, (Resources{2, 100, 1}));
}

TEST(Nffg, EqualityDetectsDifferences) {
  Nffg a = two_node_graph();
  Nffg b = two_node_graph();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(b.place_nf("bb1", make_nf("fw", "fw", {1, 1, 1})).ok());
  EXPECT_FALSE(a == b);
}

TEST(NffgValidate, CleanGraphHasNoProblems) {
  EXPECT_TRUE(two_node_graph().validate().empty());
}

TEST(NffgValidate, DetectsOvercommit) {
  Nffg g = two_node_graph();
  ASSERT_TRUE(g.place_nf("bb1", make_nf("x", "t", {100, 0, 0}), true).ok());
  const auto problems = g.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("overcommitted"), std::string::npos);
}

TEST(NffgValidate, DetectsBandwidthOvercommit) {
  Nffg g = two_node_graph();
  g.find_link("l-bb1-bb2")->reserved = 5000;  // capacity is 1000
  const auto problems = g.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("bandwidth-overcommitted"), std::string::npos);
}

TEST(NffgValidate, DetectsDanglingFlowrulePort) {
  Nffg g = two_node_graph();
  // Bypass add_flowrule checks by mutating directly.
  g.find_bisbis("bb1")->flowrules.push_back(
      Flowrule{"bad", {"ghost", 0}, {"bb1", 0}, "", "", 0});
  const auto problems = g.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unresolvable"), std::string::npos);
}

TEST(NffgValidate, DetectsDuplicatePortsAndRules) {
  Nffg g;
  BisBis bb = make_bisbis("bb", {1, 1, 1}, 2);
  bb.ports.push_back(Port{0, "dup"});
  ASSERT_TRUE(g.add_bisbis(std::move(bb)).ok());
  auto* node = g.find_bisbis("bb");
  node->flowrules.push_back(Flowrule{"r", {"bb", 0}, {"bb", 1}, "", "", 0});
  node->flowrules.push_back(Flowrule{"r", {"bb", 0}, {"bb", 1}, "", "", 0});
  const auto problems = g.validate();
  EXPECT_EQ(problems.size(), 2u);  // duplicate port + duplicate rule id
}

}  // namespace
}  // namespace unify::model
