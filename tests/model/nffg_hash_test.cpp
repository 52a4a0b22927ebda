// Pins the content_hash() contract (DESIGN.md §11): two NFFGs that hash
// equal have byte-identical JSON configs, and every serialized field
// feeds the hash. The push path's dirty
// tracking decides "clean, skip the push" from this hash alone, so any
// serialized field the hash misses would silently strand config changes.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "model/nffg.h"
#include "model/nffg_builder.h"
#include "model/nffg_hash.h"
#include "model/nffg_json.h"

namespace unify::model {
namespace {

/// Small but fully populated graph: every serialized element kind present.
Nffg base_graph() {
  Nffg g{"hash-base"};
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb1", {8, 8192, 100}, 4, 0.1)).ok());
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb2", {4, 4096, 50}, 4, 0.2)).ok());
  g.find_bisbis("bb1")->domain = "d1";
  g.find_bisbis("bb2")->domain = "d2";
  g.find_bisbis("bb2")->nf_types = {"nat", "firewall"};
  connect(g, "bb1", 1, "bb2", 1, {1000, 1.5});
  attach_sap(g, "sap1", "bb1", 0, {1000, 0.1});

  NfInstance nf;
  nf.id = "nf1";
  nf.type = "nat";
  nf.requirement = {1, 512, 1};
  nf.ports = {Port{0, "in"}, Port{1, "out"}};
  nf.status = NfStatus::kRunning;
  EXPECT_TRUE(g.place_nf("bb1", std::move(nf)).ok());

  Flowrule rule;
  rule.id = "fr1";
  rule.in = {"bb1", 0};
  rule.out = {"bb1", 1};
  rule.match_tag = "svc:l1";
  rule.set_tag = "svc:l2";
  rule.bandwidth = 100;
  EXPECT_TRUE(g.add_flowrule("bb1", std::move(rule)).ok());
  return g;
}

struct Mutation {
  const char* what;
  std::function<void(Nffg&)> apply;
};

const std::vector<Mutation>& serialized_mutations() {
  static const std::vector<Mutation> mutations = {
      {"graph id", [](Nffg& g) { g.set_id("renamed"); }},
      {"bisbis name", [](Nffg& g) { g.find_bisbis("bb1")->name = "x"; }},
      {"bisbis domain", [](Nffg& g) { g.find_bisbis("bb1")->domain = "dX"; }},
      {"bisbis capacity",
       [](Nffg& g) { g.find_bisbis("bb2")->capacity.cpu += 1; }},
      {"bisbis internal delay",
       [](Nffg& g) { g.find_bisbis("bb2")->internal_delay += 0.05; }},
      {"bisbis nf_types",
       [](Nffg& g) { g.find_bisbis("bb2")->nf_types.push_back("dpi"); }},
      {"bisbis port name",
       [](Nffg& g) { g.find_bisbis("bb1")->ports.front().name = "p"; }},
      {"nf requirement",
       [](Nffg& g) {
         g.find_bisbis("bb1")->nfs.at("nf1").requirement.mem += 1;
       }},
      {"nf status",
       [](Nffg& g) {
         g.find_bisbis("bb1")->nfs.at("nf1").status = NfStatus::kFailed;
       }},
      {"flowrule match tag",
       [](Nffg& g) {
         g.find_bisbis("bb1")->flowrules.front().match_tag = "other";
       }},
      {"flowrule bandwidth",
       [](Nffg& g) {
         g.find_bisbis("bb1")->flowrules.front().bandwidth += 1;
       }},
      {"link bandwidth",
       [](Nffg& g) { g.links().begin()->second.attrs.bandwidth += 1; }},
      {"link delay",
       [](Nffg& g) { g.links().begin()->second.attrs.delay += 0.1; }},
      {"link reserved",
       [](Nffg& g) { g.links().begin()->second.reserved += 10; }},
  };
  return mutations;
}

TEST(NffgHash, EqualGraphsHashEqual) {
  const Nffg a = base_graph();
  const Nffg b = base_graph();
  ASSERT_EQ(to_json_string(a), to_json_string(b));
  EXPECT_EQ(content_hash(a), content_hash(b));
}

TEST(NffgHash, EverySerializedFieldFeedsTheHash) {
  const Nffg base = base_graph();
  const std::uint64_t base_hash = content_hash(base);
  const std::string base_json = to_json_string(base);
  for (const Mutation& m : serialized_mutations()) {
    Nffg mutant = base_graph();
    m.apply(mutant);
    ASSERT_NE(to_json_string(mutant), base_json)
        << m.what << ": mutation is not serialized; fix the test";
    EXPECT_NE(content_hash(mutant), base_hash)
        << m.what << ": serialized change missed by content_hash";
  }
}

TEST(NffgHash, StructuralMutationsChangeTheHash) {
  const Nffg base = base_graph();
  const std::uint64_t base_hash = content_hash(base);

  Nffg grown = base_graph();
  ASSERT_TRUE(grown.add_bisbis(make_bisbis("bb3", {1, 1, 1}, 2)).ok());
  EXPECT_NE(content_hash(grown), base_hash);

  Nffg linked = base_graph();
  // Reverse endpoint order: connect() names links "l-<a>-<b>" and the
  // base graph already owns "l-bb1-bb2".
  connect(linked, "bb2", 2, "bb1", 2, {500, 2.0});
  EXPECT_NE(content_hash(linked), base_hash);

  Nffg with_sap = base_graph();
  attach_sap(with_sap, "sap2", "bb2", 0, {1000, 0.1});
  EXPECT_NE(content_hash(with_sap), base_hash);
}

TEST(NffgHash, HintViaFeedsTheHash) {
  Nffg a = base_graph();
  attach_sap(a, "sap2", "bb2", 0, {1000, 0.1});
  Nffg b = a;
  ASSERT_TRUE(a.add_hint(ServiceHint{"h", "sap1", "sap2", 5, 0, "l1"}).ok());
  ASSERT_TRUE(b.add_hint(ServiceHint{"h", "sap1", "sap2", 5, 0, "l2"}).ok());
  EXPECT_NE(content_hash(a), content_hash(b));
}

TEST(NffgHash, HealthPenaltyIsExcluded) {
  // health_penalty is an orchestrator-local annotation to_json() never
  // emits: it must not dirty a slice (DESIGN.md §11).
  const Nffg base = base_graph();
  Nffg biased = base_graph();
  biased.find_bisbis("bb1")->health_penalty = 42.0;
  ASSERT_EQ(to_json_string(biased), to_json_string(base));
  EXPECT_EQ(content_hash(biased), content_hash(base));
}

}  // namespace
}  // namespace unify::model
