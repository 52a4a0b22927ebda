#include "model/nffg_diff.h"

#include <gtest/gtest.h>

#include "model/nffg_builder.h"

namespace unify::model {
namespace {

Nffg base_graph() {
  Nffg g{"g"};
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb1", {8, 8192, 100}, 4)).ok());
  EXPECT_TRUE(g.add_bisbis(make_bisbis("bb2", {8, 8192, 100}, 4)).ok());
  connect(g, "bb1", 1, "bb2", 1, {1000, 1});
  attach_sap(g, "sap1", "bb1", 0);
  return g;
}

TEST(Diff, IdenticalGraphsGiveEmptyDelta) {
  Nffg a = base_graph();
  Nffg b = base_graph();
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
  EXPECT_EQ(delta->size(), 0u);
}

TEST(Diff, DetectsNfAddition) {
  Nffg a = base_graph();
  Nffg b = base_graph();
  ASSERT_TRUE(b.place_nf("bb1", make_nf("fw", "fw", {1, 64, 1})).ok());
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->nf_placements.size(), 1u);
  EXPECT_EQ(delta->nf_placements[0].bisbis, "bb1");
  EXPECT_EQ(delta->nf_placements[0].nf.id, "fw");
  EXPECT_TRUE(delta->nf_removals.empty());
}

TEST(Diff, DetectsNfRemoval) {
  Nffg a = base_graph();
  ASSERT_TRUE(a.place_nf("bb1", make_nf("fw", "fw", {1, 64, 1})).ok());
  Nffg b = base_graph();
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->nf_removals.size(), 1u);
  EXPECT_EQ(delta->nf_removals[0].nf_id, "fw");
}

TEST(Diff, ModifiedNfBecomesRemovePlusAdd) {
  Nffg a = base_graph();
  ASSERT_TRUE(a.place_nf("bb1", make_nf("fw", "fw", {1, 64, 1})).ok());
  Nffg b = base_graph();
  ASSERT_TRUE(b.place_nf("bb1", make_nf("fw", "fw", {2, 128, 1})).ok());
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->nf_removals.size(), 1u);
  EXPECT_EQ(delta->nf_placements.size(), 1u);
  EXPECT_EQ(delta->nf_placements[0].nf.requirement.cpu, 2);
}

TEST(Diff, StatusChangeIsNotConfigChange) {
  Nffg a = base_graph();
  ASSERT_TRUE(a.place_nf("bb1", make_nf("fw", "fw", {1, 64, 1})).ok());
  Nffg b = a;
  b.find_bisbis("bb1")->nfs.at("fw").status = NfStatus::kRunning;
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(Diff, FlowruleChanges) {
  Nffg a = base_graph();
  ASSERT_TRUE(
      a.add_flowrule("bb1", Flowrule{"keep", {"bb1", 0}, {"bb1", 1}, "", "",
                                     0})
          .ok());
  ASSERT_TRUE(
      a.add_flowrule("bb1", Flowrule{"mod", {"bb1", 0}, {"bb1", 2}, "", "",
                                     10})
          .ok());
  ASSERT_TRUE(
      a.add_flowrule("bb1", Flowrule{"drop", {"bb1", 2}, {"bb1", 3}, "", "",
                                     0})
          .ok());
  Nffg b = base_graph();
  ASSERT_TRUE(
      b.add_flowrule("bb1", Flowrule{"keep", {"bb1", 0}, {"bb1", 1}, "", "",
                                     0})
          .ok());
  ASSERT_TRUE(
      b.add_flowrule("bb1", Flowrule{"mod", {"bb1", 0}, {"bb1", 2}, "", "",
                                     20})
          .ok());
  ASSERT_TRUE(
      b.add_flowrule("bb1", Flowrule{"new", {"bb1", 1}, {"bb1", 3}, "", "",
                                     0})
          .ok());
  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->rule_removals.size(), 2u);  // mod + drop
  EXPECT_EQ(delta->rule_installs.size(), 2u);  // mod + new
}

TEST(Diff, MismatchedInfrastructureRejected) {
  Nffg a = base_graph();
  Nffg b = base_graph();
  ASSERT_TRUE(b.add_bisbis(make_bisbis("bb3", {1, 1, 1}, 1)).ok());
  EXPECT_EQ(diff(a, b).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(diff(b, a).error().code, ErrorCode::kInvalidArgument);
}

TEST(Apply, DeltaTransformsBaseIntoTarget) {
  Nffg a = base_graph();
  ASSERT_TRUE(a.place_nf("bb1", make_nf("old", "t", {1, 1, 1}, 2)).ok());
  ASSERT_TRUE(
      a.add_flowrule("bb1", Flowrule{"r-old", {"bb1", 0}, {"old", 0}, "", "",
                                     0})
          .ok());

  Nffg b = base_graph();
  ASSERT_TRUE(b.place_nf("bb2", make_nf("new", "t", {2, 2, 2}, 2)).ok());
  ASSERT_TRUE(
      b.add_flowrule("bb2", Flowrule{"r-new", {"bb2", 0}, {"new", 0}, "", "",
                                     5})
          .ok());

  auto delta = diff(a, b);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(apply(a, *delta).ok());
  // NF sets and flowrules now match (a keeps its own id/name metadata).
  EXPECT_TRUE(a.find_nf("new").has_value());
  EXPECT_FALSE(a.find_nf("old").has_value());
  EXPECT_NE(a.find_bisbis("bb2")->find_flowrule("r-new"), nullptr);
  EXPECT_EQ(a.find_bisbis("bb1")->find_flowrule("r-old"), nullptr);
  // Re-diff is empty.
  auto again = diff(a, b);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

TEST(Apply, FailsOnMissingEntities) {
  Nffg g = base_graph();
  ConfigDelta delta;
  delta.nf_removals.push_back(NfRemoval{"bb1", "ghost"});
  EXPECT_EQ(apply(g, delta).error().code, ErrorCode::kNotFound);
}

TEST(Apply, RespectsCapacityChecks) {
  Nffg g = base_graph();
  ConfigDelta delta;
  delta.nf_placements.push_back(
      NfPlacement{"bb1", make_nf("huge", "t", {999, 0, 0})});
  EXPECT_EQ(apply(g, delta).error().code, ErrorCode::kResourceExhausted);
}

}  // namespace
}  // namespace unify::model
