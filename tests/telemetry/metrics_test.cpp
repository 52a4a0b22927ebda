#include "telemetry/metrics.h"

#include <gtest/gtest.h>

namespace unify::telemetry {
namespace {

TEST(Summary, BasicStatistics) {
  Summary s;
  for (const double v : {4.0, 1.0, 3.0, 2.0}) s.observe(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.mean(), 2.5);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.observe(i);
  EXPECT_EQ(s.percentile(0.5), 50.0);
  EXPECT_EQ(s.percentile(0.99), 99.0);
  EXPECT_EQ(s.percentile(1.0), 100.0);
  EXPECT_EQ(s.percentile(0.0), 1.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Registry, CountersAndGauges) {
  Registry r;
  r.add("rpc.calls");
  r.add("rpc.calls", 4);
  EXPECT_EQ(r.counter("rpc.calls"), 5u);
  EXPECT_EQ(r.counter("unknown"), 0u);
  r.set_gauge("util", 0.7);
  EXPECT_EQ(r.gauge("util"), 0.7);
  EXPECT_EQ(r.gauge("unknown"), 0.0);
}

TEST(Registry, MergeFoldsPrivateRegistries) {
  // The batch-deploy pattern: workers fill a local registry, the caller
  // folds it into the long-lived one after joining.
  Registry main;
  main.add("requests", 3);
  main.set_gauge("workers", 2);
  main.summary("latency").observe(10);

  Registry scratch;
  scratch.add("requests", 2);
  scratch.add("conflicts");
  scratch.set_gauge("workers", 4);
  scratch.summary("latency").observe(30);

  main.merge(scratch);
  EXPECT_EQ(main.counter("requests"), 5u);   // counters add up
  EXPECT_EQ(main.counter("conflicts"), 1u);  // new names appear
  EXPECT_EQ(main.gauge("workers"), 4.0);     // gauges take the newer value
  ASSERT_NE(main.find_summary("latency"), nullptr);
  EXPECT_EQ(main.find_summary("latency")->count(), 2u);
  EXPECT_EQ(main.find_summary("latency")->sum(), 40.0);
}

TEST(Summary, MergeAppendsObservations) {
  Summary a;
  a.observe(1);
  a.observe(5);
  Summary b;
  b.observe(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 9.0);
  EXPECT_EQ(a.max(), 5.0);
}

TEST(Registry, SummariesAndReset) {
  Registry r;
  r.summary("latency").observe(5);
  ASSERT_NE(r.find_summary("latency"), nullptr);
  EXPECT_EQ(r.find_summary("latency")->count(), 1u);
  EXPECT_EQ(r.find_summary("none"), nullptr);
  r.reset();
  EXPECT_EQ(r.find_summary("latency"), nullptr);
  EXPECT_EQ(r.counter("rpc.calls"), 0u);
}

}  // namespace
}  // namespace unify::telemetry
