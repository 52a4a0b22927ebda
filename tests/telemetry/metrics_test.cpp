#include "telemetry/metrics.h"

#include <gtest/gtest.h>

namespace unify::telemetry {
namespace {

TEST(Summary, BasicStatistics) {
  Summary s;
  for (const double v : {4.0, 1.0, 3.0, 2.0}) s.observe(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.sum(), 10.0);
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
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(Registry, CountersAndGauges) {
  Registry r;
  r.add("rpc.calls");
  r.add("rpc.calls", 4);
  EXPECT_EQ(r.counter("rpc.calls"), 5u);
  EXPECT_EQ(r.counter("unknown"), 0u);
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
