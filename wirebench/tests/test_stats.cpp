// Tests of the benchmark's own arithmetic (stats.h) on known data.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "stats.h"
#include "workloads.h"

using namespace wirebench;

TEST(Percentiles, NearestRankOnKnownData) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000, reversed below
  std::reverse(v.begin(), v.end());
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p99, 990.0);
  EXPECT_EQ(s.beyond_p99, 10u);  // the guide's ten samples beyond
}

TEST(Percentiles, SmallAndEmptySets) {
  EXPECT_DOUBLE_EQ(summarize({}).p99, 0.0);
  EXPECT_EQ(summarize({}).samples, 0u);
  const LatencySummary one = summarize({7.0});
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
  EXPECT_EQ(one.beyond_p99, 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower median
  // Ties: nothing lies strictly beyond p99.
  EXPECT_EQ(summarize(std::vector<double>(200, 5.0)).beyond_p99, 0u);
}

TEST(Quietest, ScoresTheSlicesWithLeastSteal) {
  const std::vector<double> steal = {0.30, 0.00, 0.10, 0.02, 0.25, 0.01, 0.20, 0.05};
  EXPECT_EQ(quietest(steal, 0.25), (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(quietest(steal, 0.5), (std::vector<std::size_t>{1, 5, 3, 7}));
  EXPECT_EQ(quietest({0.5, 0.4}, 0.25), (std::vector<std::size_t>{1}));  // >= 1
  EXPECT_TRUE(quietest({}, 0.25).empty());
  // Ties keep time order.
  EXPECT_EQ(quietest({0.0, 0.0, 0.0, 0.0}, 0.5), (std::vector<std::size_t>{0, 1}));
  const std::vector<double> cpu = {90, 80, 95, 81, 99, 79, 97, 85};
  EXPECT_DOUBLE_EQ(quiet_median(cpu, steal, 0.5), 80.0);  // of {80, 79, 81, 85}
}

TEST(Quietest, UnstolenSecondsDiscountHostSteal) {
  EXPECT_DOUBLE_EQ(unstolen_s(2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(unstolen_s(2.0, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(unstolen_s(1.0, 1.0), 1.0 - 0.9);  // clamped: never 0
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // Scripted schedule: due every 100 µs; the generator stalls 250 µs on
  // session 2, so sessions 2 and 3 go out late; service takes 40 µs.
  const std::vector<double> due = {0, 100, 200, 300, 400};
  const std::vector<double> sent = {0, 100, 450, 450, 400};
  std::vector<double> done;
  for (const double s : sent) done.push_back(s + 40);
  const OpenLoopAccount a = account_open_loop(due, sent, done);
  EXPECT_EQ(a.latency_us, (std::vector<double>{40, 40, 290, 190, 40}));
  EXPECT_EQ(a.lateness_us, (std::vector<double>{0, 0, 250, 150, 0}));
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate) {
  const auto a = poisson_due_us(42, 8000.0, 20000);
  EXPECT_EQ(a, poisson_due_us(42, 8000.0, 20000));
  EXPECT_NE(a, poisson_due_us(43, 8000.0, 20000));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // 20000 arrivals at 8000/s take 2.5 s, within a few percent.
  EXPECT_NEAR(a.back(), 2.5e6, 0.05 * 2.5e6);
}

TEST(OpenLoop, GrowthNeedsASustainedRise) {
  std::vector<double> flat(400, 100.0);
  EXPECT_FALSE(grows(flat, 4.0, 2000.0));
  // One transient stall inside the last quarter is not growth.
  std::vector<double> stall = flat;
  for (std::size_t i = 310; i < 340; ++i) stall[i] = 50'000.0;
  EXPECT_FALSE(grows(stall, 4.0, 2000.0));
  // A backlog that keeps climbing is.
  std::vector<double> ramp(400);
  std::iota(ramp.begin(), ramp.end(), 0.0);
  for (double& x : ramp) x *= 100.0;
  EXPECT_TRUE(grows(ramp, 4.0, 2000.0));
  EXPECT_FALSE(grows({1.0, 2.0, 3.0}, 4.0, 0.0));  // too short to judge
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanLog log(3, 2);  // names 0..2; keep the first two spans verbatim
  log.open(0, 0, 0);      // tick      [0, 100)
  log.open(1, 0, 10);     //   drain   [10, 60)
  log.open(2, 7, 20);     //     send  [20, 35)
  log.close(35);
  log.close(60);
  log.open(2, 8, 70);     //   send    [70, 80)
  log.close(80);
  log.close(100);
  EXPECT_EQ(log.calls(), (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(log.total_ns(), (std::vector<double>{100, 50, 25}));
  EXPECT_EQ(log.self_ns(), (std::vector<double>{40, 35, 25}));
  // Self times partition the outermost span.
  EXPECT_DOUBLE_EQ(log.self_ns()[0] + log.self_ns()[1] + log.self_ns()[2], 100.0);
  ASSERT_EQ(log.kept().size(), 2u);
  EXPECT_EQ(log.kept()[0].parent, Span::kNoParent);
  EXPECT_EQ(log.kept()[1].parent, 0u);
  EXPECT_EQ(log.kept()[1].end_ns, 60);
}

TEST(Ledger, LinesPlusUnattributedEqualTotal) {
  Ledger l;
  l.total_us = 85.0;
  l.lines = {{"drain", 30.5}, {"verify", 24.0}, {"send", 9.25}};
  EXPECT_DOUBLE_EQ(l.attributed_us(), 63.75);
  EXPECT_DOUBLE_EQ(l.unattributed_us(), 21.25);
  EXPECT_DOUBLE_EQ(l.attributed_us() + l.unattributed_us(), l.total_us);
  // Layers that overrun the total show as a negative remainder, not 0.
  l.lines.push_back({"timers", 30.0});
  EXPECT_DOUBLE_EQ(l.unattributed_us(), -8.75);
}
