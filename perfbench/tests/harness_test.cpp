// Tests of the benchmark harness itself: the percentile rule, open-loop
// accounting, span self-time arithmetic and seeded input generation.
#include <gtest/gtest.h>

#include <vector>

#include "generate.h"
#include "harness.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(999), 0.95);  // only 9 beyond p99
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 0.5);
  EXPECT_DOUBLE_EQ(TailPercentile(19), 0.0);  // not even the median
  EXPECT_DOUBLE_EQ(TailPercentile(0), 0.0);
}

TEST(PercentileRule, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  const Spread s = Quartiles(v);
  EXPECT_DOUBLE_EQ(s.q1, 25.0);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_DOUBLE_EQ(s.q3, 75.0);
}

TEST(OpenLoop, StalledTickChargesLaterTicks) {
  constexpr double P = 1000.0;
  const std::vector<double> service = {3.0 * P, 0.1 * P, 0.1 * P, 0.1 * P, 0.1 * P};
  double clock = 0.0;
  const auto records = RunOpenLoop(
      service.size(), P, [&] { return clock; },
      [&](double until) { clock = until; },
      [&](std::size_t k) { clock += service[k]; });
  ASSERT_EQ(records.size(), 5u);
  // The schedule never slips: tick k is due at k * P whatever happened.
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_DOUBLE_EQ(records[k].due_ns, static_cast<double>(k) * P);
  }
  const auto s = SummarizeOpenLoop(records, P);
  // Tick 1 waited for the stalled tick 0: it started 2P late, and its
  // latency from its due time includes that wait.
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 3.0 * P * 1e-6);
  EXPECT_DOUBLE_EQ(s.latency_ms[1], 2.1 * P * 1e-6);
  EXPECT_DOUBLE_EQ(s.latency_ms[2], 1.2 * P * 1e-6);
  EXPECT_NEAR(s.latency_ms[3], 0.3 * P * 1e-6, 1e-15);
  EXPECT_NEAR(s.latency_ms[4], 0.1 * P * 1e-6, 1e-15);  // caught up: slept
  EXPECT_NEAR(s.busy_ms[1], 0.1 * P * 1e-6, 1e-15);     // its own work only
  EXPECT_DOUBLE_EQ(s.max_late_ms, 2.0 * P * 1e-6);
  EXPECT_EQ(s.misses, 3u);  // ticks 0, 1 and 2 ended after the next was due
}

TEST(Spans, SelfTimeSubtractsUnionOfDirectChildren) {
  SpanRecorder rec(16);
  rec.set_enabled(true);
  const auto parent = rec.Intern("parent");
  const auto child = rec.Intern("child");
  const auto leaf = rec.Intern("leaf");
  rec.Add(parent, 1, kNoSpan, 0, 100, 4);
  rec.Add(child, 1, 0, 10, 30);   // overlaps the next child
  rec.Add(child, 1, 0, 20, 50);
  rec.Add(child, 1, 0, 90, 120);  // clipped at the parent's end
  rec.Add(leaf, 1, 1, 12, 18);    // grandchild: only charged to its parent
  const auto self = rec.SelfTimesNs();
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 6.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 6.0);
  // Per-item self time divides by the span's item count.
  const auto per_item = rec.PerItemSelfNs("parent", self);
  ASSERT_EQ(per_item.size(), 1u);
  EXPECT_DOUBLE_EQ(per_item[0], 50.0 / 4.0);
  EXPECT_TRUE(rec.PerItemSelfNs("missing", self).empty());
}

TEST(Spans, DisabledAndFullRecordersKeepNothing) {
  SpanRecorder off(4);
  const auto name = off.Intern("x");
  EXPECT_EQ(off.Begin(name, 0), kNoSpan);
  off.End(kNoSpan);
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder small(1);
  small.set_enabled(true);
  EXPECT_NE(small.Begin(name, 0), kNoSpan);
  EXPECT_EQ(small.Begin(name, 0), kNoSpan);
  EXPECT_EQ(small.dropped(), 1u);
}

TEST(Generator, SameSeedSameBytesOtherSeedOtherBytes) {
  const auto a = GenerateFleet(5, 30, 40);
  const auto b = GenerateFleet(5, 30, 40);
  const auto c = GenerateFleet(6, 30, 40);
  EXPECT_EQ(InputDigest(a.calibration), InputDigest(b.calibration));
  EXPECT_EQ(InputDigest(a.pool), InputDigest(b.pool));
  EXPECT_NE(InputDigest(a.pool), InputDigest(c.pool));
  EXPECT_NE(InputDigest(a.calibration), InputDigest(c.calibration));
  // Per-link frame offsets come from the seed as well.
  EXPECT_EQ(&a.Frame(7, 3) - a.pool.data(), &b.Frame(7, 3) - b.pool.data());

  const auto r1 = GenerateReplay(7, 30, 180);
  const auto r2 = GenerateReplay(7, 30, 180);
  const auto r3 = GenerateReplay(8, 30, 180);
  ASSERT_EQ(r1.size(), 5u);
  std::uint64_t d1 = 0xcbf29ce484222325ull, d2 = d1, d3 = d1;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    d1 = InputDigest(r1[i].session, InputDigest(r1[i].calibration, d1));
    d2 = InputDigest(r2[i].session, InputDigest(r2[i].calibration, d2));
    d3 = InputDigest(r3[i].session, InputDigest(r3[i].calibration, d3));
    ASSERT_EQ(r1[i].segments.size(), 9u);
    EXPECT_EQ(r1[i].segments.back().start_s, r2[i].segments.back().start_s);
  }
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, d3);
}

}  // namespace
}  // namespace perfbench
