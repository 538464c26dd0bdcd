// Tests of the benchmark's own helpers: quantiles with the sample-count
// rule, self-time reduction, the Poisson schedule and metric names.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(PercentileTest, NearestRankOfShuffledSample) {
  std::vector<double> values = OneTo(1000);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(Percentile(values, 0.50), 500.0);
  EXPECT_EQ(Percentile(values, 0.99), 990.0);
}

TEST(PercentileTest, RefusesTailsTheSampleCannotSupport) {
  // p99 of 999 samples leaves only 9 beyond it.
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_TRUE(Percentile(OneTo(1000), 0.99).has_value());
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  // The median needs 20 samples: rank 10, ten beyond.
  EXPECT_EQ(MinSamplesFor(0.50), 20u);
  EXPECT_FALSE(Percentile(OneTo(19), 0.50).has_value());
  EXPECT_EQ(Percentile(OneTo(20), 0.50), 10.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

Span MakeSpan(int id, int parent, const std::string& name, int64_t start,
              int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(ReduceSpansTest, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0, 100): children [10, 30) and [20, 50) overlap (union 40), a
  // third child sticks out past the root end and counts only to 100.
  // The grandchild does not reduce the root's self time directly.
  const std::vector<Span> spans = {
      MakeSpan(0, -1, "root", 0, 100),
      MakeSpan(1, 0, "child", 10, 30),
      MakeSpan(2, 0, "child", 20, 50),
      MakeSpan(3, 0, "late", 90, 120),
      MakeSpan(4, 1, "grandchild", 12, 18),
  };
  const auto totals = ReduceSpans(spans);
  EXPECT_NEAR(totals.at("root").self_s, 50e-9, 1e-15);
  EXPECT_NEAR(totals.at("root").total_s, 100e-9, 1e-15);
  EXPECT_EQ(totals.at("child").count, 2u);
  EXPECT_NEAR(totals.at("child").total_s, 50e-9, 1e-15);
  EXPECT_NEAR(totals.at("child").self_s, 44e-9, 1e-15);
  EXPECT_NEAR(totals.at("late").self_s, 30e-9, 1e-15);
}

TEST(TracerTest, NestsOnTheCallingThreadAndIsFreeWhenOff) {
  Tracer on(true);
  {
    ScopedSpan outer(&on, "outer");
    ScopedSpan inner(&on, "inner", 7);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  Tracer off(false);
  { ScopedSpan span(&off, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(PoissonScheduleTest, SameSeedSameScheduleOtherSeedOther) {
  const auto a = PoissonSchedule(42, 1000.0, 5000);
  const auto b = PoissonSchedule(42, 1000.0, 5000);
  const auto c = PoissonSchedule(43, 1000.0, 5000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 5000u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  // 5000 arrivals at 1000/s span about five seconds.
  EXPECT_NEAR(a.back(), 5.0, 0.5);
}

TEST(MetricNameTest, AllowsOnlyTheResultAlphabet) {
  for (const char* name : {"setup_s", "lat_p99_ms.hi", "serve.reload_ms.full.p50",
                           "proc.cpu_per_req_us", "a-b", "9lives"}) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
  for (const char* name : {"", ".hidden", "_x", "has space", "ms/s", "p99%",
                           "quote\"d"}) {
    EXPECT_FALSE(ValidMetricName(name)) << name;
  }
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(ResultJsonTest, KeepsEveryDigit) {
  const std::string json =
      ResultJson(true, 3, 0, {{"lat_p50_ms.lo", 1.2034567890123, "ms"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"lat_p50_ms.lo\": {\"value\": 1.2034567890123, \"unit\": "
            "\"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
