// Tests of the benchmark's own helpers: the percentile rule, the geometric
// mean, span self-time subtraction and coverage, and failure accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: exactly 10 lie above it.
  EXPECT_EQ(percentile(oneTo(1000), 99), 990.0);
  EXPECT_FALSE(percentile(oneTo(999), 99).has_value());
  EXPECT_EQ(percentile(oneTo(100), 90), 90.0);
  EXPECT_FALSE(percentile(oneTo(99), 90).has_value());
  EXPECT_EQ(percentile(oneTo(20), 50), 10.0);
  EXPECT_FALSE(percentile(oneTo(19), 50).has_value());
}

TEST(Percentile, SamplesNeededMatchesTheRule) {
  for (double p : {50.0, 90.0, 99.0}) {
    const std::size_t n = samplesNeeded(p);
    EXPECT_TRUE(percentile(oneTo(static_cast<int>(n)), p).has_value()) << p;
    EXPECT_FALSE(percentile(oneTo(static_cast<int>(n) - 1), p).has_value()) << p;
  }
  EXPECT_EQ(samplesNeeded(99), 1000u);
  EXPECT_EQ(samplesNeeded(90), 100u);
  EXPECT_EQ(samplesNeeded(50), 20u);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = oneTo(200);
  std::vector<double> r(v.rbegin(), v.rend());
  EXPECT_EQ(percentile(v, 90), percentile(r, 90));
  EXPECT_EQ(percentile(v, 90), 180.0);
}

TEST(Percentile, RequireThrowsWhenTooFew) {
  EXPECT_THROW(requirePercentile(oneTo(50), 99, "latency"), std::runtime_error);
  EXPECT_EQ(requirePercentile(oneTo(50), 50, "latency"), 25.0);
}

TEST(GeoMean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({0.5, 0.5, 1.0 / 3.0}), std::cbrt(1.0 / 12.0), 1e-15);
}

TEST(GeoMean, RejectsEmptyAndNegative) {
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
  EXPECT_THROW(geomean({0.0, -2.0}), std::invalid_argument);
}

TEST(GeoMean, AZeroRateMakesItZero) {
  EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
  EXPECT_EQ(geomean({0.0, 1e300, 1e300}), 0.0);
}

TEST(Rates, MedianRateIgnoresAShortBurst) {
  // Ten intervals of 100 ops/s and three slowed to 10 ops/s.
  std::vector<double> amounts(13, 10.0), seconds(10, 0.1);
  seconds.insert(seconds.end(), {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(medianRate(amounts, seconds), 100.0);
  EXPECT_THROW(medianRate({1.0}, {}), std::invalid_argument);
}

TEST(Rates, WindowTotalsDropsThePartialWindow) {
  const std::vector<std::pair<double, double>> events = {
      {0.1, 1}, {0.9, 2}, {1.0, 4}, {2.5, 8}, {3.2, 16}};
  EXPECT_EQ(windowTotals(events, 1.0, 3.5), (std::vector<double>{3, 4, 8}));
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  Span s;
  s.name = name;
  s.startNs = start;
  s.endNs = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      span("bench.round", 0, 100, -1),  // 0
      span("core.build", 10, 40, 0),    // 1: overlaps 2
      span("core.balance", 30, 60, 0),  // 2
      span("val.frontend", 15, 20, 1),  // 3: grandchild, not subtracted from 0
      span("exec.flatten", 90, 120, 0), // 4: runs past its parent: clipped
  };
  const std::vector<std::int64_t> self = selfTimes(spans);
  EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, TotalsAndCoverage) {
  const std::vector<Span> spans = {
      span("bench.round", 0, 100, -1),     // 0
      span("machine.simulate", 0, 90, 0),  // 1
      span("bench.check", 90, 95, 0),      // 2: the benchmark's own work
      span("bench.setup", 200, 300, -1),   // 3: another root kind
      span("core.build", 200, 300, 3),     // 4
  };
  const auto totals = totalsByName(spans);
  EXPECT_EQ(totals.at("machine.simulate").calls, 1u);
  EXPECT_EQ(totals.at("machine.simulate").selfNs, 90);
  EXPECT_EQ(totals.at("bench.round").selfNs, 5);
  // Layer self time inside bench.round roots: 90 of 100 (bench.check and the
  // round's own 5 ns are gaps); bench.setup roots are not counted.
  EXPECT_DOUBLE_EQ(coverage(spans, "bench.round"), 0.9);
  EXPECT_DOUBLE_EQ(coverage(spans, "bench.setup"), 1.0);
  EXPECT_DOUBLE_EQ(coverage(spans, "bench.request"), 0.0);
}

TEST(Tracer, RecordsNestingAndHonoursTheSwitch) {
  Tracer tr;
  {
    auto off = tr.span("bench.round");
  }
  EXPECT_TRUE(tr.spans().empty());
  tr.setEnabled(true);
  {
    auto root = tr.span("bench.round", 7);
    auto child = tr.span("core.build", 7);
    auto skipped = tr.spanIf(false, "core.lower");
  }
  const std::vector<Span> s = tr.spans();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[1].request, 7u);
  EXPECT_LE(s[0].startNs, s[1].startNs);
  EXPECT_LE(s[1].endNs, s[0].endNs);
}

TEST(OpLog, FailuresCountAgainstAttempted) {
  OpLog ops;
  ops.add(0.010, true);
  const std::size_t wrong = ops.add(0.001, true);  // fast, but its output...
  ops.addFailed();                                 // e.g. a CompileError
  ops.fail(wrong);                                 // ...failed a later check
  EXPECT_EQ(ops.attempted(), 3u);
  EXPECT_EQ(ops.failed(), 2u);
  EXPECT_EQ(ops.succeeded(), 1u);
  EXPECT_FALSE(ops.ok(wrong));
}

TEST(OpLog, AFailedOperationNeverLooksFaster) {
  OpLog ops;
  for (int i = 0; i < 30; ++i) ops.add(0.010, true);
  const double before = *percentile(ops.latenciesMs(), 50);
  for (int i = 0; i < 30; ++i) ops.fail(ops.add(0.0001, true));
  const std::vector<double> lat = ops.latenciesMs();
  EXPECT_TRUE(std::isinf(lat.back()));
  EXPECT_GE(*percentile(lat, 50), before);
}

TEST(ProgramMeans, AWrongFastRunNeverLooksFaster) {
  // Two programs of 1000 output elements; the second runs 30 to 50 ms.
  std::vector<OpLog> runs(2);
  for (int i = 0; i < 5; ++i) runs[0].add(0.010, true);
  for (double s : {0.030, 0.035, 0.040, 0.045, 0.050}) runs[1].add(s, true);
  const std::vector<double> elems = {1000, 1000};
  EXPECT_NEAR(geomeanMedianMs(runs), std::sqrt(10.0 * 40.0), 1e-9);
  EXPECT_NEAR(geomeanRate(elems, runs), 1000 / std::sqrt(0.010 * 0.040), 1e-6);
  // Two fast runs whose outputs were wrong.  Counted as done they would pull
  // the second program's median down to 35 ms; as failures they push it up.
  runs[1].add(0.0004, false);
  runs[1].add(0.0004, false);
  EXPECT_NEAR(geomeanMedianMs(runs), std::sqrt(10.0 * 45.0), 1e-9);
  EXPECT_NEAR(geomeanRate(elems, runs), 1000 / std::sqrt(0.010 * 0.045), 1e-6);
  // Once most of a program's runs fail it rates 0 and its median is +inf.
  for (int i = 0; i < 4; ++i) runs[1].add(0.0004, false);
  EXPECT_EQ(geomeanRate(elems, runs), 0.0);
  EXPECT_TRUE(std::isinf(geomeanMedianMs(runs)));
}

TEST(ClassMedians, DropHostNoiseAndKeepFailures) {
  // Class 0 runs 10 ms with one 30 ms host spike; class 1 runs 20 ms.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> ms = {10, 30, 10, 20, 20, 10, inf};
  const std::vector<std::size_t> cls = {0, 0, 0, 1, 1, 0, 1};
  EXPECT_EQ(atClassMedians(ms, cls),
            (std::vector<double>{10, 10, 10, 20, 20, 10, inf}));
  EXPECT_THROW(atClassMedians(ms, {0}), std::invalid_argument);
}

TEST(ClassMedians, AWrongFastRunNeverLooksFaster) {
  // 1000 runs of two classes, 10 ms and 20 ms: p99 reads the 20 ms class.
  OpLog ops;
  std::vector<std::size_t> cls;
  for (int i = 0; i < 1000; ++i) {
    ops.add(i % 2 ? 0.020 : 0.010, true);
    cls.push_back(static_cast<std::size_t>(i % 2));
  }
  EXPECT_EQ(percentile(atClassMedians(ops.latenciesMs(), cls), 99), 20.0);
  // Twenty fast runs of the slow class whose outputs were wrong: they keep
  // out of its median and read +inf themselves.
  for (int i = 0; i < 20; ++i) {
    ops.fail(ops.add(0.0001, true));
    cls.push_back(1);
  }
  const std::vector<double> at = atClassMedians(ops.latenciesMs(), cls);
  EXPECT_EQ(at[1], 20.0);
  EXPECT_TRUE(std::isinf(at.back()));
  EXPECT_TRUE(std::isinf(*percentile(at, 99)));
}

TEST(TracingOverhead, PairsMediansByKind) {
  EXPECT_DOUBLE_EQ(tracingOverhead({{2, 2, 2}, {4}}, {{1, 1, 1}, {1}}),
                   std::sqrt(2.0 * 4.0));
  EXPECT_DOUBLE_EQ(tracingOverhead({{2}, {}}, {{1}, {5}}), 2.0);
  EXPECT_DOUBLE_EQ(tracingOverhead({}, {}), 1.0);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  Metrics m;
  m["latency_ms"] = {1.25, "ms"};
  m["setup_s"] = {0.1, "s"};
  EXPECT_EQ(resultLine(true, 10, 0, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
            "{\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
            "1.7976931348623157e+308");
  m["bad"] = {std::nan(""), "ms"};
  EXPECT_THROW(resultLine(true, 1, 0, m), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
