// Tests for the benches' interleaved timer (bench/bench_common.hpp).  The
// clock is fake and moves only when a variant's run or setup advances it, so
// every sample is exact: the schedule and the statistics are checked with
// fixed inputs, no sleeps and no wall-clock assertions.  Durations are
// binary fractions so the sums come out exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"

namespace valpipe::bench {
namespace {

/// A clock read by the timer and advanced only by the variants.
struct FakeClock {
  double now = 0.0;
  std::function<double()> reader() {
    return [this] { return now; };
  }
};

/// A variant whose k-th run (k = 0 is the warm-up) takes durations[k]
/// seconds, or the last entry once the list runs out, and logs its id.
Variant scripted(FakeClock& clock, std::vector<int>& log, int id,
                 std::vector<double> durations) {
  auto calls = std::make_shared<std::size_t>(0);
  return {[&clock, &log, id, durations, calls] {
            const std::size_t k = std::min(*calls, durations.size() - 1);
            ++*calls;
            clock.now += durations[k];
            log.push_back(id);
          },
          {}};
}

int count(const std::vector<int>& log, int id) {
  return static_cast<int>(std::count(log.begin(), log.end(), id));
}

TEST(BenchTimer, WarmUpRunsOncePerVariantAndIsNeverSampled) {
  FakeClock clock;
  std::vector<int> log;
  // The warm-up runs take 1024 s; every sampled run takes 0.125 / 0.25 s.
  const Timing t =
      timeInterleaved({scripted(clock, log, 0, {1024.0, 0.125}),
                       scripted(clock, log, 1, {1024.0, 0.25})},
                      clock.reader());
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[0], 0);  // one warm-up of each variant, before any round
  EXPECT_EQ(log[1], 1);
  EXPECT_EQ(count(log, 0), 1 + kRounds);
  EXPECT_EQ(count(log, 1), 1 + kRounds);
  EXPECT_EQ(t.runsPerSample, (std::vector<int>{1, 1}));
  ASSERT_EQ(t.samples.size(), 2u);
  EXPECT_EQ(t.samples[0], std::vector<double>(kRounds, 0.125));
  EXPECT_EQ(t.samples[1], std::vector<double>(kRounds, 0.25));
  EXPECT_EQ(t.seconds(0), 0.125);
  EXPECT_EQ(t.seconds(1), 0.25);
}

TEST(BenchTimer, EveryRoundRunsEachVariantOnceAndRotatesTheFirst) {
  FakeClock clock;
  std::vector<int> log;
  timeInterleaved({scripted(clock, log, 0, {0.5}),
                   scripted(clock, log, 1, {0.5}),
                   scripted(clock, log, 2, {0.5})},
                  clock.reader());
  std::vector<int> expected = {0, 1, 2};  // warm-up
  for (int r = 0; r < kRounds; ++r)
    for (int k = 0; k < 3; ++k) expected.push_back((r + k) % 3);
  EXPECT_EQ(log, expected);
}

TEST(BenchTimer, VariantBelowTheFloorRepeatsInsideItsSample) {
  FakeClock clock;
  std::vector<int> log;
  const double fast = 1.0 / 1024;  // below the 20 ms floor
  const Timing t = timeInterleaved({scripted(clock, log, 0, {fast}),
                                    scripted(clock, log, 1, {0.5})},
                                   clock.reader());
  const int runs = static_cast<int>(std::ceil(kSampleFloorSeconds / fast));
  EXPECT_EQ(runs, 21);
  EXPECT_EQ(t.runsPerSample, (std::vector<int>{runs, 1}));
  EXPECT_EQ(count(log, 0), 1 + kRounds * runs);
  EXPECT_EQ(count(log, 1), 1 + kRounds);
  // A sample is its total time over the repeat count: seconds per run.
  EXPECT_EQ(t.samples[0], std::vector<double>(kRounds, fast));
  // The repeats run back to back: no other variant runs inside a sample.
  const std::vector<int> firstRound(log.begin() + 2,
                                    log.begin() + 2 + runs + 1);
  std::vector<int> expected(static_cast<std::size_t>(runs), 0);
  expected.push_back(1);
  EXPECT_EQ(firstRound, expected);
}

TEST(BenchTimer, SetupRunsBeforeEveryRunOutsideTheTimedSpan) {
  FakeClock clock;
  std::vector<int> log;
  int setups = 0;
  Variant v = scripted(clock, log, 0, {0.25});
  v.setup = [&] {
    ++setups;
    clock.now += 64.0;
  };
  const Timing t = timeInterleaved({v}, clock.reader());
  EXPECT_EQ(setups, 1 + kRounds);
  EXPECT_EQ(t.samples[0], std::vector<double>(kRounds, 0.25));
}

TEST(BenchTimer, RatioReportsMedianMinAndMaxOfThePerRoundRatios) {
  FakeClock clock;
  std::vector<int> log;
  // Round r of variant 0 takes num[r] quarter-seconds, of variant 1 den[r];
  // the per-round ratios are 3 1 4 1 5 9 2 6 2.5.
  const std::vector<double> num = {1, 3, 1, 4, 1, 5, 9, 2, 6, 5};
  const std::vector<double> den = {1, 1, 1, 1, 1, 1, 1, 1, 1, 2};
  auto quarters = [](std::vector<double> v) {
    for (double& x : v) x *= 0.25;
    return v;
  };
  const Timing t =
      timeInterleaved({scripted(clock, log, 0, quarters(num)),
                       scripted(clock, log, 1, quarters(den))},
                      clock.reader());
  const Spread r = t.ratio(0, 1);
  EXPECT_EQ(r.median, 3.0);
  EXPECT_EQ(r.min, 1.0);
  EXPECT_EQ(r.max, 9.0);
  const Spread inverse = t.ratio(1, 0);
  EXPECT_EQ(inverse.min, 1.0 / 9.0);
  EXPECT_EQ(inverse.max, 1.0);
  EXPECT_EQ(t.seconds(0), 4 * 0.25);  // median of 3 1 4 1 5 9 2 6 5
}

TEST(BenchTimer, SpreadOfAnEvenCountTakesTheMiddlePairsMean) {
  const Spread s = spreadOf({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.median, 2.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
}

}  // namespace
}  // namespace valpipe::bench
