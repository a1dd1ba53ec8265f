// Self-tests of the benchmark's own arithmetic, driven by a hand-moved
// clock: if these are wrong, every number the benchmark prints is wrong.
#include <gtest/gtest.h>

#include <numeric>

#include "src/benchlib.hpp"

namespace perfbench {
namespace {

constexpr int64_t kMs = 1'000'000;  // nanoseconds

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(percentileIndex(1000, 0.99), 989u);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(samplesBeyond(100, 0.90), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.90), 9u);

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  const Percentile p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_TRUE(p99.resolved);
  EXPECT_EQ(p99.samples, 1000u);

  std::vector<double> few(999, 1.0);
  EXPECT_FALSE(percentile(few, 0.99).resolved);
  std::vector<double> none;
  EXPECT_FALSE(percentile(none, 0.99).resolved);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(OpenLoop, DueTimeLatencyChargesAGeneratorStall) {
  ManualClock clock;
  clock.set(1000 * kMs);
  OpenLoopGenerator gen(clock, 7);
  gen.startPhase(/*ratePerSec=*/1000, /*durationNanos=*/1000 * kMs);

  // The generator's thread stalls for 50 ms: nothing is issued, then
  // everything that fell due is issued at once and served in 0.1 ms.
  clock.advance(50 * kMs);
  std::vector<size_t> issued;
  gen.tick([&](size_t i, OpRecord&) { issued.push_back(i); });
  ASSERT_GT(issued.size(), 20u);  // ~50 due at 1000/s
  clock.advance(kMs / 10);
  for (size_t i : issued) gen.complete(i, true);

  const std::vector<OpRecord>& ops = gen.ops();
  for (const OpRecord& op : ops) {
    EXPECT_EQ(op.issued, 1050 * kMs);
    // Latency counts from the due time: the stall plus the service time,
    // never just the 0.1 ms a closed-loop timer would see.
    EXPECT_DOUBLE_EQ(op.latencyUs(), op.lagUs() + 100.0);
    EXPECT_GE(op.latencyUs(), 100.0);
  }
  EXPECT_GT(ops.front().latencyUs(), 40'000.0);
  EXPECT_EQ(gen.inFlight(), 0u);
  EXPECT_EQ(gen.inFlightMax(), issued.size());
}

TEST(OpenLoop, PoissonRateAndWindows) {
  ManualClock clock;
  OpenLoopGenerator gen(clock, 11);
  gen.startPhase(2000, 10'000 * kMs);
  int64_t wait = 0;
  while (wait >= 0) {
    clock.advance(std::max<int64_t>(wait, 1));
    wait = gen.tick([&](size_t i, OpRecord&) { gen.complete(i, true); });
  }
  const double n = static_cast<double>(gen.ops().size());
  EXPECT_NEAR(n, 20000.0, 20000.0 * 0.03);
  EXPECT_TRUE(gen.arrivalsDone());
  EXPECT_EQ(gen.ops().front().window, 0u);
  EXPECT_EQ(gen.ops().back().window, 9u);
  // A generator that is never late issues each request within a
  // nanosecond of its due time.
  for (const OpRecord& op : gen.ops()) EXPECT_LE(op.lagUs(), 0.001);
}

TEST(Percentile, WholePhaseP99SeesOneBadSecond) {
  // Ten seconds of 1000 requests at 100 µs; second 3 also has 200
  // requests stuck behind a 40 ms stall.  The phase's p99 is the stall:
  // its nearest rank falls among the 200 stalled requests.
  std::vector<double> all(10'000, 100.0);
  all.insert(all.end(), 200, 40'000.0);
  const Percentile p99 = percentile(all, 0.99);
  EXPECT_TRUE(p99.resolved);
  EXPECT_EQ(p99.samples, 10'200u);
  EXPECT_EQ(samplesBeyond(p99.samples, 0.99), 102u);
  EXPECT_DOUBLE_EQ(p99.value, 40'000.0);
}

StepOutcome healthyStep(double rate, double p99Us) {
  StepOutcome s;
  s.rate = rate;
  s.attempted = 2000;
  s.latencyP99 = Percentile{p99Us, 2000, true};
  s.lagP99 = Percentile{50, 2000, true};
  s.inFlightMax = 10;
  return s;
}

TEST(RateSearch, StopRule) {
  const double limit = 5000;
  EXPECT_TRUE(stepPasses(healthyStep(1000, 4999), limit));
  EXPECT_FALSE(stepPasses(healthyStep(1000, 5001), limit));

  StepOutcome failed = healthyStep(1000, 100);
  failed.failed = 1;  // a refusal or timeout misses the limit
  EXPECT_FALSE(stepPasses(failed, limit));

  StepOutcome leftover = healthyStep(1000, 100);
  leftover.incomplete = 1;
  EXPECT_FALSE(stepPasses(leftover, limit));

  StepOutcome unresolved = healthyStep(1000, 100);
  unresolved.latencyP99.resolved = false;
  EXPECT_FALSE(stepPasses(unresolved, limit));

  StepOutcome lateGenerator = healthyStep(1000, 100);
  lateGenerator.lagP99.value = 6000;
  EXPECT_FALSE(stepPasses(lateGenerator, limit));

  // Little's law at the limit allows 2 * 1000/s * 5 ms + 8 = 18 in flight.
  StepOutcome backlog = healthyStep(1000, 100);
  backlog.inFlightMax = 18;
  EXPECT_TRUE(stepPasses(backlog, limit));
  backlog.inFlightMax = 19;
  EXPECT_FALSE(stepPasses(backlog, limit));

  EXPECT_FALSE(stepPasses(StepOutcome{}, limit));
}

TEST(RateSearch, RampStopsAtTheFirstConfirmedFailure) {
  const double capacity = 10'000;
  RateSearch search(2000, 1.5, 20);
  std::vector<double> tried;
  while (!search.done()) {
    const double rate = search.nextRate();
    tried.push_back(rate);
    search.record(rate, rate <= capacity);
  }
  // 10125 fails, is run again, fails again: the ramp ends there.
  EXPECT_EQ(tried, (std::vector<double>{2000, 3000, 4500, 6750, 10125, 10125}));
  EXPECT_EQ(search.best(), 6750.0);
}

TEST(RateSearch, OneFailedStepIsRunAgain) {
  RateSearch search(1000, 2.0, 5);
  std::vector<double> tried;
  bool hiccup = true;
  while (!search.done()) {
    const double rate = search.nextRate();
    tried.push_back(rate);
    const bool pass = rate <= 5000 && !(rate == 2000 && hiccup);
    if (rate == 2000) hiccup = false;
    search.record(rate, pass);
  }
  // The hiccup at 2000 is retried and passes; the ramp goes on until the
  // step budget ends.
  EXPECT_EQ(tried, (std::vector<double>{1000, 2000, 2000, 4000, 8000}));
  EXPECT_EQ(search.best(), 4000.0);
}

TEST(RateSearch, NoPassMeansZero) {
  RateSearch search(1000, 2.0, 8);
  while (!search.done()) search.record(search.nextRate(), false);
  EXPECT_EQ(search.steps(), 2u);
  EXPECT_EQ(search.best(), 0.0);
}

TEST(Tally, FailedFractionCountsEveryKindOfFailure) {
  std::vector<OpRecord> ops(4);
  ops[0].done = 5;
  ops[0].ok = true;
  ops[1].done = 5;
  ops[1].ok = false;  // failed or timed out
  ops[2].done = -1;   // never completed
  ops[3].done = 9;
  ops[3].ok = true;
  Tally t;
  tallyOps(ops, t);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 2u);
  t.add(true);   // a snapshot that completed
  t.add(false);  // a snapshot that ended kPartial
  t.add(false);  // a query that did not return OK
  t.add(10, 0);
  EXPECT_EQ(t.attempted, 17u);
  EXPECT_EQ(t.failed, 4u);
}

}  // namespace
}  // namespace perfbench
