#include "hlc/clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "testing/fuzz.hpp"

namespace retro::hlc {
namespace {

/// A scripted physical clock for exercising the HLC algorithm.
class FakePhysicalClock final : public PhysicalClock {
 public:
  int64_t nowMillis() override { return now_; }
  void set(int64_t t) { now_ = t; }
  void advance(int64_t d) { now_ += d; }

 private:
  int64_t now_ = 0;
};

TEST(HlcClock, LocalTickFollowsPhysicalClock) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(100);
  EXPECT_EQ(clock.tick(), (Timestamp{100, 0}));
  pt.set(105);
  EXPECT_EQ(clock.tick(), (Timestamp{105, 0}));
}

TEST(HlcClock, StalledPhysicalClockIncrementsLogical) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(50);
  EXPECT_EQ(clock.tick(), (Timestamp{50, 0}));
  EXPECT_EQ(clock.tick(), (Timestamp{50, 1}));
  EXPECT_EQ(clock.tick(), (Timestamp{50, 2}));
  pt.set(51);
  EXPECT_EQ(clock.tick(), (Timestamp{51, 0}));  // c resets when l advances
}

TEST(HlcClock, ReceiveFromFutureAdoptsRemoteL) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(10);
  clock.tick();
  // Remote node is 5 ms ahead.
  EXPECT_EQ(clock.tick(Timestamp{15, 2}), (Timestamp{15, 3}));
  // Local physical clock still behind: logical keeps counting.
  EXPECT_EQ(clock.tick(), (Timestamp{15, 4}));
  // Once pt passes l, physical resumes driving.
  pt.set(16);
  EXPECT_EQ(clock.tick(), (Timestamp{16, 0}));
}

TEST(HlcClock, ReceiveFromPastKeepsLocal) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(100);
  clock.tick();
  EXPECT_EQ(clock.tick(Timestamp{40, 9}), (Timestamp{100, 1}));
}

TEST(HlcClock, ReceiveWithEqualLTakesMaxC) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(10);
  clock.tick();  // (10,0)
  clock.tick();  // (10,1)
  EXPECT_EQ(clock.tick(Timestamp{10, 7}), (Timestamp{10, 8}));
  EXPECT_EQ(clock.tick(Timestamp{10, 2}), (Timestamp{10, 9}));
}

TEST(HlcClock, PaperFigure2Scenario) {
  // Reproduce the shape of Fig. 2: three processes with skewed physical
  // clocks; messages carry timestamps; HLC must stay strictly increasing
  // along every causal chain.
  FakePhysicalClock p0;
  FakePhysicalClock p1;
  FakePhysicalClock p2;
  Clock c0(p0);
  Clock c1(p1);
  Clock c2(p2);
  p0.set(12);  // p0 runs ahead
  p1.set(10);
  p2.set(8);   // p2 runs behind (eps = 4)

  const Timestamp send0 = c0.tick();          // send on fast node
  const Timestamp recv1 = c1.tick(send0);     // receive on middle node
  EXPECT_GT(recv1, send0);
  const Timestamp send1 = c1.tick();          // forward
  EXPECT_GT(send1, recv1);
  const Timestamp recv2 = c2.tick(send1);     // receive on slow node
  EXPECT_GT(recv2, send1);
  // The slow node's l has been pulled up to the fast node's clock.
  EXPECT_GE(recv2.l, send0.l);
}

TEST(HlcClock, MonotonicAcrossMixedEvents) {
  FakePhysicalClock pt;
  Clock clock(pt);
  Timestamp prev = clock.current();
  pt.set(1);
  for (int i = 0; i < 1000; ++i) {
    Timestamp t;
    if (i % 3 == 0) {
      t = clock.tick(Timestamp{pt.nowMillis() + (i % 7), static_cast<uint32_t>(i % 5)});
    } else {
      t = clock.tick();
    }
    EXPECT_GT(t, prev);
    prev = t;
    if (i % 4 == 0) pt.advance(1);
  }
}

TEST(HlcClock, DriftIsBoundedByRemoteLead) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(100);
  clock.tick(Timestamp{110, 0});  // remote 10ms ahead
  EXPECT_LE(clock.maxDriftMillis(), 10);
  EXPECT_GE(clock.maxDriftMillis(), 10);
}

TEST(HlcClock, WrapUnwrapRoundTrip) {
  FakePhysicalClock ptA;
  FakePhysicalClock ptB;
  Clock a(ptA);
  Clock b(ptB);
  ptA.set(500);
  ptB.set(490);

  ByteWriter w;
  const Timestamp sent = wrapHlc(a, w);
  w.writeBytes("payload");

  ByteReader r(w.view());
  const Timestamp received = unwrapHlc(b, r);
  EXPECT_GT(received, sent);          // logical clock condition
  EXPECT_EQ(r.readBytes(), "payload");  // payload intact after header
}

TEST(HlcClock, CurrentDoesNotAdvance) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(5);
  const Timestamp t = clock.tick();
  EXPECT_EQ(clock.current(), t);
  EXPECT_EQ(clock.current(), t);
}

// --- edge cases: logical overflow, backwards clock steps, ε detection ---

TEST(HlcClock, LogicalOverflowPromotesIntoPhysical) {
  // An adversarial remote timestamp carries c at the 16-bit wire maximum;
  // the next increment must promote into l instead of overflowing the
  // packed representation.
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(100);
  const Timestamp t =
      clock.tick(Timestamp{200, Timestamp::kMaxLogical});
  EXPECT_EQ(t, (Timestamp{201, 0}));
  // Strictly after the remote timestamp despite the c reset.
  EXPECT_GT(t, (Timestamp{200, Timestamp::kMaxLogical}));
}

TEST(HlcClock, LocalTickOverflowAlsoPromotes) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(50);
  clock.tick(Timestamp{90, Timestamp::kMaxLogical - 1});  // (90, max)
  ASSERT_EQ(clock.current(), (Timestamp{90, Timestamp::kMaxLogical}));
  // Physical clock still behind l: the stalled-clock branch increments c,
  // which must promote rather than wrap.
  EXPECT_EQ(clock.tick(), (Timestamp{91, 0}));
}

TEST(HlcClock, PhysicalClockStepsBackwardsAfterResync) {
  // NTP resync steps the node's physical clock backwards; l must hold
  // its high-water mark and only the logical component may grow.
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(1000);
  Timestamp prev = clock.tick();  // (1000, 0)
  pt.set(700);                    // 300 ms backwards step
  for (int i = 1; i <= 5; ++i) {
    const Timestamp t = clock.tick();
    EXPECT_GT(t, prev);
    EXPECT_EQ(t, (Timestamp{1000, static_cast<uint32_t>(i)}));
    prev = t;
  }
  // Once the physical clock passes the high-water mark, it drives again.
  pt.set(1001);
  EXPECT_EQ(clock.tick(), (Timestamp{1001, 0}));
  // The backwards step is visible as drift: l ran 300 ms ahead of pt.
  EXPECT_GE(clock.maxDriftMillis(), 300);
}

TEST(HlcClock, EpsilonViolationDetection) {
  FakePhysicalClock pt;
  Clock clock(pt);
  clock.setEpsilonMillis(10);
  pt.set(1000);

  clock.tick(Timestamp{1005, 0});  // 5 ms ahead: within bound
  clock.tick(Timestamp{1010, 0});  // exactly at bound: not a violation
  EXPECT_EQ(clock.epsilonViolations(), 0u);

  clock.tick(Timestamp{1011, 0});  // 11 ms ahead: violation
  EXPECT_EQ(clock.epsilonViolations(), 1u);
  clock.tick(Timestamp{1500, 3});  // way ahead: violation
  EXPECT_EQ(clock.epsilonViolations(), 2u);
  EXPECT_EQ(clock.maxRemoteAheadMillis(), 500);

  // Detection never blocks the tick: HLC still adopted the remote l.
  EXPECT_GE(clock.current().l, 1500);
}

TEST(HlcClock, EpsilonDisabledByDefault) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(0);
  clock.tick(Timestamp{1'000'000, 0});  // absurdly far ahead
  EXPECT_EQ(clock.epsilonViolations(), 0u);
  EXPECT_EQ(clock.maxRemoteAheadMillis(), 1'000'000);
}

TEST(HlcClock, RandomEventScriptsMatchOracle) {
  // Drive one clock through a seeded script of physical-time advances
  // (some of them jumps), remote merges that may run ahead of physical
  // time, and local ticks.  Every returned timestamp, (l, c) both, must
  // equal the one the HLC update rules give, computed here by the test;
  // so must the logical-counter and drift watermarks.  RETRO_HLC_SEEDS
  // widens the sweep.
  const int seeds = testing::seedCountFromEnv("RETRO_HLC_SEEDS", 64);
  for (int seed = 1; seed <= seeds; ++seed) {
    SplitMix64 rng(static_cast<uint64_t>(seed));
    FakePhysicalClock pt;
    Clock clock(pt);

    Timestamp expected{};
    uint32_t maxC = 0;
    int64_t maxDrift = 0;
    for (int step = 0; step < 2'000; ++step) {
      const uint64_t draw = rng.next();
      Timestamp t{};
      switch (draw % 4) {
        case 0:  // physical clock advances (sometimes jumps)
          pt.advance(static_cast<int64_t>(draw >> 32) % 50);
          continue;
        case 1: {  // remote timestamp merges (may be ahead of physical)
          Timestamp remote;
          remote.l =
              pt.nowMillis() + static_cast<int64_t>((draw >> 8) % 20) - 5;
          remote.c = static_cast<uint32_t>((draw >> 40) % 7);
          const int64_t l = std::max({expected.l, remote.l, pt.nowMillis()});
          uint32_t c = 0;
          if (l == expected.l && l == remote.l) {
            c = std::max(expected.c, remote.c) + 1;
          } else if (l == expected.l) {
            c = expected.c + 1;
          } else if (l == remote.l) {
            c = remote.c + 1;
          }
          expected = Timestamp{l, c};
          t = clock.tick(remote);
          break;
        }
        default:  // local/send event
          expected = (pt.nowMillis() > expected.l)
                         ? Timestamp{pt.nowMillis(), 0}
                         : Timestamp{expected.l, expected.c + 1};
          t = clock.tick();
      }
      maxC = std::max(maxC, expected.c);
      maxDrift = std::max(maxDrift, expected.l - pt.nowMillis());
      ASSERT_EQ(t, expected) << "seed " << seed << " step " << step;
      ASSERT_EQ(clock.current(), expected)
          << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(clock.maxLogicalObserved(), maxC) << "seed " << seed;
    ASSERT_EQ(clock.maxDriftMillis(), maxDrift) << "seed " << seed;
  }
}

TEST(HlcClock, SkewEpisodesKeepInvariantsAgainstOracle) {
  // Drive one clock through a seeded script of local ticks, remote
  // merges, physical-time advances and clock anomalies: forward jumps,
  // retrograde steps, and skew episodes during which remote timestamps
  // run far ahead of (or behind) local physical time.  Every event is
  // checked against values the test computes itself.  RETRO_HLC_SEEDS
  // widens the sweep.
  const int seeds = testing::seedCountFromEnv("RETRO_HLC_SEEDS", 32);
  constexpr int64_t kEps = 8;
  uint64_t violationsAcrossSweep = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SplitMix64 rng(static_cast<uint64_t>(seed) * 0x9E3779B9u + 7);
    FakePhysicalClock pt;
    pt.set(10'000);
    Clock clock(pt);
    clock.setEpsilonMillis(kEps);

    Timestamp prev{};
    uint64_t violations = 0;
    int64_t maxAhead = 0;
    // A skew episode shifts the *remote* world ahead of (or behind) the
    // local physical clock; episodes open and close as the script runs.
    int64_t remoteSkew = 0;
    for (int step = 0; step < 3'000; ++step) {
      const uint64_t draw = rng.next();
      Timestamp t{};
      int64_t expectedL = 0;
      switch (draw % 8) {
        case 0:  // normal physical progress
          pt.advance(static_cast<int64_t>((draw >> 32) % 5));
          continue;
        case 1:  // forward jump (NTP step / VM freeze catch-up)
          pt.advance(static_cast<int64_t>((draw >> 32) % 40));
          continue;
        case 2:  // retrograde step (NTP slewing a fast clock backwards)
          pt.advance(-static_cast<int64_t>((draw >> 32) % 12));
          continue;
        case 3:  // skew episode toggles: open one or close it
          remoteSkew = (remoteSkew == 0)
                           ? static_cast<int64_t>((draw >> 16) % 30) - 10
                           : 0;
          continue;
        case 4:
        case 5: {  // remote merge perceived through the current episode
          Timestamp remote;
          remote.l = pt.nowMillis() + remoteSkew +
                     static_cast<int64_t>((draw >> 8) % 6) - 2;
          remote.c = static_cast<uint32_t>((draw >> 40) % 7);
          const int64_t ahead = remote.l - pt.nowMillis();
          if (ahead > kEps) ++violations;
          maxAhead = std::max(maxAhead, ahead);
          expectedL = std::max({prev.l, remote.l, pt.nowMillis()});
          t = clock.tick(remote);
          break;
        }
        default:  // local/send event
          expectedL = std::max(prev.l, pt.nowMillis());
          t = clock.tick();
      }
      ASSERT_GT(t, prev) << "seed " << seed << " step " << step;
      ASSERT_EQ(t.l, expectedL) << "seed " << seed << " step " << step;
      ASSERT_GE(t.l, pt.nowMillis()) << "seed " << seed << " step " << step;
      ASSERT_EQ(clock.epsilonViolations(), violations)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(clock.maxRemoteAheadMillis(), maxAhead)
          << "seed " << seed << " step " << step;
      prev = t;
    }
    violationsAcrossSweep += violations;
  }
  // The sweep is not vacuous: episodes beyond ε actually fired the
  // detector.
  EXPECT_GT(violationsAcrossSweep, 0u);
}

// --- crash recovery: restore() re-seeds from a persisted timestamp ---

TEST(HlcClock, RestoreAfterCrashNeverRegresses) {
  // Before the crash the node ran with a high logical counter (its
  // physical clock was stalled); after restart the physical clock comes
  // back stale.  Every post-restore timestamp must stay strictly above
  // the persisted high-water mark.
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(400);  // restarted with a stale battery clock
  clock.restore(Timestamp{1000, 37});
  EXPECT_EQ(clock.current(), (Timestamp{1000, 37}));
  // Physical clock still behind the persisted l: logical keeps counting.
  EXPECT_EQ(clock.tick(), (Timestamp{1000, 38}));
  EXPECT_GT(clock.tick(), (Timestamp{1000, 38}));
  // Once the physical clock passes the restored mark, it drives again.
  pt.set(1001);
  EXPECT_EQ(clock.tick(), (Timestamp{1001, 0}));
}

TEST(HlcClock, RestoreBehindCurrentIsNoOp) {
  // Restoring from a checkpoint older than the clock's current value
  // (e.g. double restore, or a fresher message already ticked the clock)
  // must not move the clock backwards.
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(500);
  const Timestamp cur = clock.tick();  // (500, 0)
  clock.restore(Timestamp{200, 99});
  EXPECT_EQ(clock.current(), cur);
  EXPECT_GT(clock.tick(), cur);
}

TEST(HlcClock, RestoreThenRemoteTickStaysMonotonic) {
  FakePhysicalClock pt;
  Clock clock(pt);
  pt.set(100);
  clock.restore(Timestamp{900, 5});
  Timestamp prev = clock.current();
  // Mixed local/remote events after recovery stay strictly increasing.
  for (int i = 0; i < 50; ++i) {
    const Timestamp t = (i % 2 == 0)
                            ? clock.tick()
                            : clock.tick(Timestamp{850 + i, 3});
    EXPECT_GT(t, prev);
    prev = t;
    pt.advance(1);
  }
}

TEST(HlcClock, WallClockTicksForward) {
  WallPhysicalClock wall;
  const int64_t a = wall.nowMillis();
  const int64_t b = wall.nowMillis();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 1'500'000'000'000ll);  // after 2017, sanity
}

}  // namespace
}  // namespace retro::hlc
