// Snapshot correctness for the Hazelcast-like grid: per-partition copies
// with brief key locking, rolled back through the partition window-logs
// to the target time, verified against an independent forward-replay
// oracle per partition.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "grid/grid_cluster.hpp"
#include "workload/driver.hpp"

namespace retro::grid {
namespace {

GridConfig snapGrid(uint64_t seed = 1) {
  GridConfig cfg;
  cfg.members = 3;
  cfg.clients = 4;
  cfg.seed = seed;
  cfg.member.logBudgetBytes = 0;  // 0 => unbounded per-partition logs
  return cfg;
}

std::vector<workload::ClientHandle> handlesOf(GridCluster& cluster) {
  std::vector<workload::ClientHandle> handles;
  for (size_t i = 0; i < cluster.clientCount(); ++i) {
    GridClient* c = &cluster.client(i);
    workload::ClientHandle h;
    h.put = [c](const Key& k, Value v,
                std::function<void(bool, TimeMicros)> done) {
      c->put(k, std::move(v), std::move(done));
    };
    h.get = [c](const Key& k, std::function<void(bool, TimeMicros)> done) {
      c->get(k, [done = std::move(done)](bool ok, TimeMicros lat, OptValue) {
        done(ok, lat);
      });
    };
    handles.push_back(std::move(h));
  }
  return handles;
}

/// Forward-replay oracle over every partition log of a member.
std::unordered_map<Key, Value> oracleStateAt(
    GridCluster& cluster, NodeId memberId,
    const std::unordered_map<Key, Value>& initial, hlc::Timestamp target) {
  auto state = initial;
  auto& member = cluster.member(memberId);
  for (uint32_t p : cluster.partitionTable().partitionsOwnedBy(memberId)) {
    const auto* wlog =
        member.retroscope().findLog(GridMember::partitionLogName(p));
    if (wlog == nullptr) continue;
    wlog->forEach([&](const log::Entry& e) {
      if (e.ts > target) return;
      if (e.newValue) {
        state[e.key] = *e.newValue;
      } else {
        state.erase(e.key);
      }
    });
  }
  return state;
}

struct GridBed {
  explicit GridBed(GridConfig cfg) : cluster(cfg) {
    cluster.preload(3000, 60);
    for (size_t m = 0; m < cluster.memberCount(); ++m) {
      std::unordered_map<Key, Value> initial;
      for (uint32_t p : cluster.partitionTable().partitionsOwnedBy(
               static_cast<NodeId>(m))) {
        const auto* data = cluster.member(m).partitionData(p);
        if (data) initial.insert(data->begin(), data->end());
      }
      initialStates.push_back(std::move(initial));
    }
    workload::DriverConfig dcfg;
    dcfg.workload.keySpace = 3000;
    dcfg.workload.valueBytes = 60;
    driver = std::make_unique<workload::ClosedLoopDriver>(
        cluster.env(), handlesOf(cluster), GridCluster::keyOf, dcfg);
  }

  void verify(core::SnapshotId id, hlc::Timestamp target) {
    for (size_t m = 0; m < cluster.memberCount(); ++m) {
      const auto* snap = cluster.member(m).snapshots().find(id);
      ASSERT_NE(snap, nullptr) << "member " << m;
      const auto expected = oracleStateAt(cluster, static_cast<NodeId>(m),
                                          initialStates[m], target);
      EXPECT_EQ(snap->state, expected) << "member " << m;
    }
  }

  GridCluster cluster;
  std::vector<std::unordered_map<Key, Value>> initialStates;
  std::unique_ptr<workload::ClosedLoopDriver> driver;
};

TEST(GridSnapshots, InstantSnapshotMatchesOracle) {
  GridBed bed{snapGrid()};
  bed.driver->start(4 * kMicrosPerSecond);
  core::SnapshotId id = 0;
  hlc::Timestamp target;
  bool complete = false;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    auto& initiator = bed.cluster.member(0);
    target = initiator.retroscope().timeTick();
    id = initiator.initiateSnapshot(target, [&](const core::SnapshotSession& s) {
      complete = s.state() == core::GlobalSnapshotState::kComplete;
    });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(complete);
  bed.verify(id, target);
}

TEST(GridSnapshots, RetrospectiveSnapshotMatchesOracle) {
  GridBed bed{snapGrid(5)};
  bed.driver->start(5 * kMicrosPerSecond);
  core::SnapshotId id = 0;
  hlc::Timestamp target;
  bool complete = false;
  bed.cluster.env().scheduleAt(4 * kMicrosPerSecond, [&] {
    auto& initiator = bed.cluster.member(1);
    // snapshot(t): t = tc - delta (2 seconds back).
    target = hlc::fromPhysicalMillis(initiator.retroscope().timeTick().l -
                                     2000);
    id = initiator.initiateSnapshot(target, [&](const core::SnapshotSession& s) {
      complete = s.state() == core::GlobalSnapshotState::kComplete;
    });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(complete);
  bed.verify(id, target);
}

TEST(GridSnapshots, SnapshotStableUnderContinuedTraffic) {
  GridBed bed{snapGrid(7)};
  bed.driver->start(6 * kMicrosPerSecond);
  core::SnapshotId id = 0;
  hlc::Timestamp target;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    auto& initiator = bed.cluster.member(2);
    target = initiator.retroscope().timeTick();
    id = initiator.initiateSnapshot(target,
                                    [](const core::SnapshotSession&) {});
  });
  bed.cluster.env().run();  // 4 more seconds of writes after the snapshot
  bed.verify(id, target);
}

TEST(GridSnapshots, WritesQueueBehindPartitionLock) {
  GridConfig cfg = snapGrid(9);
  // Slow per-partition snapshot ops: the lock window of partition p+1
  // spans partition p's traversal, so writes racing into it must queue.
  cfg.member.copyMicrosPerEntry = 50.0;
  cfg.member.traverseMicrosPerEntry = 500.0;
  GridBed bed{cfg};
  bed.driver->start(4 * kMicrosPerSecond);
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    bed.cluster.member(0).initiateSnapshotNow(
        [](const core::SnapshotSession&) {});
  });
  bed.cluster.env().run();
  uint64_t queued = 0;
  for (size_t m = 0; m < bed.cluster.memberCount(); ++m) {
    queued += bed.cluster.member(m).queuedBehindLock();
  }
  EXPECT_GT(queued, 0u);
  // Despite queueing, no operation was lost.
  EXPECT_EQ(bed.driver->opsFailed(), 0u);
}

TEST(GridSnapshots, OutOfReachReportsPartial) {
  GridConfig cfg = snapGrid(11);
  cfg.member.logBudgetBytes = 40'000;  // tiny per-member budget
  GridBed bed{cfg};
  bed.driver->start(3 * kMicrosPerSecond);
  bool done = false;
  core::GlobalSnapshotState state{};
  bed.cluster.env().scheduleAt(3 * kMicrosPerSecond, [&] {
    auto& initiator = bed.cluster.member(0);
    const auto target = hlc::fromPhysicalMillis(
        initiator.retroscope().timeTick().l - 2900);
    initiator.initiateSnapshot(target, [&](const core::SnapshotSession& s) {
      done = true;
      state = s.state();
    });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(state, core::GlobalSnapshotState::kPartial);
}

TEST(GridSnapshots, EveryMemberCanInitiate) {
  GridBed bed{snapGrid(13)};
  bed.driver->start(5 * kMicrosPerSecond);
  std::vector<bool> complete(bed.cluster.memberCount(), false);
  for (size_t m = 0; m < bed.cluster.memberCount(); ++m) {
    bed.cluster.env().scheduleAt(
        (2 + m) * kMicrosPerSecond, [&bed, &complete, m] {
          bed.cluster.member(m).initiateSnapshotNow(
              [&complete, m](const core::SnapshotSession& s) {
                complete[m] =
                    s.state() == core::GlobalSnapshotState::kComplete;
              });
        });
  }
  bed.cluster.env().run();
  for (size_t m = 0; m < complete.size(); ++m) {
    EXPECT_TRUE(complete[m]) << "initiator " << m;
  }
}

TEST(GridSnapshots, OverlappingSnapshotsBothCorrect) {
  GridConfig cfg = snapGrid(21);
  cfg.member.copyMicrosPerEntry = 10.0;  // slow enough to overlap
  GridBed bed{cfg};
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId id1 = 0;
  core::SnapshotId id2 = 0;
  hlc::Timestamp t1;
  hlc::Timestamp t2;
  bool done1 = false;
  bool done2 = false;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    auto& a = bed.cluster.member(0);
    t1 = a.retroscope().timeTick();
    id1 = a.initiateSnapshot(t1, [&](const core::SnapshotSession& s) {
      done1 = s.state() == core::GlobalSnapshotState::kComplete;
    });
  });
  // Second snapshot from a different member, 50 ms later — overlapping.
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond + 50'000, [&] {
    auto& b = bed.cluster.member(1);
    t2 = b.retroscope().timeTick();
    id2 = b.initiateSnapshot(t2, [&](const core::SnapshotSession& s) {
      done2 = s.state() == core::GlobalSnapshotState::kComplete;
    });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done1);
  ASSERT_TRUE(done2);
  bed.verify(id1, t1);
  bed.verify(id2, t2);
}

TEST(GridSnapshots, SnapshotBytesAccounted) {
  GridBed bed{snapGrid(15)};
  bed.driver->start(3 * kMicrosPerSecond);
  size_t persisted = 0;
  bool done = false;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    bed.cluster.member(0).initiateSnapshotNow(
        [&](const core::SnapshotSession& s) {
          done = true;
          persisted = s.totalPersistedBytes();
        });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done);
  // ~3000 items of ~60 bytes (+keys) spread over the members.
  EXPECT_GT(persisted, 3000u * 60);
}

// A member cut off by a partition never acks: the initiator re-sends the
// start request at each timeout, with no backoff added, until its
// attempts run out, then settles for a partial snapshot.
TEST(GridSnapshots, SilentMemberIsResentAtEachTimeoutThenPartial) {
  constexpr TimeMicros kTimeout = 200'000;
  constexpr TimeMicros kStart = kMicrosPerSecond;
  constexpr NodeId kSilent = 2;
  GridConfig cfg = snapGrid(17);
  cfg.heartbeats = false;  // only snapshot traffic reaches the wire
  cfg.member.snapshotRequestTimeoutMicros = kTimeout;
  cfg.member.snapshotMaxAttempts = 3;
  GridCluster cluster(cfg);
  cluster.preload(300, 60);
  cluster.network().isolate(kSilent);

  // Every message to the isolated member is blocked at send time, so the
  // blocked count is the number of start requests sent to it so far.
  std::vector<std::pair<TimeMicros, uint64_t>> probes;
  for (TimeMicros t = kStart - 1; t <= kStart + 3 * kTimeout + 1;
       t += kTimeout) {
    for (TimeMicros at : {t, t + 2}) {
      cluster.env().scheduleAt(at, [&cluster, &probes, at] {
        probes.emplace_back(at, cluster.network().messagesBlocked());
      });
    }
  }
  bool done = false;
  core::GlobalSnapshotState state{};
  std::optional<core::FailureReason> silentReason;
  uint64_t retries = 0;
  TimeMicros finishedAt = 0;
  cluster.env().scheduleAt(kStart, [&] {
    cluster.member(0).initiateSnapshotNow([&](const core::SnapshotSession& s) {
      done = true;
      state = s.state();
      if (const auto* p = s.findParticipant(kSilent)) silentReason = p->reason;
      retries = s.totalRetries();
      finishedAt = s.finishedAt();
    });
  });
  cluster.env().run();

  // Sends at kStart, kStart + T and kStart + 2T; none after.
  const std::vector<std::pair<TimeMicros, uint64_t>> expected = {
      {kStart - 1, 0},
      {kStart + 1, 1},
      {kStart + kTimeout - 1, 1},
      {kStart + kTimeout + 1, 2},
      {kStart + 2 * kTimeout - 1, 2},
      {kStart + 2 * kTimeout + 1, 3},
      {kStart + 3 * kTimeout - 1, 3},
      {kStart + 3 * kTimeout + 1, 3},
  };
  EXPECT_EQ(probes, expected);
  ASSERT_TRUE(done);
  EXPECT_EQ(state, core::GlobalSnapshotState::kPartial);
  EXPECT_EQ(silentReason, core::FailureReason::kTimedOut);
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(finishedAt, kStart + 3 * kTimeout);
}

}  // namespace
}  // namespace retro::grid
