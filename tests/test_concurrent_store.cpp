// Tests for the sharded ConcurrentWindowStore: single-threaded prefix
// oracle for stateAt(), window-floor behavior, and a multi-writer stress
// run that validates mid-flight retrospective cuts against per-thread
// write journals.  The stress half is a standing TSan target in CI.
#include "runtime/concurrent_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "runtime/deadline.hpp"
#include "testing/fuzz.hpp"

namespace retro::runtime {
namespace {

struct MillisSource {
  std::atomic<int64_t> now{1'000};
  int64_t operator()() const { return now.load(std::memory_order_relaxed); }
};

ConcurrentWindowStore makeStore(MillisSource& millis, size_t shards = 8) {
  ConcurrentStoreConfig cfg;
  cfg.shards = shards;
  return ConcurrentWindowStore(cfg, [&millis] { return millis(); });
}

TEST(ConcurrentWindowStore, BasicPutGetRemove) {
  MillisSource millis;
  auto store = makeStore(millis);
  EXPECT_EQ(store.itemCount(), 0u);
  EXPECT_FALSE(store.get("a").has_value());

  const hlc::Timestamp t1 = store.put("a", "1");
  const hlc::Timestamp t2 = store.put("b", "2");
  EXPECT_LT(t1, t2);
  EXPECT_EQ(store.get("a"), OptValue("1"));
  EXPECT_EQ(store.get("b"), OptValue("2"));
  EXPECT_EQ(store.itemCount(), 2u);
  EXPECT_EQ(store.puts(), 2u);

  const hlc::Timestamp t3 = store.remove("a");
  EXPECT_LT(t2, t3);
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_EQ(store.itemCount(), 1u);
  EXPECT_EQ(store.currentState(),
            (std::unordered_map<Key, Value>{{"b", "2"}}));
}

TEST(ConcurrentWindowStore, StateAtMatchesPrefixOracle) {
  MillisSource millis;
  auto store = makeStore(millis);
  SplitMix64 rng(42);

  // Apply a random single-threaded history, remembering the exact state
  // after each operation alongside the operation's timestamp.
  struct Step {
    hlc::Timestamp ts;
    std::unordered_map<Key, Value> state;
  };
  std::vector<Step> steps;
  std::unordered_map<Key, Value> oracle;
  for (int i = 0; i < 400; ++i) {
    const uint64_t draw = rng.next();
    if (draw % 16 == 0) millis.now.fetch_add(1 + draw % 3);
    const Key key = "k" + std::to_string(draw % 23);
    hlc::Timestamp ts;
    if (draw % 5 == 0 && oracle.count(key)) {
      ts = store.remove(key);
      oracle.erase(key);
    } else {
      Value value = std::to_string(i);
      ts = store.put(key, value);
      oracle[key] = value;
    }
    steps.push_back({ts, oracle});
  }

  // Every prefix is reconstructible: stateAt(ts_i) == state after op i
  // (timestamps are unique, so ts_i < ts_{i+1} selects exactly prefix i).
  for (size_t i = 0; i < steps.size(); i += 7) {
    auto cut = store.stateAt(steps[i].ts);
    ASSERT_TRUE(cut.isOk()) << "step " << i;
    EXPECT_EQ(cut.value(), steps[i].state) << "step " << i;
  }
  // A cut in the future of every event is the current state.
  hlc::Timestamp future = steps.back().ts;
  future.l += 1'000;
  auto cut = store.stateAt(future);
  ASSERT_TRUE(cut.isOk());
  EXPECT_EQ(cut.value(), store.currentState());
  EXPECT_EQ(cut.value(), oracle);
}

TEST(ConcurrentWindowStore, StateAtFailsBeyondWindowFloor) {
  MillisSource millis;
  ConcurrentStoreConfig cfg;
  cfg.shards = 1;  // one shard so the retention limit is easy to hit
  cfg.logConfig.maxEntries = 4;
  ConcurrentWindowStore store(cfg, [&millis] { return millis(); });

  const hlc::Timestamp early = store.put("k", "0");
  for (int i = 1; i <= 32; ++i) {
    millis.now.fetch_add(1);
    store.put("k", std::to_string(i));
  }
  EXPECT_GT(store.floor(), early);
  EXPECT_FALSE(store.stateAt(early).isOk());
  // Targets inside the retained window are still answerable.
  EXPECT_TRUE(store.stateAt(store.hlcNow()).isOk());
}

TEST(ConcurrentWindowStore, MergeAdvancesSharedClock) {
  MillisSource millis;
  auto store = makeStore(millis);
  store.put("a", "1");
  hlc::Timestamp remote;
  remote.l = 999'999;
  remote.c = 5;
  const hlc::Timestamp merged = store.merge(remote);
  EXPECT_GT(merged, remote);
  // The next put anywhere (any shard) is causally after the merge.
  EXPECT_GT(store.put("zzz", "2"), merged);
}

// The heart of the realtime story: many writer threads hammer disjoint
// key ranges through the shared store while the main thread takes
// retrospective cuts mid-flight.  Afterwards every cut is audited
// against the writers' journals: for each key, the value visible in the
// cut at T must be the journal entry with the greatest timestamp <= T.
TEST(ConcurrentWindowStoreStress, MidFlightCutsMatchJournals) {
  const int threadCount = 4;
  const int writesPerThread = 3'000;
  const int keysPerThread = 17;
  MillisSource millis;
  auto store = makeStore(millis, 8);

  struct JournalEntry {
    Key key;
    Value value;
    hlc::Timestamp ts;
  };
  std::vector<std::vector<JournalEntry>> journals(threadCount);
  std::atomic<bool> go{false};
  std::atomic<int> done{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < threadCount; ++t) {
    writers.emplace_back([&, t] {
      SplitMix64 rng(1'000 + t);
      auto& journal = journals[t];
      journal.reserve(writesPerThread);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < writesPerThread; ++i) {
        const uint64_t draw = rng.next();
        if (draw % 32 == 0) millis.now.fetch_add(1);
        Key key = "t" + std::to_string(t) + "-k" +
                  std::to_string(draw % keysPerThread);
        Value value = std::to_string(t * 1'000'000 + i);
        const hlc::Timestamp ts = store.put(key, value);
        journal.push_back({std::move(key), std::move(value), ts});
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  // Sample cuts while writers are running.  Each cut targets the HLC
  // value current *before* the stateAt call, which the store documents
  // as a consistent-cut-safe target.  Writers may be scheduled late, so
  // cutting goes on until a cut is sure to see a write (a put finished
  // before its target was read), under a deadline; of the cuts taken
  // before any write only the last is kept.
  std::vector<std::pair<hlc::Timestamp, std::unordered_map<Key, Value>>> cuts;
  bool cutSawWrite = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(realtimeDeadlineMicros());
  go.store(true, std::memory_order_release);
  while (done.load(std::memory_order_acquire) < threadCount || !cutSawWrite) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no cut saw a write";
    if (cuts.size() < 64 || !cutSawWrite) {  // bound the audit cost
      const bool afterWrite = store.puts() > 0;
      const hlc::Timestamp target = store.hlcNow();
      auto cut = store.stateAt(target);
      ASSERT_TRUE(cut.isOk());  // unbounded window: never out of range
      if (!afterWrite) cuts.clear();
      cuts.emplace_back(target, std::move(cut).value());
      cutSawWrite = cutSawWrite || afterWrite;
    }
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();

  // One more cut after quiescence must equal the live state.
  auto finalCut = store.stateAt(store.hlcNow());
  ASSERT_TRUE(finalCut.isOk());
  EXPECT_EQ(finalCut.value(), store.currentState());
  EXPECT_EQ(store.puts(),
            static_cast<uint64_t>(threadCount) * writesPerThread);

  // Audit every mid-flight cut against the journals.
  size_t audited = 0;
  for (const auto& [target, state] : cuts) {
    for (int t = 0; t < threadCount; ++t) {
      // Last journal write to each key at or before the cut target.
      std::unordered_map<Key, const JournalEntry*> expected;
      for (const auto& entry : journals[t]) {
        if (entry.ts <= target) expected[entry.key] = &entry;
      }
      for (const auto& [key, entry] : expected) {
        auto it = state.find(key);
        ASSERT_NE(it, state.end())
            << "cut at " << target.l << "." << target.c << " missing " << key;
        ASSERT_EQ(it->second, entry->value)
            << "cut at " << target.l << "." << target.c << " key " << key;
        ++audited;
      }
      // And nothing from this thread's range appears before its first
      // write at or before the target.
      if (expected.empty()) {
        for (int k = 0; k < keysPerThread; ++k) {
          const Key key = "t" + std::to_string(t) + "-k" + std::to_string(k);
          ASSERT_EQ(state.count(key), 0u);
        }
      }
    }
  }
  EXPECT_GT(audited, 0u);
  EXPECT_FALSE(cuts.empty());
}

// Concurrent writers + remote merges: the shared clock's global tick
// count must equal puts + merges (no tick lost to a CAS race), and cuts
// taken at the very end see every write.
TEST(ConcurrentWindowStoreStress, TickAccountingUnderContention) {
  const int threadCount = 4;
  const int opsPerThread = 2'000;
  MillisSource millis;
  auto store = makeStore(millis, 4);

  std::vector<int> lastPut(threadCount, -1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threadCount; ++t) {
    workers.emplace_back([&, t] {
      SplitMix64 rng(7'000 + t);
      for (int i = 0; i < opsPerThread; ++i) {
        const uint64_t draw = rng.next();
        if (draw % 64 == 0) millis.now.fetch_add(1);
        if (draw % 3 == 0) {
          hlc::Timestamp remote;
          remote.l = millis() + static_cast<int64_t>(draw % 3);
          remote.c = static_cast<uint32_t>(draw % 4);
          store.merge(remote);
        } else {
          store.put("t" + std::to_string(t), std::to_string(i));
          lastPut[t] = i;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(store.clock().ticks(),
            static_cast<uint64_t>(threadCount) * opsPerThread);
  EXPECT_EQ(store.itemCount(), static_cast<size_t>(threadCount));
  for (int t = 0; t < threadCount; ++t) {
    ASSERT_GE(lastPut[t], 0);
    EXPECT_EQ(store.get("t" + std::to_string(t)),
              OptValue(std::to_string(lastPut[t])))
        << "thread " << t;
  }
}

}  // namespace
}  // namespace retro::runtime
