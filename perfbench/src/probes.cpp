#include "src/probes.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "core/temporal_query.hpp"
#include "runtime/datagram.hpp"
#include "src/benchlib.hpp"

namespace perfbench {

using retro::runtime::Message;
using SteadyClock = std::chrono::steady_clock;

namespace {

double microsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}

/// Median over `repeats` timings of fn(), microseconds.
template <typename Fn>
double medianMicros(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = SteadyClock::now();
    fn();
    t.push_back(microsSince(t0));
  }
  return median(t);
}

}  // namespace

void armWakeGuard(retro::runtime::RealtimeContext& ctx, retro::NodeId node) {
  ctx.schedule(node, 2'000, [&ctx, node] { armWakeGuard(ctx, node); });
}

double handoffP50Us(int roundTrips) {
  constexpr int kWarmup = 100;
  retro::runtime::RealtimeContext ctx;
  std::vector<double> rtt;
  rtt.reserve(static_cast<size_t>(roundTrips + kWarmup));
  std::atomic<bool> done{false};
  SteadyClock::time_point sentAt;
  ctx.registerNode(0, [&](Message&&) {
    rtt.push_back(microsSince(sentAt));
    if (static_cast<int>(rtt.size()) >= roundTrips + kWarmup) {
      done.store(true, std::memory_order_release);
      return;
    }
    sentAt = SteadyClock::now();
    ctx.send(Message{0, 1, 1, {}, 0});
  });
  ctx.registerNode(1, [&](Message&&) { ctx.send(Message{1, 0, 1, {}, 0}); });
  ctx.start();
  ctx.post(0, [&] {
    sentAt = SteadyClock::now();
    ctx.send(Message{0, 1, 1, {}, 0});
  });
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  armWakeGuard(ctx, 0);
  armWakeGuard(ctx, 1);
  ctx.stop();
  rtt.erase(rtt.begin(), rtt.begin() + kWarmup);
  return median(rtt) / 2;
}

CodecTiming codecTiming(const std::vector<Message>& mix) {
  using namespace retro::runtime;
  constexpr int kBatches = 7;
  const int perBatch = std::max<int>(1, 20000 / static_cast<int>(mix.size()));
  std::vector<std::string> frames;
  size_t sink = 0;
  const double encodeBatch = medianMicros(kBatches, [&] {
    frames.clear();
    uint64_t seq = 1;
    for (int r = 0; r < perBatch; ++r) {
      for (const Message& m : mix) {
        Datagram d;
        d.from = m.from;
        d.to = m.to;
        d.seq = seq;
        d.fragUid = seq++;
        d.chunk = encodeMessageBody(m);
        frames.push_back(encodeDatagram(d));
      }
    }
  });
  const double decodeBatch = medianMicros(kBatches, [&] {
    for (const std::string& f : frames) {
      auto d = decodeDatagram(f);
      if (!d) continue;
      auto m = decodeMessageBody(d->from, d->to, d->chunk);
      if (m) sink += m->payload.size();
    }
  });
  if (sink == 0) return {};  // nothing decoded: the codec is broken
  const double n = static_cast<double>(perBatch) * static_cast<double>(mix.size());
  return CodecTiming{encodeBatch / n, decodeBatch / n};
}

double diffToPastMs(const retro::log::WindowLog& log,
                    std::span<const int64_t> deltasMillis) {
  if (log.empty()) return 0;
  std::vector<double> ms;
  for (int64_t delta : deltasMillis) {
    const auto target =
        retro::hlc::fromPhysicalMillis(log.latest().l - delta);
    if (!log.covers(target)) continue;
    ms.push_back(medianMicros(5, [&] { (void)log.diffToPast(target); }) / 1e3);
  }
  return median(ms);
}

double appendNs(const retro::log::WindowLog& log) {
  std::vector<retro::log::Entry> entries;
  entries.reserve(log.entryCount());
  log.forEach([&](const retro::log::Entry& e) { entries.push_back(e); });
  if (entries.empty()) return 0;
  const double us = medianMicros(3, [&] {
    retro::log::WindowLog fresh(log.config());
    for (const auto& e : entries) fresh.append(e);
  });
  return us * 1e3 / static_cast<double>(entries.size());
}

double queryReplayMs(const std::string& queryText,
                     const std::unordered_map<retro::Key, retro::Value>& state,
                     const retro::log::WindowLog& log) {
  auto query = retro::core::SnapshotQuery::parse(queryText);
  if (!query.isOk()) return -1;
  if (!retro::core::evalOverLog(query.value(), state, log).isOk()) return -1;
  return medianMicros(5, [&] {
           (void)retro::core::evalOverLog(query.value(), state, log);
         }) /
         1e3;
}

}  // namespace perfbench
