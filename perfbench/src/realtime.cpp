// The two realtime workloads, kv_udp and kv_snapshot: a three-server
// RealtimeKvCluster with every simulator cost model set to zero, one
// client node running an open-loop Poisson load on its own worker, and
// (kv_snapshot) the admin node taking retrospective snapshots and
// temporal queries on a fixed cadence alongside it.
//
// Phases: set-up (repeated on kv_udp, median reported), warmup, a
// fixed-rate phase for latency, then a stepped-rate search for the highest
// rate whose p99 meets the limit.  Afterwards the cluster is stopped and
// the outputs are checked: fresh reads on kv_udp, snapshots and query answers against
// log::NaiveWindowLog reconstructions on kv_snapshot.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/temporal_query.hpp"
#include "kvstore/messages.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "log/naive_window_log.hpp"
#include "src/benchlib.hpp"
#include "src/probes.hpp"
#include "src/tracer.hpp"
#include "src/workloads.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using namespace retro;
using SteadyClock = std::chrono::steady_clock;

/// Completed snapshots each server keeps; older ones are removed so
/// memory tracks the window-log, while the newest stay for the checks.
constexpr size_t kKeepSnapshots = 2;
/// Queries whose answers are checked after the run.
constexpr size_t kCheckQueries = 2;

double secondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Poll `cond` every 2 ms until it holds or `seconds` pass.
template <typename Cond>
bool waitFor(Cond&& cond, double seconds) {
  const auto t0 = SteadyClock::now();
  while (!cond()) {
    if (secondsSince(t0) > seconds) return cond();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Put values carry their sequence number, zero-padded to the value size
/// (numeric, so temporal SUM queries aggregate them).  Preloaded values
/// are all 'v' and count as sequence 0.
Value encodeValue(uint64_t seq, size_t bytes) {
  std::string s = std::to_string(seq);
  return s.size() >= bytes ? s : std::string(bytes - s.size(), '0') + s;
}

uint64_t decodeSeq(const OptValue& v) {
  if (!v || v->empty() || (*v)[0] == 'v') return 0;
  uint64_t seq = 0;
  std::from_chars(v->data(), v->data() + v->size(), seq);
  return seq;
}

kv::RealtimeClusterConfig clusterConfig(const Options& opt) {
  kv::RealtimeClusterConfig cfg;
  cfg.servers = 3;
  cfg.clients = 1;
  cfg.seed = opt.seed;
  cfg.transport = opt.w.udp ? kv::TransportKind::kUdpLoopback
                            : kv::TransportKind::kInProcess;
  cfg.client.replicas = 2;
  cfg.client.requiredWrites = 2;
  cfg.client.requiredReads = 1;
  cfg.client.opTimeoutMicros = 2'000'000;
  cfg.client.maxRetries = 1;
  cfg.admin.requestTimeoutMicros = 2'000'000;
  cfg.admin.queryTimeoutMicros = 5'000'000;

  // Measure the program, not the simulator's cost models.
  kv::ServerConfig& s = cfg.server;
  s.putServiceMicros = 0;
  s.getServiceMicros = 0;
  s.logAppendMicros = 0;
  s.logGcCouplingMicros = 0;
  s.copyCpuMicrosPerMB = 0;
  s.compactionMicrosPerEntry = 0;
  s.applyMicrosPerEntry = 0;
  s.indexProbeMicros = 0;
  s.integrity.checksumMicrosPerMB = 0;
  s.recovery.replayMicrosPerEntry = 0;
  s.archive.archivedEntryReadMicros = 0;
  s.disk = sim::DiskConfig{.readMBps = 1e9, .writeMBps = 1e9, .seekMicros = 0};
  if (opt.w.logMaxAgeMillis > 0) {
    s.logConfig.maxBytes = 0;
    s.logConfig.maxAgeMillis = opt.w.logMaxAgeMillis;
  }
  return cfg;
}

workload::WorkloadConfig keyConfig(const Options& opt) {
  workload::WorkloadConfig w;
  w.writeFraction = opt.w.putFraction;
  w.keySpace = opt.w.preloadKeys;
  w.valueBytes = kValueBytes;
  w.distribution = opt.w.zipfian ? workload::KeyDistribution::kZipfian
                                 : workload::KeyDistribution::kUniform;
  return w;
}

/// Stops the cluster's threads.  Every node first gets a short periodic
/// no-op timer: see armWakeGuard() for the hang this avoids.
void stopCluster(kv::RealtimeKvCluster& c) {
  armWakeGuard(c.context(), c.clientId(0));
  armWakeGuard(c.context(), c.adminId());
  for (size_t i = 0; i < c.serverCount(); ++i) {
    armWakeGuard(c.context(), c.serverId(i));
  }
  c.stop();
}

/// Runs `fn` on `node`'s own thread and waits for it.
bool onNode(kv::RealtimeKvCluster& c, NodeId node, std::function<void()> fn) {
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  c.context().post(node, [fn = std::move(fn), done] {
    fn();
    done->set_value();
  });
  return fut.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
}

// ---------------------------------------------------------------------------
// Load generator: owned by the client node's thread while a phase runs.
// ---------------------------------------------------------------------------

class LoadDriver {
 public:
  LoadDriver(kv::RealtimeKvCluster& cluster, const Options& opt,
             Tracer* tracer, SpanTrack* track)
      : cluster_(cluster),
        gen_(clock_, opt.seed * 0x9E3779B97F4A7C15ULL + 1),
        keys_(keyConfig(opt), Rng(opt.seed)),
        tracer_(tracer),
        track_(track) {}

  /// Run one phase at `rate` for `seconds` and wait until every request
  /// has completed.  With `traceOddWindows`, requests due in odd seconds
  /// of the phase are traced and even seconds are not, so one run gives
  /// both sides of the tracing overhead.  Returns false if the phase did
  /// not drain; its records must then not be read until the cluster stops.
  bool runPhase(double rate, double seconds, bool traceOddWindows) {
    done_.store(false, std::memory_order_relaxed);
    const auto nanos = static_cast<int64_t>(seconds * 1e9);
    cluster_.context().post(cluster_.clientId(0),
                            [this, rate, nanos, traceOddWindows] {
                              gen_.startPhase(rate, nanos);
                              traceOdd_ = traceOddWindows && tracer_;
                              tick();
                            });
    return waitFor([this] { return done_.load(std::memory_order_acquire); },
                   seconds + 20);
  }

  const OpenLoopGenerator& gen() const { return gen_; }
  uint64_t staleReads() const { return staleReads_; }
  uint64_t getsChecked() const { return getsChecked_; }

 private:
  bool tracedWindow(int64_t at) const {
    return traceOdd_ && ((at - gen_.phaseStart()) / 1'000'000'000) % 2 == 1;
  }

  void tick() {
    const int64_t now = clock_.nowNanos();
    const bool traced = tracedWindow(now);
    const uint64_t tickId = traced ? tracer_->nextId() : 0;
    const double t0 = traced ? tracer_->nowUs() : 0;
    const int64_t wait =
        gen_.tick([&](size_t i, OpRecord& rec) { issue(i, rec, tickId); });
    if (traced) {
      tracer_->record(*track_, "loadgen.tick", t0, tracer_->nowUs(), 0, tickId);
    }
    if (wait >= 0) {
      cluster_.context().schedule(cluster_.clientId(0), (wait + 999) / 1000,
                                  [this] { tick(); });
    } else {
      maybeFinish();
    }
  }

  void issue(size_t i, OpRecord& rec, uint64_t parent) {
    const workload::Op op = keys_.next();
    rec.isPut = op.isWrite;
    const Key key = kv::RealtimeKvCluster::keyOf(op.keyIndex);
    const bool traced = traceOdd_ && rec.window % 2 == 1;
    const double t0 = traced ? tracer_->nowUs() : 0;
    kv::VoldemortClient& client = cluster_.client(0);
    if (op.isWrite) {
      const uint64_t seq = ++putSeq_;
      client.put(key, encodeValue(seq, kValueBytes),
                 [this, i, k = op.keyIndex, seq, traced, t0, parent](
                     bool ok, TimeMicros) {
                   if (traced) {
                     tracer_->record(*track_, "client.put", t0,
                                     tracer_->nowUs(), parent);
                   }
                   if (ok) {
                     uint64_t& acked = ackedSeq_[k];
                     acked = std::max(acked, seq);
                   }
                   finish(i, ok);
                 });
    } else {
      // R + W > N: the read must see at least the newest put acked
      // before it was issued.
      const auto it = ackedSeq_.find(op.keyIndex);
      const uint64_t required = it == ackedSeq_.end() ? 0 : it->second;
      client.get(key, [this, i, required, traced, t0, parent](
                          bool ok, TimeMicros, OptValue value) {
        if (traced) {
          tracer_->record(*track_, "client.get", t0, tracer_->nowUs(),
                          parent);
        }
        if (ok) {
          ++getsChecked_;
          if (decodeSeq(value) < required) ++staleReads_;
        }
        finish(i, ok);
      });
    }
  }

  void finish(size_t i, bool ok) {
    gen_.complete(i, ok);
    maybeFinish();
  }

  void maybeFinish() {
    if (gen_.arrivalsDone() && gen_.inFlight() == 0) {
      done_.store(true, std::memory_order_release);
    }
  }

  kv::RealtimeKvCluster& cluster_;
  SteadyNanosClock clock_;
  OpenLoopGenerator gen_;
  workload::OpGenerator keys_;
  Tracer* tracer_;
  SpanTrack* track_;
  bool traceOdd_ = false;
  uint64_t putSeq_ = 0;
  std::unordered_map<uint64_t, uint64_t> ackedSeq_;
  uint64_t staleReads_ = 0;
  uint64_t getsChecked_ = 0;
  std::atomic<bool> done_{true};
};

// ---------------------------------------------------------------------------
// Admin cadence: retrospective snapshots and temporal queries on the
// admin node's thread; completed snapshots are pruned on their servers.
// ---------------------------------------------------------------------------

class AdminCadence {
 public:
  struct SnapshotRec {
    int64_t start = 0;
    int64_t end = -1;
    bool complete = false;
  };
  struct QueryRec {
    int64_t start = 0;
    int64_t end = -1;
    bool ok = false;
    std::string text;
    core::TemporalQueryResult result;
  };
  /// Per-server retention state, touched only on that server's thread.
  struct Retained {
    std::deque<core::SnapshotId> ids;
    uint64_t bytes = 0;
    uint64_t count = 0;
  };

  AdminCadence(kv::RealtimeKvCluster& cluster, const Options& opt,
               Tracer* tracer, SpanTrack* track)
      : cluster_(cluster),
        opt_(opt),
        tracer_(tracer),
        track_(track),
        retained_(cluster.serverCount()) {}

  /// Snapshots start on the cadence and queries half a period later, so
  /// the two rarely queue behind each other on the servers.
  void setEnabled(bool on) {
    cluster_.context().post(cluster_.adminId(), [this, on] {
      enabled_ = on;
      if (!on) return;
      const uint64_t generation = ++generation_;
      tick(generation, &AdminCadence::issueSnapshot, &snapshotOutstanding_);
      cluster_.context().schedule(
          cluster_.adminId(), opt_.w.cadenceMillis * kMicrosPerMilli / 2,
          [this, generation] {
            tick(generation, &AdminCadence::issueQuery, &queryOutstanding_);
          });
    });
  }

  /// Snapshots or queries issued and not yet answered.
  int outstanding() const { return outstanding_.load(std::memory_order_acquire); }

  // Read only after the cluster stopped.
  const std::vector<SnapshotRec>& snapshots() const { return snaps_; }
  const std::vector<QueryRec>& queries() const { return queries_; }
  const std::vector<Retained>& retained() const { return retained_; }

 private:
  int64_t now() const { return clock_.nowNanos(); }

  /// Issue through `issue` unless the previous one is still running, and
  /// re-arm for the next period.
  void tick(uint64_t generation, void (AdminCadence::*issue)(),
            const bool* outstanding) {
    if (!enabled_ || generation != generation_) return;
    if (!*outstanding) (this->*issue)();
    cluster_.context().schedule(
        cluster_.adminId(), opt_.w.cadenceMillis * kMicrosPerMilli,
        [this, generation, issue, outstanding] {
          tick(generation, issue, outstanding);
        });
  }

  void issueSnapshot() {
    const int64_t delta =
        opt_.w.snapshotDeltasMillis[deltaIndex_++ % opt_.w.snapshotDeltasMillis.size()];
    const size_t idx = snaps_.size();
    snaps_.push_back(SnapshotRec{now()});
    snapshotOutstanding_ = true;
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    const double t0 = tracer_ ? tracer_->nowUs() : 0;
    cluster_.admin().snapshotPast(
        delta, [this, idx, t0](const core::SnapshotSession& session) {
          if (tracer_) {
            tracer_->record(*track_, "admin.snapshot", t0, tracer_->nowUs());
          }
          snaps_[idx].end = now();
          snaps_[idx].complete =
              session.state() == core::GlobalSnapshotState::kComplete;
          retainOnServers(session.request().id);
          snapshotOutstanding_ = false;
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        });
  }

  void retainOnServers(core::SnapshotId id) {
    for (size_t s = 0; s < cluster_.serverCount(); ++s) {
      cluster_.context().post(cluster_.serverId(s), [this, s, id] {
        core::SnapshotStore& store = cluster_.server(s).snapshots();
        const core::LocalSnapshot* snap = store.find(id);
        if (snap == nullptr) return;
        Retained& r = retained_[s];
        r.bytes += snap->persistedBytes;
        ++r.count;
        r.ids.push_back(id);
        while (r.ids.size() > kKeepSnapshots) {
          (void)store.remove(r.ids.front());
          r.ids.pop_front();
        }
      });
    }
  }

  void issueQuery() {
    const int64_t t2 =
        cluster_.clockAt(cluster_.adminId()).nowMillis() - opt_.w.queryStepMillis;
    const int64_t t1 = t2 - opt_.w.queryWindowMillis;
    char text[160];
    std::snprintf(text, sizeof(text),
                  "SUM WHERE value >= 0 OVER [%lld, %lld] STEP %lld",
                  static_cast<long long>(t1), static_cast<long long>(t2),
                  static_cast<long long>(opt_.w.queryStepMillis));
    const size_t idx = queries_.size();
    queries_.push_back(QueryRec{now(), -1, false, text, {}});
    queryOutstanding_ = true;
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    const double t0 = tracer_ ? tracer_->nowUs() : 0;
    cluster_.admin().doQuery(text, [this, idx, t0](const kv::QueryOutcome& o) {
      if (tracer_) {
        tracer_->record(*track_, "admin.query", t0, tracer_->nowUs());
      }
      QueryRec& q = queries_[idx];
      q.end = now();
      q.ok = o.status.isOk();
      if (q.ok) q.result = o.result;
      queryOutstanding_ = false;
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  kv::RealtimeKvCluster& cluster_;
  const Options& opt_;
  Tracer* tracer_;
  SpanTrack* track_;
  SteadyNanosClock clock_;
  bool enabled_ = false;
  uint64_t generation_ = 0;
  size_t deltaIndex_ = 0;
  bool snapshotOutstanding_ = false;
  bool queryOutstanding_ = false;
  std::atomic<int> outstanding_{0};
  std::vector<SnapshotRec> snaps_;
  std::vector<QueryRec> queries_;
  std::vector<Retained> retained_;
};

// ---------------------------------------------------------------------------
// Counters read at the fixed-rate phase's edges.
// ---------------------------------------------------------------------------

struct CounterSnap {
  uint64_t delivered = 0, drains = 0, bytes = 0;
  uint64_t datagrams = 0, acks = 0, retransmits = 0, backlogged = 0;
  uint64_t serverPuts = 0;
  double cpu = 0;
};

CounterSnap readCounters(kv::RealtimeKvCluster& c) {
  CounterSnap s;
  s.cpu = cpuSeconds();
  runtime::RealtimeContext& ctx = c.context();
  s.delivered = ctx.messagesDelivered();
  s.drains = ctx.drains();
  s.bytes = ctx.bytesSent();
  if (runtime::UdpContext* udp = c.udpTransport()) {
    const Counters k = udp->counters();
    s.datagrams = k.get("udp.datagrams_sent");
    s.acks = k.get("udp.acks_sent");
    s.retransmits = k.get("udp.retransmits");
    s.backlogged = k.get("udp.backlogged");
  }
  // Shared, not a reference to `s`: a node that misses onNode's deadline
  // may still run the closure after this function returned.
  auto puts = std::make_shared<std::atomic<uint64_t>>(0);
  for (size_t i = 0; i < c.serverCount(); ++i) {
    onNode(c, c.serverId(i),
           [&c, puts, i] { puts->fetch_add(c.server(i).putsProcessed()); });
  }
  s.serverPuts = puts->load();
  return s;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Due-time latencies (µs) of completed requests matching `pred`.
template <typename Pred>
std::vector<double> latencies(const std::vector<OpRecord>& ops, Pred&& pred) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.done >= 0 && op.ok && pred(op)) out.push_back(op.latencyUs());
  }
  return out;
}

StepOutcome analyzeStep(const OpenLoopGenerator& gen) {
  StepOutcome s;
  s.rate = gen.rate();
  s.attempted = gen.ops().size();
  std::vector<double> lat, lag;
  for (const OpRecord& op : gen.ops()) {
    if (op.done < 0) {
      ++s.incomplete;
    } else if (!op.ok) {
      ++s.failed;
    } else {
      lat.push_back(op.latencyUs());
    }
    lag.push_back(op.lagUs());
  }
  s.latencyP99 = percentile(lat, 0.99);
  s.lagP99 = percentile(lag, 0.99);
  s.inFlightMax = gen.inFlightMax();
  return s;
}

// ---------------------------------------------------------------------------
// Output checks against the reference window-log.
// ---------------------------------------------------------------------------

struct ServerView {
  log::WindowLog* log = nullptr;
  const std::unordered_map<Key, Value>* state = nullptr;
  log::NaiveWindowLog naive;

  std::optional<std::unordered_map<Key, Value>> at(hlc::Timestamp t) const {
    if (!log->covers(t)) return std::nullopt;
    auto diff = naive.diffToPast(t);
    if (!diff.isOk()) return std::nullopt;
    std::unordered_map<Key, Value> out = *state;
    diff.value().applyTo(out);
    return out;
  }
};

std::vector<ServerView> stoppedServers(kv::RealtimeKvCluster& c) {
  std::vector<ServerView> out(c.serverCount());
  for (size_t i = 0; i < c.serverCount(); ++i) {
    kv::VoldemortServer& srv = c.server(i);
    out[i].log = &srv.retroscope().getLog(kv::VoldemortServer::kStoreLog);
    out[i].state = &srv.bdb().data();
    out[i].log->forEach([&](const log::Entry& e) { out[i].naive.append(e); });
  }
  return out;
}

void checkSnapshots(kv::RealtimeKvCluster& c,
                    const std::vector<ServerView>& views, Report& rep) {
  size_t verified = 0;
  for (size_t s = 0; s < views.size(); ++s) {
    core::SnapshotStore& store = c.server(s).snapshots();
    size_t here = 0;
    for (core::SnapshotId id : store.ids()) {
      const auto expected = views[s].at(store.find(id)->target);
      if (!expected) continue;
      auto got = store.materialize(id);
      rep.gate(got.isOk() && got.value() == *expected,
               "snapshot " + std::to_string(id) + " on server " +
                   std::to_string(s) +
                   " differs from the NaiveWindowLog reconstruction");
      ++here;
    }
    rep.gate(here > 0, "no retained snapshot on server " + std::to_string(s) +
                           " lies inside its window-log");
    verified += here;
  }
  rep.meta["snapshots_verified"] = std::to_string(verified);
}

void checkQueries(const std::vector<AdminCadence::QueryRec>& queries,
                  const std::vector<ServerView>& views, Report& rep) {
  size_t verified = 0;
  for (auto it = queries.rbegin();
       it != queries.rend() && verified < kCheckQueries; ++it) {
    if (!it->ok) continue;
    auto parsed = core::SnapshotQuery::parse(it->text);
    if (!parsed.isOk()) continue;
    const core::SnapshotQuery& q = parsed.value();
    const auto grid = core::temporalGrid(*q.temporal());
    bool match = it->result.series.size() == grid.size();
    bool covered = true;
    for (size_t g = 0; g < grid.size() && match && covered; ++g) {
      core::PartialAggregate merged;
      for (const ServerView& v : views) {
        const auto state = v.at(grid[g]);
        if (!state) {
          covered = false;
          break;
        }
        merged.merge(q.accumulate(*state));
      }
      match = covered && it->result.series[g].first == grid[g] &&
              it->result.series[g].second == merged.finalize(q.aggregate());
    }
    if (!covered) continue;
    rep.gate(match, "query '" + it->text +
                        "' differs from the NaiveWindowLog reconstruction");
    ++verified;
  }
  rep.gate(verified > 0, "no query answer could be checked");
  rep.meta["queries_verified"] = std::to_string(verified);
}

/// One sample of each message a put or get exchanges, in the workload's
/// put/get proportion: the message-size mix the UDP codec sees.
std::vector<runtime::Message> messageMix(const Options& opt) {
  const auto payload = [](auto&& body) {
    ByteWriter w;
    hlc::Timestamp{1'000'000, 1}.writeTo(w);
    body.writeTo(w);
    return w.take();
  };
  const Key key = kv::RealtimeKvCluster::keyOf(42);
  kv::VersionVector version;
  version.increment(3);
  std::vector<runtime::Message> mix;
  const int puts = static_cast<int>(opt.w.putFraction * 10 + 0.5);
  for (int i = 0; i < 10; ++i) {
    if (i < puts) {
      kv::PutRequestBody req{7, key, encodeValue(7, kValueBytes), version, 0};
      kv::PutResponseBody resp;
      resp.requestId = 7;
      for (NodeId server : {0u, 1u}) {
        mix.push_back({3, server, kv::kPutRequest, payload(req), 1});
        mix.push_back({server, 3, kv::kPutResponse, payload(resp), 2});
      }
    } else {
      kv::GetRequestBody req{7, key, 0};
      kv::GetResponseBody resp;
      resp.requestId = 7;
      resp.value = encodeValue(7, kValueBytes);
      resp.version = version;
      mix.push_back({3, 0, kv::kGetRequest, payload(req), 3});
      mix.push_back({0, 3, kv::kGetResponse, payload(resp), 4});
    }
  }
  return mix;
}

}  // namespace

Report runRealtime(const Options& opt) {
  Report rep;
  const bool snapshots = opt.w.cadenceMillis > 0;
  std::unique_ptr<Tracer> tracer;
  SpanTrack* clientTrack = nullptr;
  SpanTrack* adminTrack = nullptr;
  SpanTrack* mainTrack = nullptr;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>();
    clientTrack = &tracer->track("client node");
    adminTrack = &tracer->track("admin node");
    mainTrack = &tracer->track("benchmark");
  }

  // --- set-up, repeated; the last cluster is the one measured.
  // setup_s is the CPU time of the process (all threads) a set-up costs:
  // the wall time of the same set-ups varied between runs by more than the
  // bound on a shared host, and CPU time still shows work moved into it.
  // Half of the set-ups run here and half after the run, each starting
  // setupSpacingMillis after the one before, so the median spans the
  // host's load over seconds and not over one burst of it.
  std::vector<double> setups, setupWalls;
  SteadyClock::time_point lastSetup{};
  const auto setUp = [&] {
    std::this_thread::sleep_until(
        lastSetup + std::chrono::milliseconds(opt.w.setupSpacingMillis));
    const auto t0 = lastSetup = SteadyClock::now();
    const double cpu0 = cpuSeconds();
    ScopedSpan span(tracer.get(), mainTrack, "setup");
    auto built = std::make_unique<kv::RealtimeKvCluster>(clusterConfig(opt));
    built->preload(opt.w.preloadKeys, kValueBytes);
    built->start();
    setups.push_back(cpuSeconds() - cpu0);
    setupWalls.push_back(secondsSince(t0));
    return built;
  };
  std::unique_ptr<kv::RealtimeKvCluster> cluster;
  for (int r = 0; r < kSetupRepeats / 2 + 1; ++r) {
    if (cluster) stopCluster(*cluster);
    cluster.reset();
    cluster = setUp();
  }
  kv::RealtimeKvCluster& c = *cluster;

  LoadDriver load(c, opt, tracer.get(), clientTrack);
  AdminCadence cadence(c, opt, tracer.get(), adminTrack);
  if (snapshots) cadence.setEnabled(true);

  bool drained = true;
  {
    ScopedSpan span(tracer.get(), mainTrack, "phase.warmup");
    drained = load.runPhase(kFixedRate, opt.w.warmupSeconds, false);
  }

  // --- fixed-rate phase ---
  // At least two seconds: the traced run traces odd seconds only.
  const double fixedSeconds = std::max(2.0, std::floor(opt.seconds * 0.6));
  const CounterSnap before = readCounters(c);
  if (drained) {
    ScopedSpan span(tracer.get(), mainTrack, "phase.fixed_rate");
    drained = load.runPhase(kFixedRate, fixedSeconds, opt.trace);
  }
  const CounterSnap after = readCounters(c);
  // Peak memory through the fixed-rate phase: the rate search's higher
  // rates deepen the window-log by however far the search happens to get.
  const double peakRss = peakRssMb();
  const int64_t fixedStart = load.gen().phaseStart();
  const int64_t fixedEnd = SteadyNanosClock().nowNanos();
  std::vector<OpRecord> fixedOps;
  size_t fixedInFlightMax = 0;
  Tally tally;
  if (drained) {
    fixedOps = load.gen().ops();
    fixedInFlightMax = load.gen().inFlightMax();
    tallyOps(fixedOps, tally);
  }

  // --- stepped-rate search ---
  const auto steps = static_cast<size_t>(
      std::max(1.0, std::floor((opt.seconds - fixedSeconds) / kStepSeconds)));
  RateSearch search(opt.w.searchStart, kSearchFactor, steps);
  std::string stepLog;
  while (drained && !search.done()) {
    const double rate = search.nextRate();
    ScopedSpan span(tracer.get(), mainTrack, "phase.rate_step");
    drained = load.runPhase(rate, kStepSeconds, false);
    if (!drained) break;
    const StepOutcome so = analyzeStep(load.gen());
    const bool pass = stepPasses(so, opt.w.p99LimitUs);
    search.record(rate, pass);
    tallyOps(load.gen().ops(), tally);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%s(p99=%.0fus)",
                  stepLog.empty() ? "" : " ", rate, pass ? "pass" : "fail",
                  so.latencyP99.value);
    stepLog += buf;
  }

  // An age-bounded window-log returns to its fixed-rate depth before the
  // stop, so the checks and re-timings see the measured phase's log, not
  // however deep the search left it.
  if (drained && opt.w.logMaxAgeMillis > 0) {
    ScopedSpan span(tracer.get(), mainTrack, "phase.settle");
    drained = load.runPhase(kFixedRate,
                            static_cast<double>(opt.w.logMaxAgeMillis) / 1e3 + 0.5,
                            false);
    if (drained) tallyOps(load.gen().ops(), tally);
  }

  if (snapshots) cadence.setEnabled(false);
  waitFor([&] { return cadence.outstanding() == 0; }, 30);
  stopCluster(c);
  if (!drained) {
    // A phase that never drained: its requests count as failed.
    tally.add(load.gen().ops().size(), load.gen().ops().size());
    rep.meta["aborted"] = "a load phase did not drain within its budget";
  }

  // --- snapshots and queries of the measured phases ---
  std::vector<double> snapFixedMs, queryFixedMs;
  for (const auto& s : cadence.snapshots()) {
    if (s.start < fixedStart) continue;  // warmup
    tally.add(s.complete);
    if (s.end < 0) continue;
    const double ms = static_cast<double>(s.end - s.start) / 1e6;
    if (s.start < fixedEnd) snapFixedMs.push_back(ms);
  }
  for (const auto& q : cadence.queries()) {
    if (q.start < fixedStart) continue;
    tally.add(q.ok);
    if (q.end < 0) continue;
    const double ms = static_cast<double>(q.end - q.start) / 1e6;
    if (q.start < fixedEnd) queryFixedMs.push_back(ms);
  }

  // --- correctness gates ---
  if (opt.w.udp) {
    rep.gate(load.staleReads() == 0,
             std::to_string(load.staleReads()) +
                 " gets returned a value older than the last acked put");
    rep.gate(load.getsChecked() > 0, "no get completed");
    rep.meta["gets_checked"] = std::to_string(load.getsChecked());
  }
  std::vector<ServerView> views = stoppedServers(c);
  if (snapshots) {
    checkSnapshots(c, views, rep);
    checkQueries(cadence.queries(), views, rep);
  }

  // --- end-to-end metrics ---
  rep.attempted = tally.attempted;
  rep.failed = tally.failed;
  const auto isPut = [](const OpRecord& op) { return op.isPut; };
  const auto isGet = [](const OpRecord& op) { return !op.isPut; };
  std::vector<double> putLat = latencies(fixedOps, isPut);
  std::vector<double> getLat = latencies(fixedOps, isGet);
  const Percentile putP99 = percentile(putLat, 0.99);
  const Percentile getP99 = percentile(getLat, 0.99);
  const double putP50 = median(putLat);
  const double getP50 = median(getLat);
  const Percentile snapP90 = percentile(snapFixedMs, 0.90);
  const Percentile queryP90 = percentile(queryFixedMs, 0.90);
  const double fixedOpsN = static_cast<double>(fixedOps.size());

  // Wall-clock latencies and the rate search's result follow the host's
  // load (README, "Host noise"), so they are run metadata, not metrics.
  if (!opt.trace) {
    while (setups.size() < static_cast<size_t>(kSetupRepeats)) {
      stopCluster(*setUp());
    }
    rep.metric("setup_s", median(setups), "s");
    rep.metric("cpu_us_per_op", ratio((after.cpu - before.cpu) * 1e6, fixedOpsN),
               "us");
    rep.metric("peak_rss_mb", peakRss, "MB");
  }

  // --- run metadata ---
  const auto flag = [](const Percentile& p, double q) {
    return std::to_string(p.samples) + " samples, " +
           std::to_string(samplesBeyond(p.samples, q)) + " beyond" +
           (p.resolved ? "" : " (unresolved)");
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.0f", kFixedRate);
  rep.meta["offered_rate_ops_per_s"] = buf;
  rep.meta["fixed_phase_s"] = std::to_string(fixedSeconds);
  std::snprintf(buf, sizeof(buf), "%.0f", opt.w.p99LimitUs);
  rep.meta["p99_limit_us"] = buf;
  std::snprintf(buf, sizeof(buf), "p50 %.1f p99 %.1f", putP50, putP99.value);
  rep.meta["put_latency_us"] = buf + std::string("; p99 from ") + flag(putP99, 0.99);
  std::snprintf(buf, sizeof(buf), "p50 %.1f p99 %.1f", getP50, getP99.value);
  rep.meta["get_latency_us"] = buf + std::string("; p99 from ") + flag(getP99, 0.99);
  std::snprintf(buf, sizeof(buf), "%.0f", search.best());
  rep.meta["max_rate_ops_per_s"] = buf;
  rep.meta["rate_steps"] = stepLog;
  if (snapshots) {
    std::snprintf(buf, sizeof(buf), "p50 %.3f p90 %.3f", median(snapFixedMs),
                  snapP90.value);
    rep.meta["snapshot_latency_ms"] =
        buf + std::string("; p90 from ") + flag(snapP90, 0.90);
    std::snprintf(buf, sizeof(buf), "p50 %.3f p90 %.3f", median(queryFixedMs),
                  queryP90.value);
    rep.meta["query_latency_ms"] =
        buf + std::string("; p90 from ") + flag(queryP90, 0.90);
  }
  std::snprintf(buf, sizeof(buf), "CPU %.5f, wall %.5f (medians of %zu)",
                median(setups), median(setupWalls), setups.size());
  rep.meta["setup_s"] = buf;
  std::string depth;
  for (const ServerView& v : views) {
    int64_t oldest = -1;
    v.log->forEach([&](const log::Entry& e) {
      if (oldest < 0) oldest = e.ts.l;
    });
    const int64_t spanMs = v.log->empty() ? 0 : v.log->latest().l - oldest;
    depth += (depth.empty() ? "" : ", ") + std::to_string(v.log->entryCount()) +
             " entries/" + std::to_string(spanMs) + " ms";
  }
  rep.meta["window_log_depth"] = depth;

  if (!opt.trace) return rep;

  // --- per-layer metrics (traced run) ---
  std::vector<double> lag;
  for (const OpRecord& op : fixedOps) lag.push_back(op.lagUs());
  rep.metric("loadgen.lag_p99_us", percentile(lag, 0.99).value, "us");
  rep.metric("loadgen.in_flight_max", static_cast<double>(fixedInFlightMax),
             "count");

  rep.metric("kvstore.put_call_p50_us", median(tracer->durations("client.put")),
             "us");
  rep.metric("kvstore.get_call_p50_us", median(tracer->durations("client.get")),
             "us");
  const double fixedPuts =
      static_cast<double>(std::count_if(fixedOps.begin(), fixedOps.end(), isPut));
  rep.metric("kvstore.server_puts_per_put",
             ratio(static_cast<double>(after.serverPuts - before.serverPuts),
                   fixedPuts),
             "ratio");
  rep.metric("kvstore.client_retries",
             static_cast<double>(c.client(0).opsRetried()), "count");
  rep.metric("kvstore.client_timeouts",
             static_cast<double>(c.client(0).opsTimedOut()), "count");
  rep.metric("kvstore.admin_snapshot_retries",
             static_cast<double>(c.admin().counters().get("snapshot.retries")),
             "count");
  uint64_t converted = 0;
  for (size_t i = 0; i < c.serverCount(); ++i) {
    converted += c.server(i).snapshotsConverted();
  }
  rep.metric("kvstore.snapshots_converted", static_cast<double>(converted),
             "count");

  const double msgs = static_cast<double>(after.delivered - before.delivered);
  const double drains = static_cast<double>(after.drains - before.drains);
  rep.metric("runtime.msgs_per_op", ratio(msgs, fixedOpsN), "ratio");
  rep.metric("runtime.drains_per_op", ratio(drains, fixedOpsN), "ratio");
  rep.metric("runtime.msgs_per_drain", ratio(msgs, drains), "ratio");
  rep.metric("runtime.bytes_per_op",
             ratio(static_cast<double>(after.bytes - before.bytes), fixedOpsN),
             "B");
  {
    ScopedSpan span(tracer.get(), mainTrack, "probe.handoff");
    rep.metric("runtime.handoff_p50_us", handoffP50Us(2000), "us");
  }
  rep.metric("runtime.udp.datagrams_per_op",
             ratio(static_cast<double>(after.datagrams - before.datagrams),
                   fixedOpsN),
             "ratio");
  rep.metric("runtime.udp.acks_per_op",
             ratio(static_cast<double>(after.acks - before.acks), fixedOpsN),
             "ratio");
  rep.metric("runtime.udp.retransmits_per_kop",
             ratio(1e3 * static_cast<double>(after.retransmits - before.retransmits),
                   fixedOpsN),
             "ratio");
  rep.metric("runtime.udp.backlogged",
             static_cast<double>(after.backlogged - before.backlogged), "count");
  CodecTiming codec;
  if (c.udpTransport() != nullptr) {
    ScopedSpan span(tracer.get(), mainTrack, "probe.codec");
    codec = codecTiming(messageMix(opt));
  }
  rep.metric("runtime.udp.encode_us", codec.encodeUs, "us");
  rep.metric("runtime.udp.decode_us", codec.decodeUs, "us");

  // Window-log and diff-engine work.  Server diff totals include the
  // diffs of temporal queries; subtract those to get the snapshots'.
  double entries = 0, bytes = 0, liveBytes = 0;
  log::DiffStats snapDiff;
  double snapDiffCalls = 0;
  core::ReplayStats replay;
  double queriesServed = 0;
  for (size_t i = 0; i < c.serverCount(); ++i) {
    kv::VoldemortServer& srv = c.server(i);
    entries += static_cast<double>(views[i].log->entryCount());
    bytes += static_cast<double>(views[i].log->accountedBytes());
    liveBytes += static_cast<double>(srv.bdb().liveDataBytes());
    const log::DiffStats& all = srv.diffTotals();
    const core::ReplayStats& q = srv.queryReplayTotals();
    snapDiff.entriesTraversed += all.entriesTraversed - q.diffTotals.entriesTraversed;
    snapDiff.keysInDiff += all.keysInDiff - q.diffTotals.keysInDiff;
    snapDiff.indexSeeks += all.indexSeeks - q.diffTotals.indexSeeks;
    snapDiffCalls += static_cast<double>(srv.diffCalls() - q.diffCalls);
    replay.accumulate(q);
    queriesServed += static_cast<double>(srv.queriesServed());
  }
  rep.metric("log.entries", entries, "count");
  rep.metric("log.bytes", bytes, "B");
  rep.metric("log.diff_entries_per_snapshot",
             ratio(static_cast<double>(snapDiff.entriesTraversed), snapDiffCalls),
             "count");
  rep.metric("log.diff_keys_per_snapshot",
             ratio(static_cast<double>(snapDiff.keysInDiff), snapDiffCalls),
             "count");
  rep.metric("log.diff_index_seeks_per_snapshot",
             ratio(static_cast<double>(snapDiff.indexSeeks), snapDiffCalls),
             "count");
  rep.metric("log.diff_useful_ratio",
             ratio(static_cast<double>(snapDiff.keysInDiff),
                   static_cast<double>(snapDiff.entriesTraversed)),
             "ratio");
  std::vector<double> diffMs, appendNsV, replayMs;
  std::string lastQuery;
  for (auto it = cadence.queries().rbegin(); it != cadence.queries().rend(); ++it) {
    if (it->ok) {
      lastQuery = it->text;
      break;
    }
  }
  for (const ServerView& v : views) {
    {
      ScopedSpan span(tracer.get(), mainTrack, "probe.diff_to_past");
      diffMs.push_back(diffToPastMs(*v.log, opt.w.snapshotDeltasMillis));
    }
    {
      ScopedSpan span(tracer.get(), mainTrack, "probe.append");
      appendNsV.push_back(appendNs(*v.log));
    }
    if (!lastQuery.empty()) {
      ScopedSpan span(tracer.get(), mainTrack, "probe.query_replay");
      replayMs.push_back(queryReplayMs(lastQuery, *v.state, *v.log));
    }
  }
  rep.metric("log.diff_to_past_ms", median(diffMs), "ms");
  rep.metric("log.append_ns", median(appendNsV), "ns");

  rep.metric("core.query_steps",
             ratio(static_cast<double>(replay.steps), queriesServed), "count");
  rep.metric("core.query_replayed_keys_per_query",
             ratio(static_cast<double>(replay.replayedKeys), queriesServed),
             "count");
  rep.metric("core.query_base_state_keys",
             ratio(static_cast<double>(replay.baseStateKeys), queriesServed),
             "count");
  rep.metric("core.query_replay_ms", median(replayMs), "ms");
  double snapBytes = 0, snapCount = 0;
  for (const auto& r : cadence.retained()) {
    snapBytes += static_cast<double>(r.bytes);
    snapCount += static_cast<double>(r.count);
  }
  rep.metric("core.snapshot_bytes", ratio(snapBytes, snapCount), "B");
  rep.metric("storage.live_bytes", liveBytes, "B");

  // Tracing overhead: put latency in traced (odd) versus untraced (even)
  // seconds of the fixed-rate phase.
  const double traced = median(latencies(
      fixedOps, [](const OpRecord& op) { return op.isPut && op.window % 2 == 1; }));
  const double untraced = median(latencies(
      fixedOps, [](const OpRecord& op) { return op.isPut && op.window % 2 == 0; }));
  rep.metric("trace.overhead_frac", ratio(traced, untraced) - 1, "ratio");

  rep.meta["trace_spans"] = std::to_string(tracer->spanCount());
  if (!opt.traceOut.empty() && !tracer->writeChromeJson(opt.traceOut)) {
    rep.meta["trace_file"] = "write failed";
  } else {
    rep.meta["trace_file"] = opt.traceOut;
  }
  return rep;
}

}  // namespace perfbench
