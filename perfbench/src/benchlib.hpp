// The benchmark's own arithmetic, kept free of the cluster so the
// self-tests can drive it with a hand-moved clock: percentiles under the
// ten-samples-beyond rule, the open-loop arrival schedule with due-time
// latency, the rate-search stop rule, and failure accounting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

/// Time source in nanoseconds.  The workloads read the host's steady
/// clock through it; the self-tests move a ManualClock by hand.
class BenchClock {
 public:
  virtual ~BenchClock() = default;
  virtual int64_t nowNanos() const = 0;
};

class SteadyNanosClock final : public BenchClock {
 public:
  int64_t nowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

class ManualClock final : public BenchClock {
 public:
  int64_t nowNanos() const override { return now_; }
  void set(int64_t t) { now_ = t; }
  void advance(int64_t d) { now_ += d; }

 private:
  int64_t now_ = 0;
};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Samples needed beyond a percentile before it may be reported.
inline constexpr size_t kSamplesBeyond = 10;

/// Nearest-rank index of percentile q in n sorted samples.
inline size_t percentileIndex(size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n - 1, rank == 0 ? 0 : rank - 1);
}

/// Samples strictly above the nearest-rank index of q.
inline size_t samplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - percentileIndex(n, q);
}

struct Percentile {
  double value = 0;
  size_t samples = 0;
  /// True when at least kSamplesBeyond samples lie beyond the index.
  bool resolved = false;
};

/// Nearest-rank percentile q of `v` (reordered in place).
inline Percentile percentile(std::vector<double>& v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  const size_t idx = percentileIndex(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  p.value = v[idx];
  p.resolved = samplesBeyond(v.size(), q) >= kSamplesBeyond;
  return p;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Open-loop arrivals
// ---------------------------------------------------------------------------

/// One request of an open-loop phase, times in nanoseconds.  Latency
/// runs from `due`, the time the schedule wanted the request sent, so a
/// stalled generator charges its stall to every request it delayed (no
/// coordinated omission).
struct OpRecord {
  int64_t due = 0;
  int64_t issued = 0;
  int64_t done = -1;  ///< -1 while in flight
  bool isPut = false;
  bool ok = false;
  uint32_t window = 0;  ///< whole seconds since the phase start

  double latencyUs() const { return static_cast<double>(done - due) / 1e3; }
  double lagUs() const { return static_cast<double>(issued - due) / 1e3; }
};

/// Poisson arrival schedule of one phase, driven by whoever calls tick():
/// every request due by now is issued at once, stamped with its due time.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(const BenchClock& clock, uint64_t seed)
      : clock_(&clock), rng_(seed) {}

  /// Begin a phase of `durationNanos` at `ratePerSec`, starting now.
  void startPhase(double ratePerSec, int64_t durationNanos) {
    ops_.clear();
    inFlight_ = 0;
    inFlightMax_ = 0;
    rate_ = ratePerSec;
    start_ = clock_->nowNanos();
    end_ = start_ + durationNanos;
    nextDue_ = static_cast<double>(start_) + gap();
  }

  /// Issue every request due by now through `issue(index, record)`.
  /// Returns nanoseconds until the next arrival, or -1 when the phase
  /// has no arrivals left.
  template <typename IssueFn>
  int64_t tick(IssueFn&& issue) {
    const int64_t now = clock_->nowNanos();
    while (nextDue_ <= static_cast<double>(now) &&
           nextDue_ < static_cast<double>(end_)) {
      OpRecord rec;
      rec.due = static_cast<int64_t>(nextDue_);
      rec.issued = now;
      rec.window = static_cast<uint32_t>((rec.due - start_) / 1'000'000'000);
      ops_.push_back(rec);
      ++inFlight_;
      inFlightMax_ = std::max(inFlightMax_, inFlight_);
      issue(ops_.size() - 1, ops_.back());
      nextDue_ += gap();
    }
    if (nextDue_ >= static_cast<double>(end_)) return -1;
    return std::max<int64_t>(0, static_cast<int64_t>(std::ceil(nextDue_)) - now);
  }

  void complete(size_t index, bool ok) {
    OpRecord& rec = ops_[index];
    rec.done = clock_->nowNanos();
    rec.ok = ok;
    --inFlight_;
  }

  bool arrivalsDone() const { return nextDue_ >= static_cast<double>(end_); }
  size_t inFlight() const { return inFlight_; }
  size_t inFlightMax() const { return inFlightMax_; }
  int64_t phaseStart() const { return start_; }
  double rate() const { return rate_; }
  const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  double gap() {
    return std::exponential_distribution<double>(rate_)(rng_) * 1e9;
  }

  const BenchClock* clock_;
  std::mt19937_64 rng_;
  std::vector<OpRecord> ops_;
  size_t inFlight_ = 0;
  size_t inFlightMax_ = 0;
  double rate_ = 1;
  int64_t start_ = 0;
  int64_t end_ = 0;
  double nextDue_ = 0;
};

// ---------------------------------------------------------------------------
// Rate search
// ---------------------------------------------------------------------------

/// What one stepped-rate phase measured.
struct StepOutcome {
  double rate = 0;
  size_t attempted = 0;
  size_t failed = 0;      ///< callbacks that reported failure
  size_t incomplete = 0;  ///< still in flight when the drain gave up
  Percentile latencyP99;  ///< due-time latency, all ops of the step
  Percentile lagP99;      ///< generator lateness
  size_t inFlightMax = 0;
};

/// The stop rule: a step meets the limit when nothing failed, its p99 is
/// resolved and within the limit, and no backlog built up — neither in
/// the generator (its own lag) nor in the system (more requests in
/// flight than Little's law allows at the limit, or requests left over).
inline bool stepPasses(const StepOutcome& s, double limitMicros) {
  if (s.attempted == 0 || s.failed > 0 || s.incomplete > 0) return false;
  if (!s.latencyP99.resolved || s.latencyP99.value > limitMicros) return false;
  if (s.lagP99.value > limitMicros) return false;
  const double littleBound = 2.0 * s.rate * limitMicros / 1e6 + 8.0;
  return static_cast<double>(s.inFlightMax) <= littleBound;
}

/// Ascending geometric ramp from `start` by `factor`; it ends at the
/// first failing rate or when the step budget runs out.  A failing step is
/// run once more before it counts, so one scheduling hiccup on a shared
/// host cannot end the ramp.  The ramp never steps back down: a step's
/// state (a deeper window-log, longer queues) carries into the next one,
/// so a step after an overloaded one would be judged on the overload's
/// leftovers.  best() is the highest rate that passed (0 if none did).
class RateSearch {
 public:
  RateSearch(double start, double factor, size_t maxSteps)
      : next_(start), factor_(factor), maxSteps_(maxSteps) {}

  bool done() const { return stopped_ || steps_ >= maxSteps_; }
  double nextRate() const { return next_; }

  void record(double rate, bool passed) {
    ++steps_;
    if (!passed && !confirming_) {
      confirming_ = true;
      return;  // next_ is still `rate`: run it again
    }
    confirming_ = false;
    if (passed) {
      best_ = std::max(best_, rate);
      next_ = rate * factor_;
    } else {
      stopped_ = true;
    }
  }

  double best() const { return best_; }
  size_t steps() const { return steps_; }

 private:
  double next_;
  double factor_;
  size_t maxSteps_;
  size_t steps_ = 0;
  double best_ = 0;
  bool confirming_ = false;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Failure accounting
// ---------------------------------------------------------------------------

/// Everything a run attempted and what of it failed: client operations
/// that failed, timed out, were refused or never completed; snapshots
/// that did not end kComplete; queries that did not end OK.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void add(uint64_t n, uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  void add(bool ok) { add(1, ok ? 0 : 1); }
};

/// Fold the client operations of a phase into a tally.
inline void tallyOps(const std::vector<OpRecord>& ops, Tally& t) {
  for (const OpRecord& op : ops) t.add(op.done >= 0 && op.ok);
}

}  // namespace perfbench
