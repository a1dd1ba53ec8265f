// The sim_fuzz workload: fuzz seeds, each expanded into a kv-store and a
// grid scenario and run through the deterministic simulator with the cut
// checker and replay oracle, single-threaded.
//
// The timed work is a fixed reference block, seeds 0 .. kBlockSeeds-1, run
// in passes until the run's time is up.  cpu_us_per_op is the CPU time of
// one scenario run (generate excluded), the median over passes of each
// pass's mean.  Scenario cost varies widely from seed to seed, and a
// seed-dependent timed range made it differ between runs by more than any
// bound, so only the block is timed.  It is CPU time of the process, which
// runs only the simulator thread, so time the host gives to other tenants
// does not count as the simulator's.  setup_s is the CPU time of expanding
// the block, timed once after every scenario run: timed back to back, a
// few hundred expansions (about 30 us each, warm) took one of two values
// about 30% apart from process to process, as the host's load came and
// went.  Spread over the run, and cold as after a scenario, their median
// follows the host's speed over the run, as the scenario runs' does.
// The run's own seeds, kSeededSeeds of them from (seed + 1) * 1e6, run once
// after the passes, untimed, through the same correctness gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "src/benchlib.hpp"
#include "src/tracer.hpp"
#include "src/workloads.hpp"
#include "testing/fuzz.hpp"
#include "testing/scenario.hpp"

namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;
using retro::testing::Scenario;
using retro::testing::Substrate;

constexpr uint64_t kBlockSeeds = 32;
constexpr uint64_t kSeededSeeds = 16;

double secondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

std::vector<Scenario> generateRange(uint64_t first, uint64_t count,
                                    Tracer* tracer, SpanTrack* track) {
  std::vector<Scenario> out;
  out.reserve(2 * count);
  for (uint64_t s = first; s < first + count; ++s) {
    for (Substrate sub : {Substrate::kKvStore, Substrate::kGrid}) {
      ScopedSpan span(tracer, track, "testing.generate");
      out.push_back(retro::testing::generateScenario(s, sub));
    }
  }
  return out;
}

}  // namespace

Report runSimFuzz(const Options& opt) {
  Report rep;
  const uint64_t first = 0;
  const uint64_t seededBase = (opt.seed + 1) * 1'000'000;
  rep.meta["seeds"] = "timed 0.." + std::to_string(kBlockSeeds - 1) +
                      ", untimed " + std::to_string(seededBase) + ".." +
                      std::to_string(seededBase + kSeededSeeds - 1) +
                      " (kv + grid each)";

  const std::vector<Scenario> scenarios =
      generateRange(first, kBlockSeeds, nullptr, nullptr);

  uint64_t runs = 0, failedSeeds = 0;
  const auto runOne = [&](const Scenario& sc, Tracer* t, SpanTrack* track,
                           uint64_t parent) {
    ScopedSpan span(t, track, "testing.run_check", parent);
    retro::testing::FuzzResult r = retro::testing::runScenario(sc);
    ++runs;
    if (!r.passed()) {
      ++failedSeeds;
      rep.gate(false, "seed " + std::to_string(sc.seed) + " failed: " +
                          r.report.summary(2));
    }
    return r;
  };

  if (!opt.trace) {
    // Set-up (expanding the reference block) is timed once after each
    // scenario run, so its samples spread over the whole run.
    std::vector<double> setups, cpuUsPerRun, eventsPerS;
    double peakRss = 0;
    std::string passLog;
    const auto start = SteadyClock::now();
    while (cpuUsPerRun.empty() || secondsSince(start) < opt.seconds) {
      double cpu = 0;
      uint64_t events = 0;
      for (const Scenario& sc : scenarios) {
        const double cpu0 = cpuSeconds();
        events += runOne(sc, nullptr, nullptr, 0).eventsRecorded;
        const double cpu1 = cpuSeconds();
        const std::vector<Scenario> expanded =
            generateRange(first, kBlockSeeds, nullptr, nullptr);
        setups.push_back(cpuSeconds() - cpu1);
        cpu += cpu1 - cpu0;
      }
      cpuUsPerRun.push_back(cpu * 1e6 / static_cast<double>(scenarios.size()));
      eventsPerS.push_back(static_cast<double>(events) / cpu);
      if (peakRss == 0) peakRss = peakRssMb();
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.0f", passLog.empty() ? "" : " ",
                    eventsPerS.back());
      passLog += buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", secondsSince(start));
    rep.meta["timed_wall_s"] = buf;
    // After the peak was read: the peak is the block's, not the seed's.
    for (const Scenario& sc :
         generateRange(seededBase, kSeededSeeds, nullptr, nullptr)) {
      runOne(sc, nullptr, nullptr, 0);
    }
    rep.metric("setup_s", median(setups), "s");
    rep.metric("cpu_us_per_op", median(cpuUsPerRun), "us");
    rep.metric("peak_rss_mb", peakRss, "MB");
    std::snprintf(buf, sizeof(buf), "%.2f", 1e6 / median(cpuUsPerRun));
    rep.meta["sim_seeds_per_s"] = buf;
    std::snprintf(buf, sizeof(buf), "%.0f", median(eventsPerS));
    rep.meta["sim_events_per_s"] = buf;
    rep.meta["pass_events_per_cpu_s"] = passLog;
    std::snprintf(buf, sizeof(buf), "CPU %.7f (median of %zu)", median(setups),
                  setups.size());
    rep.meta["setup_s"] = buf;
  } else {
    // Each scenario of the reference block runs untraced, then traced, so
    // the two sides of the overhead see the same work and the same host.
    Tracer tracer;
    SpanTrack& track = tracer.track("benchmark");
    double plain = 0, traced = 0;
    uint64_t events = 0, cuts = 0, oracle = 0;
    const std::vector<Scenario> tracedBlock =
        generateRange(first, kBlockSeeds, &tracer, &track);
    {
      ScopedSpan pass(&tracer, &track, "sim_fuzz.block");
      for (const Scenario& sc : tracedBlock) {
        const auto t0 = SteadyClock::now();
        runOne(sc, nullptr, nullptr, 0);
        plain += secondsSince(t0);
        const auto t1 = SteadyClock::now();
        const retro::testing::FuzzResult r =
            runOne(sc, &tracer, &track, pass.id());
        traced += secondsSince(t1);
        events += r.eventsRecorded;
        cuts += r.report.cutsChecked;
        oracle += r.oracleChecks;
      }
    }
    const double n = static_cast<double>(scenarios.size());
    rep.metric("sim.events_per_seed", static_cast<double>(events) / n, "count");
    rep.metric("testing.cuts_checked_per_seed", static_cast<double>(cuts) / n,
               "count");
    rep.metric("testing.oracle_checks_per_seed",
               static_cast<double>(oracle) / n, "count");
    rep.metric("testing.generate_ms_per_seed",
               median(tracer.durations("testing.generate")) / 1e3, "ms");
    rep.metric("testing.run_check_ms_per_seed",
               median(tracer.durations("testing.run_check")) / 1e3, "ms");
    rep.metric("trace.overhead_frac", traced / plain - 1, "ratio");
    rep.meta["trace_spans"] = std::to_string(tracer.spanCount());
    rep.meta["trace_file"] =
        opt.traceOut.empty() || tracer.writeChromeJson(opt.traceOut)
            ? opt.traceOut
            : "write failed";
  }

  rep.attempted = runs;
  rep.failed = 0;  // a failing seed is a wrong answer, not a refusal
  rep.meta["failed_seeds"] = std::to_string(failedSeeds);
  return rep;
}

}  // namespace perfbench
