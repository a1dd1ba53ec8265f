// Shared types of the benchmark's workloads.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed settings of one workload, selected by its name.  Changing any
/// value changes the benchmark: re-measure the baseline after it.
struct Settings {
  bool udp = false;              ///< reliable-UDP loopback wire, else in-process
  /// Time from one set-up's start to the next's.  kv_snapshot's set-ups
  /// (about 40 ms each) ran up to 1.7 times slower in bursts of host load
  /// lasting a second or so; spaced out they sample the load of ~10 s.
  int64_t setupSpacingMillis = 0;
  double p99LimitUs = 0;         ///< rate-search latency limit
  double searchStart = 0;        ///< first rate-search step, ops/s
  double warmupSeconds = 0;
  uint64_t preloadKeys = 0;
  double putFraction = 0;
  bool zipfian = false;
  int64_t logMaxAgeMillis = 0;   ///< window-log age bound (0 = default)
  int64_t cadenceMillis = 0;     ///< admin snapshot/query cadence (0 = none)
  std::array<int64_t, 3> snapshotDeltasMillis{};
  int64_t queryWindowMillis = 0;
  int64_t queryStepMillis = 0;
};

/// Settings both realtime workloads share.
inline constexpr double kFixedRate = 3000;     ///< ops/s of the fixed-rate phase
inline constexpr double kSearchFactor = 1.1;  ///< rate-search ramp factor
inline constexpr double kStepSeconds = 1.0;   ///< rate-search step length
inline constexpr int kSetupRepeats = 51;      ///< set-ups behind setup_s
inline constexpr size_t kValueBytes = 64;

inline constexpr Settings kKvUdp{
    .udp = true,
    .p99LimitUs = 20'000,
    .searchStart = 6000,
    .warmupSeconds = 2.0,
    .preloadKeys = 1000,
    .putFraction = 0.5,
};

inline constexpr Settings kKvSnapshot{
    .setupSpacingMillis = 200,
    .p99LimitUs = 100'000,
    .searchStart = 30'000,
    .warmupSeconds = 3.5,
    .preloadKeys = 10'000,
    .putFraction = 0.9,
    .zipfian = true,
    .logMaxAgeMillis = 3000,
    .cadenceMillis = 100,
    .snapshotDeltasMillis = {300, 1000, 2000},
    .queryWindowMillis = 1500,
    .queryStepMillis = 150,
};

inline constexpr Settings kSimFuzz{};

struct Options {
  std::string workload;
  Settings w;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;  ///< Chrome trace file (traced run only)
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the result line's fields plus
/// run metadata.
struct Report {
  bool correct = true;
  std::vector<std::string> gateFailures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> meta;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gateFailures.push_back(what);
    }
  }
};

Report runRealtime(const Options& opt);
Report runSimFuzz(const Options& opt);

/// Process-wide resource readings.
double cpuSeconds();    ///< user + sys CPU of this process so far
double peakRssMb();     ///< maximum resident set size so far

}  // namespace perfbench
