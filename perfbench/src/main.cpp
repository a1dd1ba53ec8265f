// perfbench: runs one benchmark workload and prints its result as one
// JSON document on the last line of standard output.  run.py builds this
// binary and turns the document into the benchmark's result line.  The
// workload name selects its fixed settings (workloads.hpp).
//
//   perfbench --workload kv_udp|kv_snapshot|sim_fuzz --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE]
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/workloads.hpp"

namespace perfbench {

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

/// Every per-layer metric, with its unit.  A traced run reports all of
/// them on every workload; a layer a workload leaves idle reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.in_flight_max", "count"},
    {"kvstore.put_call_p50_us", "us"},
    {"kvstore.get_call_p50_us", "us"},
    {"kvstore.server_puts_per_put", "ratio"},
    {"kvstore.client_retries", "count"},
    {"kvstore.client_timeouts", "count"},
    {"kvstore.admin_snapshot_retries", "count"},
    {"kvstore.snapshots_converted", "count"},
    {"runtime.msgs_per_op", "ratio"},
    {"runtime.drains_per_op", "ratio"},
    {"runtime.msgs_per_drain", "ratio"},
    {"runtime.bytes_per_op", "B"},
    {"runtime.handoff_p50_us", "us"},
    {"runtime.udp.datagrams_per_op", "ratio"},
    {"runtime.udp.acks_per_op", "ratio"},
    {"runtime.udp.retransmits_per_kop", "ratio"},
    {"runtime.udp.backlogged", "count"},
    {"runtime.udp.encode_us", "us"},
    {"runtime.udp.decode_us", "us"},
    {"log.entries", "count"},
    {"log.bytes", "B"},
    {"log.diff_entries_per_snapshot", "count"},
    {"log.diff_keys_per_snapshot", "count"},
    {"log.diff_index_seeks_per_snapshot", "count"},
    {"log.diff_useful_ratio", "ratio"},
    {"log.diff_to_past_ms", "ms"},
    {"log.append_ns", "ns"},
    {"core.query_steps", "count"},
    {"core.query_replayed_keys_per_query", "count"},
    {"core.query_base_state_keys", "count"},
    {"core.query_replay_ms", "ms"},
    {"core.snapshot_bytes", "B"},
    {"storage.live_bytes", "B"},
    {"sim.events_per_seed", "count"},
    {"testing.cuts_checked_per_seed", "count"},
    {"testing.oracle_checks_per_seed", "count"},
    {"testing.generate_ms_per_seed", "ms"},
    {"testing.run_check_ms_per_seed", "ms"},
    {"trace.overhead_frac", "ratio"},
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v);
    else if (k == "--trace") o.trace = std::atoi(v) != 0;
    else if (k == "--trace-out") o.traceOut = v;
    else usage(("unknown option " + k).c_str());
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  if (o.workload == "kv_udp") o.w = kKvUdp;
  else if (o.workload == "kv_snapshot") o.w = kKvSnapshot;
  else if (o.workload == "sim_fuzz") o.w = kSimFuzz;
  else usage(("unknown workload '" + o.workload + "'").c_str());
  return o;
}

/// Timings from an unoptimized or instrumented build mean nothing.
const char* refusedBuild() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "a sanitizer is compiled in";
#endif
#endif
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (const char* why = refusedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 3;
  }
  const Options opt = parseArgs(argc, argv);
  Report rep;
  if (opt.workload == "sim_fuzz") {
    rep = runSimFuzz(opt);
  } else {
    rep = runRealtime(opt);
  }
  if (opt.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!rep.metrics.contains(name)) rep.metric(name, 0, unit);
    }
  }
  rep.meta["build_type"] = PERFBENCH_BUILD_TYPE;

  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " + num +
           ", \"unit\": " + jsonString(m.unit) + "}";
    first = false;
  }
  out += "}, \"meta\": {";
  first = true;
  for (const auto& [k, v] : rep.meta) {
    out += (first ? "" : ", ") + jsonString(k) + ": " + jsonString(v);
    first = false;
  }
  out += "}, \"gate_failures\": [";
  for (size_t i = 0; i < rep.gateFailures.size(); ++i) {
    out += (i ? ", " : "") + jsonString(rep.gateFailures[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
