// amdmb_bench — the repo benchmark's entry point.
//
// usage: amdmb_bench --workload W [--seed N] [--seconds S] [--trace 0|1|DIR]
//                    [--expected FILE] [--serve BIN] [--work DIR]
//                    [--update-expected]
//        amdmb_bench --selftest
//
// Prints a system snapshot, the plan digest, every metric with its unit
// and sample count, and as its last line one JSON object: the end-to-end
// metrics, or with tracing the per-layer metrics. Exits 1 when any
// document or response does not match what is expected.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "exec/kernel_cache.hpp"
#include "exec/sweep_executor.hpp"
#include "report/json.hpp"
#include "report/json_sink.hpp"
#include "report/record.hpp"
#include "suite/figures.hpp"

extern char** environ;

namespace {

using namespace amdmb;
using namespace amdmb::perf;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Both lists must match BENCHMARK.json at the repo root.
constexpr MetricSpec kEndToEnd[] = {
    {"points_per_s", "points/s"}, {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},     {"latency_tail_ms", "ms"},
    {"cpu_s", "s"},               {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.execute_us_p50", "us"},
    {"sim.execute_us_p95", "us"},
    {"sim.host_ns_per_wavefront", "ns"},
    {"sim.host_ns_per_kcycle", "ns"},
    {"sim.cycles", "cycles"},
    {"sim.wavefronts", "count"},
    {"mem.tex_cache_hits", "count"},
    {"mem.tex_cache_misses", "count"},
    {"mem.dram_read_bytes", "bytes"},
    {"mem.dram_write_bytes", "bytes"},
    {"mem.dram_row_switches", "count"},
    {"compiler.compile_us_p50", "us"},
    {"compiler.analyze_us_p50", "us"},
    {"il.print_us_p50", "us"},
    {"il.parse_us_p50", "us"},
    {"il.verify_us_p50", "us"},
    {"exec.cache_misses", "count"},
    {"exec.cache_hits", "count"},
    {"exec.cache_hit_ratio", "ratio"},
    {"exec.utilization", "ratio"},
    {"adapt.waves", "count"},
    {"adapt.wave_points_p50", "points"},
    {"adapt.wave_ms_p50", "ms"},
    {"adapt.points_spent", "points"},
    {"adapt.dense_points", "points"},
    {"adapt.spend_ratio", "ratio"},
    {"suite.build_s.fig_7", "s"},
    {"suite.build_s.fig_8", "s"},
    {"suite.build_s.fig_9", "s"},
    {"suite.build_s.fig_10", "s"},
    {"suite.build_s.fig_11", "s"},
    {"suite.build_s.fig_12", "s"},
    {"suite.build_s.fig_13", "s"},
    {"suite.build_s.fig_14", "s"},
    {"suite.build_s.fig_15a", "s"},
    {"suite.build_s.fig_15b", "s"},
    {"suite.build_s.fig_16", "s"},
    {"suite.build_s.fig_17", "s"},
    {"suite.curve_ms_p50", "ms"},
    {"suite.points", "points"},
    {"report.serialize_ms", "ms"},
    {"report.doc_bytes", "bytes"},
    {"serve.submit_p50_ms", "ms"},
    {"serve.submit_p90_ms", "ms"},
    {"serve.characterize_p50_ms", "ms"},
    {"serve.characterize_p90_ms", "ms"},
    {"serve.light_p50_ms", "ms"},
    {"serve.light_p90_ms", "ms"},
    {"serve.accept_ms_p50", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p90", "ms"},
    {"serve.done_bytes_p50", "bytes"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"kerncap.intake_us_p50", "us"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage() {
  std::cerr << "usage: amdmb_bench --workload W [--seed N] [--seconds S]"
               " [--trace 0|1|DIR] [--expected FILE] [--serve BIN]"
               " [--work DIR] [--update-expected]\n"
               "       amdmb_bench --selftest\n";
  return 2;
}

/// The benchmark pins its own configuration: no AMDMB_* knob from the
/// caller's environment may reach the suite, the daemon or its workers.
void ClearSuiteEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("AMDMB_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string FormatValue(double value) {
  std::ostringstream os;
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    os << static_cast<long long>(value);  // Counts print in full.
  } else {
    os << std::setprecision(6) << value;
  }
  return os.str();
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::cout << "  " << std::left << std::setw(30) << name << std::right
            << std::setw(14) << FormatValue(m.value) << " " << std::left
            << std::setw(9) << m.unit << std::right << " n=" << m.samples;
  if (!m.note.empty()) std::cout << "  (" << m.note << ")";
  std::cout << "\n";
}

/// Prints the report and the final JSON line; returns the exit code.
int Report(const Options& options, const RunResult& result) {
  std::cout << "system: nproc " << std::thread::hardware_concurrency()
            << ", compiler " << __VERSION__ << ", build "
            << AMDMB_PERF_BUILD_TYPE << ", suite " << SuiteVersion() << "\n"
            << "workload " << options.workload << ", seed " << options.seed
            << ", plan digest " << result.plan_digest << "\n";
  for (const std::string& line : result.lines) std::cout << line << "\n";

  // Untraced runs report the end-to-end metrics; traced runs the
  // per-layer ones, zero where the workload does not reach the layer.
  const bool traced = !options.trace_dir.empty();
  Metrics shown;
  std::cout << (traced ? "per-layer metrics:\n" : "end-to-end metrics:\n");
  const std::span<const MetricSpec> specs =
      traced ? std::span<const MetricSpec>(kPerLayer) : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    Metric m{0.0, spec.unit, 0, "not exercised by this workload"};
    if (const auto it = result.metrics.find(spec.name);
        it != result.metrics.end()) {
      m = it->second;
    } else {
      Require(traced, std::string("missing end-to-end metric ") + spec.name);
    }
    Require(m.unit == spec.unit, std::string("unit mismatch for ") + spec.name);
    PrintMetric(spec.name, m);
    shown[spec.name] = m;
  }
  const double fail_ratio = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  std::cout << "fail_ratio " << FormatValue(fail_ratio) << " (" << result.failed
            << " of " << result.attempted << " operations failed or "
            << "mismatched)\n";

  std::ostringstream json;
  json << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown) {
    Require(std::isfinite(m.value), "metric " + name + " is not finite");
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << report::JsonNumber(m.value) << ", \"unit\": \""
         << report::JsonEscape(m.unit) << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}

int SelfTest() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  std::cout << "selftest:\n";

  check(FigureOrder(1) == FigureOrder(1),
        "seed 1 gives the same figure order twice");
  check(FigureOrder(1) != FigureOrder(2),
        "seed 2 gives another figure order");
  const std::string plan = ServePlanDigest(ServePlan(1, 0));
  check(plan == ServePlanDigest(ServePlan(1, 0)),
        "seed 1 gives the same serve_mix plan twice");
  check(plan != ServePlanDigest(ServePlan(2, 0)),
        "seed 2 gives another serve_mix plan");

  report::Figure figure("Fig. 99 — Self-test", "Self-test", "x", "y", "");
  figure.set.Get("curve").Add(1.0, 2.0);
  figure.set.Get("curve").Add(2.0, 3.0);
  report::FinalizeMeta(figure);
  figure.meta.threads = 1;
  figure.meta.suite_version = "a5ee689";
  const std::string one = report::BenchJson(figure);
  figure.meta.threads = 4;
  figure.meta.suite_version = "b07bb54-dirty";
  const std::string four = report::BenchJson(figure);
  check(one != four && DocDigest(one) == DocDigest(four),
        "digests ignore meta.threads and meta.suite_version");
  report::Figure moved("Fig. 99 — Self-test", "Self-test", "x", "y", "");
  moved.set.Get("curve").Add(1.0, 2.0);
  moved.set.Get("curve").Add(2.0, 3.0000001);
  report::FinalizeMeta(moved);
  moved.meta.threads = 1;
  moved.meta.suite_version = "a5ee689";
  check(DocDigest(report::BenchJson(moved)) != DocDigest(one),
        "digests catch a single changed point");

  check(PercentileNameable(50, 20) && !PercentileNameable(50, 19),
        "p50 needs 20 samples");
  check(PercentileNameable(95, 325) && !PercentileNameable(90, 83),
        "p95 of 325 replays is nameable, p90 of 83 curves is not");
  check(TailPercentile(83) == 87 && TailPercentile(300) == 96,
        "tail percentile of 83 curves is p87, of 300 requests p96");
  std::vector<double> ramp(83);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = i + 1.0;
  std::vector<double> gap = ramp;
  for (std::size_t i = 73; i < gap.size(); ++i) gap[i] += 20.0;
  check(std::fabs(SmoothPercentile(ramp, 50.0) - 42.0) < 1e-9 &&
            SmoothPercentile(gap, 87.0) > 73.0 &&
            SmoothPercentile(gap, 87.0) < 94.0,
        "smoothed p50 of 1..83 is 42; smoothed p87 lands inside a gap "
        "between its neighbours");

  check(CacheCountsExact(1) && !CacheCountsExact(4),
        "kernel-cache counts are exact only at 1 thread");
  const exec::SweepExecutor serial(1);
  suite::figures::RunOptions opts;
  opts.quick = true;
  opts.executor = &serial;
  exec::KernelCacheStats counts[2];
  for (exec::KernelCacheStats& c : counts) {
    exec::KernelCache::Shared().Clear();
    suite::figures::Build(*suite::figures::Find("fig_12"), opts);
    c = exec::KernelCache::Shared().Stats();
  }
  check(counts[0].hits == counts[1].hits &&
            counts[0].misses == counts[1].misses && counts[0].misses > 0,
        "cold-cache counts repeat at 1 thread (" +
            std::to_string(counts[0].hits) + " hits, " +
            std::to_string(counts[0].misses) + " misses)");

  std::cout << (failures == 0 ? "selftest: ok\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}

double ParseNumber(const char* text, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0.0)) {
    throw ConfigError(std::string(flag) + ": not a non-negative number: " +
                      text);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  ClearSuiteEnvironment();
  try {
    Options options;
    std::string trace = "0";
    bool selftest = false;
    bool setup_probe = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--setup-probe") {
        setup_probe = true;
      } else if (arg == "--update-expected") {
        options.update_expected = true;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        const double seed = ParseNumber(argv[++i], "--seed");
        Require(seed == std::floor(seed) && seed < 1e15,
                "--seed: not a whole number");
        options.seed = static_cast<std::uint64_t>(seed);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = ParseNumber(argv[++i], "--seconds");
      } else if (arg == "--trace" && has_value) {
        trace = argv[++i];
      } else if (arg == "--expected" && has_value) {
        options.expected_path = argv[++i];
      } else if (arg == "--serve" && has_value) {
        options.serve_binary = argv[++i];
      } else if (arg == "--work" && has_value) {
        options.work_dir = argv[++i];
      } else {
        return Usage();
      }
    }
    if (selftest) return SelfTest();
    if (trace != "0") {
      options.trace_dir = trace == "1" ? options.work_dir + "/trace" : trace;
      std::filesystem::create_directories(options.trace_dir);
    }
    if (setup_probe) {
      FigureSetup(options);
      return 0;
    }
    if (IsFigureWorkload(options.workload)) {
      return Report(options, RunFigureWorkload(options));
    }
    if (options.workload == "serve_mix") {
      Require(!options.serve_binary.empty(), "serve_mix needs --serve BIN");
      return Report(options, RunServeWorkload(options));
    }
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "amdmb_bench: " << e.what() << "\n";
    return 1;
  }
}
