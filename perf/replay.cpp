// Layer replay: every suite::figures::CrossCheckPoints() operating point
// (65 points over Figs. 7-17), five times, with each layer the registry
// path crosses timed on its own. The simulated counters it sums repeat
// exactly, so any change to them is a behaviour change, not noise.
#include "bench.hpp"
#include "common/status.hpp"
#include "compiler/compiler.hpp"
#include "compiler/ska.hpp"
#include "il/parser.hpp"
#include "il/printer.hpp"
#include "il/verifier.hpp"
#include "sim/gpu.hpp"
#include "suite/figures.hpp"

namespace amdmb::perf {

namespace {

constexpr int kReplays = 5;

/// Times one call in microseconds and keeps its result.
template <typename Fn>
auto Timed(std::vector<double>& samples, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto value = fn();
  samples.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - start)
          .count());
  return value;
}

struct Counts {
  double cycles = 0.0;
  double wavefronts = 0.0;
  double tex_hits = 0.0;
  double tex_misses = 0.0;
  double dram_read = 0.0;
  double dram_write = 0.0;
  double row_switches = 0.0;

  bool operator==(const Counts&) const = default;
};

}  // namespace

void ReplayCrossCheckPoints(Metrics& metrics) {
  const std::vector<suite::figures::CrossCheckPoint> points =
      suite::figures::CrossCheckPoints();
  std::vector<double> print_us, parse_us, verify_us, compile_us, analyze_us,
      execute_us;
  Counts first;
  for (int replay = 0; replay < kReplays; ++replay) {
    Counts counts;
    for (const suite::figures::CrossCheckPoint& point : points) {
      const std::string text =
          Timed(print_us, [&] { return il::Print(point.kernel); });
      const il::Kernel kernel =
          Timed(parse_us, [&] { return il::Parse(text); });
      const il::VerifyResult verified =
          Timed(verify_us, [&] { return il::Verify(kernel); });
      Require(verified.ok(), "replay: " + point.point + " fails verify");
      const isa::Program program = Timed(
          compile_us, [&] { return compiler::Compile(kernel, point.arch); });
      const compiler::SkaReport ska = Timed(
          analyze_us, [&] { return compiler::Analyze(program, point.arch); });
      Require(ska.gpr_count > 0, "replay: " + point.point + " uses no GPRs");
      const sim::Gpu gpu(point.arch);
      const sim::KernelStats stats = Timed(
          execute_us, [&] { return gpu.Execute(program, point.config); });
      counts.cycles += static_cast<double>(stats.cycles);
      counts.wavefronts += static_cast<double>(stats.wavefront_count);
      counts.tex_hits += static_cast<double>(stats.cache.hits);
      counts.tex_misses += static_cast<double>(stats.cache.misses);
      counts.dram_read += static_cast<double>(stats.dram.read_bytes);
      counts.dram_write += static_cast<double>(stats.dram.write_bytes);
      counts.row_switches += static_cast<double>(stats.dram.row_switches);
    }
    if (replay == 0) first = counts;
    Require(counts == first, "replay: simulated counters changed between "
                             "replays of the same points");
  }

  const std::size_t n = execute_us.size();
  double execute_total_us = 0.0;
  for (const double us : execute_us) execute_total_us += us;
  const double per_replay_us = execute_total_us / kReplays;
  metrics["sim.execute_us_p50"] = {NamedPercentile(execute_us, 50.0), "us",
                                   n, ""};
  metrics["sim.execute_us_p95"] = {NamedPercentile(execute_us, 95.0), "us",
                                   n, ""};
  metrics["sim.host_ns_per_wavefront"] = {
      per_replay_us * 1e3 / first.wavefronts, "ns", n, ""};
  metrics["sim.host_ns_per_kcycle"] = {per_replay_us * 1e3 /
                                           (first.cycles / 1e3),
                                       "ns", n, ""};
  const std::size_t count_points = points.size();
  metrics["sim.cycles"] = {first.cycles, "cycles", count_points, "exact"};
  metrics["sim.wavefronts"] = {first.wavefronts, "count", count_points,
                               "exact"};
  metrics["mem.tex_cache_hits"] = {first.tex_hits, "count", count_points,
                                   "exact"};
  metrics["mem.tex_cache_misses"] = {first.tex_misses, "count",
                                     count_points, "exact"};
  metrics["mem.dram_read_bytes"] = {first.dram_read, "bytes", count_points,
                                    "exact"};
  metrics["mem.dram_write_bytes"] = {first.dram_write, "bytes",
                                     count_points, "exact"};
  metrics["mem.dram_row_switches"] = {first.row_switches, "count",
                                      count_points, "exact"};
  metrics["compiler.compile_us_p50"] = {NamedPercentile(compile_us, 50.0),
                                        "us", n, ""};
  metrics["compiler.analyze_us_p50"] = {NamedPercentile(analyze_us, 50.0),
                                        "us", n, ""};
  metrics["il.print_us_p50"] = {NamedPercentile(print_us, 50.0), "us", n,
                                ""};
  metrics["il.parse_us_p50"] = {NamedPercentile(parse_us, 50.0), "us", n,
                                ""};
  metrics["il.verify_us_p50"] = {NamedPercentile(verify_us, 50.0), "us", n,
                                 ""};
}

}  // namespace amdmb::perf
