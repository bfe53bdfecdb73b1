// The three figure workloads: the dense registry at paper scale on four
// threads (paper_full), the same figures refined adaptively
// (adaptive_full), and the dense registry at quick scale on one thread
// (quick_serial). Every pass starts from a cold kernel cache and builds
// all twelve documents in the seeded figure order.

#include "adapt/refiner.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "exec/kernel_cache.hpp"
#include "exec/sweep_executor.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"

namespace amdmb::perf {

namespace {

namespace figures = suite::figures;

struct FigureWorkload {
  std::string_view name;
  bool quick;
  bool adaptive;
  unsigned threads;
  std::string_view digest_kind;  ///< Table in expected_digests.json.
};

constexpr FigureWorkload kFigureWorkloads[] = {
    {"paper_full", false, false, 4, "dense_full"},
    {"adaptive_full", false, true, 4, "adaptive_full"},
    {"quick_serial", true, false, 1, "dense_quick"},
};

/// Fresh set-up processes behind setup_s; the median is reported.
constexpr int kSetupProbes = 101;
/// Traced / untraced builds alternated by TraceOverhead.
constexpr int kOverheadPairs = 7;

const FigureWorkload& FindWorkload(std::string_view name) {
  for (const FigureWorkload& w : kFigureWorkloads) {
    if (w.name == name) return w;
  }
  throw ConfigError("unknown figure workload: " + std::string(name));
}

/// What a figure workload holds before its first timed pass.
struct Context {
  Context(const FigureWorkload& w, std::vector<std::string> figure_order,
          const std::string& expected_path)
      : workload(w),
        order(std::move(figure_order)),
        executor(w.threads),
        expected(LoadDigests(expected_path)) {}
  explicit Context(const Options& options)
      : Context(FindWorkload(options.workload), FigureOrder(options.seed),
                options.expected_path) {}

  const FigureWorkload& workload;
  std::vector<std::string> order;
  exec::SweepExecutor executor;
  DigestTable expected;
};

struct Wave {
  double points = 0.0;
  double ms = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t points = 0;
  std::vector<double> curve_ms;
  std::map<std::string, double> build_s;
  double serialize_s = 0.0;
  std::size_t doc_bytes = 0;
  exec::KernelCacheStats cache;
  std::vector<Wave> waves;
  std::size_t points_spent = 0;
  std::size_t dense_points = 0;
  std::map<std::string, std::string> docs;
};

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Pass RunPass(const Context& ctx, Tracer& tracer) {
  Pass pass;
  Clock::time_point mark;  // End of the last curve or refinement wave.
  adapt::Settings settings = adapt::Settings::FromEnv();
  settings.on_wave = [&](const adapt::WaveInfo& info) {
    const Clock::time_point now = Clock::now();
    pass.waves.push_back(
        {static_cast<double>(info.wave_points), MsBetween(mark, now)});
    mark = now;
    pass.points_spent += info.wave_points;
    if (info.wave == 0) pass.dense_points += info.dense_points;
  };
  figures::RunOptions opts;
  opts.quick = ctx.workload.quick;
  opts.executor = &ctx.executor;
  opts.adaptive = ctx.workload.adaptive ? &settings : nullptr;

  exec::KernelCache::Shared().Clear();
  const double cpu_start = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  const std::uint64_t root = tracer.Begin(std::string(ctx.workload.name), 0);
  for (const std::string& slug : ctx.order) {
    const figures::FigureDef& def = *figures::Find(slug);
    const std::uint64_t figure_span = tracer.Begin("figure " + slug, root);
    const std::uint64_t build_span =
        tracer.Begin("figures::Build", figure_span);
    const Clock::time_point build_start = Clock::now();
    Clock::time_point curve_start = build_start;
    mark = build_start;
    std::uint64_t curve_span =
        tracer.Begin("curve " + def.curves.front().name, build_span);
    const report::Figure figure = figures::Build(
        def, opts,
        [&](std::size_t index, std::size_t count, const std::string&,
            const report::Figure&) {
          const Clock::time_point now = Clock::now();
          pass.curve_ms.push_back(MsBetween(curve_start, now));
          curve_start = now;
          mark = now;
          tracer.End(curve_span);
          if (index + 1 < count) {
            curve_span =
                tracer.Begin("curve " + def.curves[index + 1].name,
                             build_span);
          }
        });
    pass.build_s[slug] = SecondsSince(build_start);
    tracer.End(build_span);
    const std::uint64_t json_span =
        tracer.Begin("report::BenchJson", figure_span);
    const Clock::time_point json_start = Clock::now();
    std::string doc = report::BenchJson(figure);
    pass.serialize_s += SecondsSince(json_start);
    tracer.End(json_span);
    tracer.End(figure_span);
    pass.doc_bytes += doc.size();
    pass.docs[slug] = std::move(doc);
  }
  pass.wall_s = SecondsSince(start);
  pass.cpu_s = SelfCpuSeconds() - cpu_start;
  tracer.End(root);
  pass.cache = exec::KernelCache::Shared().Stats();
  for (const auto& [slug, doc] : pass.docs) pass.points += CountPoints(doc);
  return pass;
}

/// Checks every document of `pass` against the expected digests (or,
/// with --update-expected, records them).
void CheckDocuments(const Context& ctx, const Pass& pass,
                    const Options& options, DigestTable& updated,
                    RunResult& result) {
  const std::string kind(ctx.workload.digest_kind);
  for (const auto& [slug, doc] : pass.docs) {
    ++result.attempted;
    const std::string digest = DocDigest(doc);
    if (options.update_expected) {
      auto [it, inserted] = updated[kind].try_emplace(slug, digest);
      if (!inserted && it->second != digest) {
        ++result.failed;
        result.lines.push_back("MISMATCH " + slug +
                               ": passes disagree on the document");
      }
      continue;
    }
    const auto table = ctx.expected.find(kind);
    const bool known = table != ctx.expected.end() &&
                       table->second.count(slug) == 1;
    if (!known || table->second.at(slug) != digest) {
      ++result.failed;
      result.lines.push_back(
          "MISMATCH " + kind + "/" + slug + ": got " + digest +
          ", expected " + (known ? table->second.at(slug) : "none"));
    }
  }
}

template <typename Fn>
double MedianOver(const std::vector<Pass>& passes, Fn&& fn) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(fn(pass));
  return Median(values);
}

void AddEndToEnd(const std::vector<Pass>& passes, RunResult& result) {
  Metrics& m = result.metrics;
  const std::size_t n = passes.size();
  const std::size_t curves = passes.front().curve_ms.size();
  const int tail = TailPercentile(curves);
  m["points_per_s"] = {MedianOver(passes, [](const Pass& p) {
                         return static_cast<double>(p.points) / p.wall_s;
                       }),
                       "points/s", n, "median of passes"};
  m["ops_per_s"] = {MedianOver(passes, [](const Pass& p) {
                      return static_cast<double>(p.curve_ms.size()) /
                             p.wall_s;
                    }),
                    "1/s", n, "curves per second"};
  m["latency_p50_ms"] = {MedianOver(passes, [](const Pass& p) {
                           return SmoothPercentile(p.curve_ms, 50.0);
                         }),
                         "ms", curves * n,
                         PercentileNote(50, curves, "curves per pass")};
  m["latency_tail_ms"] = {MedianOver(passes,
                                     [tail](const Pass& p) {
                                       return SmoothPercentile(p.curve_ms,
                                                               tail);
                                     }),
                          "ms", curves * n,
                          PercentileNote(tail, curves, "curves per pass")};
  m["cpu_s"] = {MedianOver(passes, [](const Pass& p) { return p.cpu_s; }),
                "s", n, "user+sys per pass"};
  m["peak_rss_mb"] = {SelfPeakRssMiB(), "MiB", 1, "ru_maxrss"};
}

void AddLayers(const Context& ctx, const Pass& traced, RunResult& result) {
  Metrics& m = result.metrics;
  const bool exact = CacheCountsExact(ctx.workload.threads);
  const std::string count_note =
      exact ? "exact" : "approximate: concurrent misses compile twice";
  const double lookups =
      static_cast<double>(traced.cache.hits + traced.cache.misses);
  m["exec.cache_misses"] = {static_cast<double>(traced.cache.misses),
                            "count", 1, count_note};
  m["exec.cache_hits"] = {static_cast<double>(traced.cache.hits), "count",
                          1, count_note};
  m["exec.cache_hit_ratio"] = {
      lookups > 0.0 ? static_cast<double>(traced.cache.hits) / lookups : 0.0,
      "ratio", 1, ""};
  m["exec.utilization"] = {
      traced.cpu_s / (traced.wall_s * ctx.workload.threads), "ratio", 1,
      "cpu_s / (wall x threads)"};

  if (!traced.waves.empty()) {
    std::vector<double> points;
    std::vector<double> ms;
    for (const Wave& w : traced.waves) {
      points.push_back(w.points);
      ms.push_back(w.ms);
    }
    const std::size_t waves = traced.waves.size();
    m["adapt.waves"] = {static_cast<double>(waves), "count", 1, ""};
    m["adapt.wave_points_p50"] = {NamedPercentile(points, 50.0), "points",
                                  waves, ""};
    m["adapt.wave_ms_p50"] = {NamedPercentile(ms, 50.0), "ms", waves, ""};
    m["adapt.points_spent"] = {static_cast<double>(traced.points_spent),
                               "points", 1, "exact"};
    m["adapt.dense_points"] = {static_cast<double>(traced.dense_points),
                               "points", 1, "exact"};
    m["adapt.spend_ratio"] = {
        static_cast<double>(traced.points_spent) /
            static_cast<double>(traced.dense_points),
        "ratio", 1, ""};
  }

  for (const auto& [slug, seconds] : traced.build_s) {
    m["suite.build_s." + slug] = {seconds, "s", 1, ""};
  }
  m["suite.curve_ms_p50"] = {NamedPercentile(traced.curve_ms, 50.0), "ms",
                             traced.curve_ms.size(), ""};
  m["suite.points"] = {static_cast<double>(traced.points), "points", 1,
                       "exact"};
  m["report.serialize_ms"] = {traced.serialize_s * 1e3, "ms",
                              traced.docs.size(), "all documents"};
  m["report.doc_bytes"] = {static_cast<double>(traced.doc_bytes), "bytes",
                           traced.docs.size(), "all documents"};
}

}  // namespace

bool IsFigureWorkload(std::string_view name) {
  for (const FigureWorkload& w : kFigureWorkloads) {
    if (w.name == name) return true;
  }
  return false;
}

std::vector<std::string> FigureOrder(std::uint64_t seed) {
  std::vector<std::string> order;
  for (const figures::FigureDef& def : figures::Registry()) {
    order.push_back(def.slug);
  }
  XorShift128 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

void FigureSetup(const Options& options) { const Context ctx(options); }

Metric TraceOverhead() {
  const Context ctx(FindWorkload("quick_serial"), {"fig_12"}, "");
  std::vector<double> off;
  std::vector<double> on;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    Tracer untraced(false);
    off.push_back(RunPass(ctx, untraced).wall_s);
    Tracer traced(true);
    on.push_back(RunPass(ctx, traced).wall_s);
  }
  return {Median(on) / Median(off) - 1.0, "ratio", 2 * kOverheadPairs,
          "quick fig_12, traced vs untraced"};
}

RunResult RunFigureWorkload(const Options& options) {
  RunResult result;
  const bool traced = !options.trace_dir.empty();
  if (!traced) {
    std::vector<double> setups(kSetupProbes);
    for (double& cpu_s : setups) {
      const pid_t pid =
          Spawn({"/proc/self/exe", "--setup-probe", "--workload",
                 options.workload, "--seed", std::to_string(options.seed),
                 "--expected", options.expected_path},
                {});
      Require(WaitExit(pid, &cpu_s) == 0, "set-up probe failed");
    }
    result.metrics["setup_s"] = {Median(setups), "s", setups.size(),
                                 "CPU of a fresh-process set-up, median"};
  }

  const Context ctx(options);
  std::string plan;
  for (const std::string& slug : ctx.order) plan += slug + "\n";
  result.plan_digest = Hex(Fnv1a(plan));

  Tracer tracer(traced);
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(RunPass(ctx, tracer));
  } while (SecondsSince(start) < options.seconds);
  result.lines.push_back(
      "workload " + options.workload + ": " + std::to_string(passes.size()) +
      " pass(es) of " + std::to_string(ctx.order.size()) + " figures, " +
      std::to_string(passes.front().points) + " points, " +
      std::to_string(ctx.workload.threads) + " thread(s), " +
      (ctx.workload.quick ? "quick" : "paper") + " scale" +
      (traced ? ", traced" : ""));

  DigestTable updated = ctx.expected;
  if (options.update_expected) {
    updated.erase(std::string(ctx.workload.digest_kind));
  }
  for (const Pass& pass : passes) {
    CheckDocuments(ctx, pass, options, updated, result);
  }
  if (traced) {
    AddLayers(ctx, passes.front(), result);
    result.metrics["trace.overhead_ratio"] = TraceOverhead();
    ReplayCrossCheckPoints(result.metrics);
    const std::string path =
        options.trace_dir + "/" + options.workload + ".trace.json";
    tracer.Write(path);
    result.lines.push_back("trace: " + std::to_string(tracer.SpanCount()) +
                           " spans -> " + path);
  } else {
    AddEndToEnd(passes, result);
  }
  if (options.update_expected && result.failed == 0) {
    SaveDigests(options.expected_path, updated);
    result.lines.push_back("updated " + options.expected_path + " [" +
                           std::string(ctx.workload.digest_kind) + "]");
  }
  return result;
}

}  // namespace amdmb::perf
