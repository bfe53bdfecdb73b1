// Shared scaffolding for the figure-reproduction benchmarks.
//
// Each bench binary reproduces one table or figure of the paper at paper
// scale. google-benchmark times the *simulator* cost of each curve (one
// iteration per curve — the interesting output is the figure data, not
// wall time), and after the benchmark pass the binary assembles one
// report::Figure record per figure (curves + typed findings + typed
// degradations + run meta) and pushes it through the configured sinks:
// the text sink always (the "x  y1  y2 ..." column layout the paper's
// plots were drawn from plus a "Measured:" findings block), gnuplot /
// JSON / CSV sinks when their output directories are set.
//
// Environment (parsed once by common/env.hpp):
//   AMDMB_QUICK=1        shrink domains/sweeps for smoke runs.
//   AMDMB_THREADS=N      sweep-executor width (default: hardware
//                        concurrency); results are identical at any N.
//   AMDMB_DUMP_DIR=dir   write gnuplot .dat/.gp per figure.
//   AMDMB_JSON_DIR=dir   write machine-readable BENCH_<figure>.json
//                        plus <figure>.csv per figure.
//   AMDMB_FAULTS=spec    deterministic fault injection (see README);
//                        degraded points surface as typed
//                        "degradations" JSON entries and "Fault
//                        annotations" report lines.
//
// Both output directories are validated up front (created if missing,
// probed for writability) so a bad path fails with a clear message
// before any sweep runs instead of silently dropping results.
#pragma once

#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amdmb.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "report/csv_sink.hpp"
#include "report/gnuplot_sink.hpp"
#include "report/json_sink.hpp"
#include "report/record.hpp"
#include "report/text_sink.hpp"
#include "suite/figures.hpp"

namespace amdmb::bench {

inline bool QuickMode() { return env::Get().quick; }

/// The process-wide cancellation token the SIGINT/SIGTERM handler fires:
/// sweeps wired to it skip their remaining points, so the binary falls
/// through to the sinks and still flushes a (partial) report instead of
/// dying mid-write.
inline exec::CancelToken& InterruptToken() {
  static exec::CancelToken token;
  return token;
}

/// The figure under reproduction — a thin adapter over report::Figure:
/// curves accumulate as the benchmarks run, findings carry the typed
/// paper-vs-measured observations, degradations the non-ok sweep
/// points. Print() finalizes the record's meta block and fans it out
/// through the configured sinks.
class FigureSink {
 public:
  FigureSink(std::string id, std::string title, std::string x_label,
             std::string y_label, std::string paper_claim)
      : figure_(std::move(id), std::move(title), std::move(x_label),
                std::move(y_label), std::move(paper_claim)) {}

  SeriesSet& Set() { return figure_.set; }

  /// The underlying record (curves, findings, degradations, meta).
  report::Figure& Record() { return figure_; }
  const report::Figure& Record() const { return figure_; }

  void Add(report::Finding finding) {
    figure_.findings.push_back(std::move(finding));
  }

  void Add(std::vector<report::Finding> findings) {
    for (report::Finding& f : findings) {
      figure_.findings.push_back(std::move(f));
    }
  }

  void Print() {
    report::FinalizeMeta(figure_);
    report::TextSink(std::cout).Write(figure_);
    const env::Options& options = env::Get();
    if (options.dump_dir) {
      report::GnuplotSink sink(*options.dump_dir);
      EmitTo(sink);
    }
    if (options.json_dir) {
      report::JsonSink json(*options.json_dir);
      EmitTo(json);
      report::CsvSink csv(*options.json_dir);
      EmitTo(csv);
    }
    std::cout.flush();
  }

  /// Filesystem-safe stem derived from the figure id ("Fig. 7 — ..."
  /// -> "fig_7").
  std::string Slug() const { return figure_.Slug(); }

 private:
  void EmitTo(report::FileSink& sink) {
    sink.Write(figure_);
    for (const auto& path : sink.Written()) {
      std::cout << sink.Label() << ": " << path.string() << "\n";
    }
  }

  report::Figure figure_;
};

/// Registers one google-benchmark that runs `body` once and records the
/// simulated seconds it reports as the "sim_seconds" counter.
inline void RegisterCurveBenchmark(const std::string& name,
                                   std::function<double()> body) {
  ::benchmark::RegisterBenchmark(
      name.c_str(),
      [body = std::move(body)](::benchmark::State& state) {
        double sim_seconds = 0.0;
        for (auto _ : state) {
          sim_seconds = body();
          ::benchmark::DoNotOptimize(sim_seconds);
        }
        state.counters["sim_seconds"] = sim_seconds;
      })
      ->Iterations(1)
      ->Unit(::benchmark::kMillisecond);
}

/// Standard bench main: parse the environment, validate output
/// directories, run the registered benchmarks, then print every figure
/// sink. Returns 1 with a descriptive stderr message when a knob is
/// malformed or an output directory is unusable — before any sweep
/// runs, so hours of work are never silently dropped.
inline int RunBenchMain(int argc, char** argv,
                        const std::vector<FigureSink*>& sinks) {
  try {
    const env::Options& options = env::Get();
    if (options.dump_dir) {
      report::EnsureWritableDirectory(*options.dump_dir, "AMDMB_DUMP_DIR");
    }
    if (options.json_dir) {
      report::EnsureWritableDirectory(*options.json_dir, "AMDMB_JSON_DIR");
    }
    if (options.trace_dir) {
      report::EnsureWritableDirectory(*options.trace_dir, "AMDMB_TRACE_DIR");
    }
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  // SIGINT/SIGTERM cut the run short between sweep points (via the
  // interrupt token) and between curves (the registry bodies check
  // InterruptRequested), then flush whatever was measured.
  InstallInterruptHandlers();
  NotifyFlagOnInterrupt(&InterruptToken().FlagForSignal());
  ::benchmark::Initialize(&argc, &argv[0]);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  try {
    if (InterruptRequested()) {
      const int signal_number = InterruptSignal();
      for (FigureSink* sink : sinks) {
        sink->Add({report::FindingKind::kEvent, "", "interrupted",
                   static_cast<double>(signal_number), "signal",
                   std::string(DescribeSignal(signal_number)) +
                       " received — partial report, remaining sweep "
                       "points skipped"});
      }
      std::cerr << "interrupted (" << DescribeSignal(signal_number)
                << "), flushing partial report\n";
    }
    for (FigureSink* sink : sinks) sink->Print();
  } catch (const std::exception& e) {
    std::cerr << "error: writing figure outputs failed: " << e.what()
              << "\n";
    return 1;
  }
  return InterruptRequested() ? 130 : 0;
}

/// Bench main for binaries whose figures live in the suite registry
/// (suite/figures.hpp): registers one google-benchmark per curve of each
/// named figure — names "<bench_prefix>/<curve>", unchanged from the
/// former hand-rolled binaries — then runs the standard RunBenchMain
/// flow. Sweeps are wired to the interrupt token, so Ctrl-C flushes a
/// partial figure with an "interrupted" finding instead of truncating.
inline int RunRegistryBenchMain(int argc, char** argv,
                                const std::vector<std::string>& slugs) {
  suite::figures::RunOptions opts;
  opts.quick = QuickMode();
  opts.cancel = &InterruptToken();
  // AMDMB_ADAPT=1 refines every curve instead of sweeping densely. The
  // settings are process-static because the registered curve lambdas
  // (and their copied opts) outlive this frame.
  static const adapt::Settings adaptive_settings = adapt::Settings::FromEnv();
  if (env::Get().adapt) opts.adaptive = &adaptive_settings;
  std::vector<std::unique_ptr<FigureSink>> owned;
  std::vector<FigureSink*> sinks;
  for (const std::string& slug : slugs) {
    const suite::figures::FigureDef* def = suite::figures::Find(slug);
    if (def == nullptr) {
      std::cerr << "error: unknown figure slug: " << slug << "\n";
      return 1;
    }
    auto sink = std::make_unique<FigureSink>(
        def->id, def->title, def->x_label, def->y_label, def->paper_claim);
    FigureSink* raw = sink.get();
    for (const suite::figures::CurveDef& curve : def->curves) {
      RegisterCurveBenchmark(
          def->bench_prefix + "/" + curve.name, [raw, &curve, opts] {
            if (InterruptRequested()) return 0.0;
            return curve.run(raw->Record(), opts);
          });
    }
    owned.push_back(std::move(sink));
    sinks.push_back(raw);
  }
  return RunBenchMain(argc, argv, sinks);
}

}  // namespace amdmb::bench
