// The one main of the paper-reproduction bench binaries.
//
// Each bench binary reproduces one or two documents of the paper (a
// table, a figure or an ablation). It builds their definitions from
// suite::figures::Registry() or Supplements() with figures::Build, the
// path the daemon, the golden test and perf/ also take, and prints each
// record through the configured sinks: the text sink always (the
// "x  y1  y2 ..." column layout the paper's plots were drawn from plus
// a "Measured:" findings block), gnuplot / JSON / CSV sinks when their
// output directories are set.
//
// Environment (parsed once by common/env.hpp):
//   AMDMB_QUICK=1        shrink domains/sweeps for smoke runs.
//   AMDMB_THREADS=N      sweep-executor width (default: hardware
//                        concurrency); results are identical at any N.
//   AMDMB_ADAPT=1        refine sweeps adaptively instead of densely.
//   AMDMB_DUMP_DIR=dir   write gnuplot .dat/.gp per figure.
//   AMDMB_JSON_DIR=dir   write machine-readable BENCH_<figure>.json
//                        plus <figure>.csv per figure.
//   AMDMB_FAULTS=spec    deterministic fault injection (see README);
//                        degraded points surface as typed
//                        "degradations" JSON entries and "Fault
//                        annotations" report lines.
//
// The output directories are validated up front (created if missing,
// probed for writability) so a bad path fails with a clear message
// before any sweep runs instead of silently dropping results.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "amdmb.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "report/csv_sink.hpp"
#include "report/gnuplot_sink.hpp"
#include "report/json_sink.hpp"
#include "report/record.hpp"
#include "report/text_sink.hpp"

namespace amdmb::bench {

/// Writes `figure` through `sink` and names every file it wrote.
inline void WriteTo(report::FileSink& sink, const report::Figure& figure) {
  sink.Write(figure);
  for (const auto& path : sink.Written()) {
    std::cout << sink.Label() << ": " << path.string() << "\n";
  }
}

/// Prints one record: text to stdout, gnuplot and JSON/CSV files when
/// their directories are set.
inline void Print(const report::Figure& figure) {
  report::TextSink(std::cout).Write(figure);
  const env::Options& options = env::Get();
  if (options.dump_dir) {
    report::GnuplotSink gnuplot(*options.dump_dir);
    WriteTo(gnuplot, figure);
  }
  if (options.json_dir) {
    report::JsonSink json(*options.json_dir);
    WriteTo(json, figure);
    report::CsvSink csv(*options.json_dir);
    WriteTo(csv, figure);
  }
  std::cout.flush();
}

/// Builds the documents named by `slugs` and prints each one. Returns 1
/// with an `error:` line, before any sweep runs, when an argument is
/// given, a knob is malformed, an output directory is unusable or a
/// slug is unknown. SIGINT/SIGTERM stop the build between sweep points
/// and curves; every document is still printed, with an "interrupted"
/// finding, and the exit code is 130.
inline int Main(int argc, char** argv, const std::vector<std::string>& slugs) {
  namespace figures = suite::figures;
  std::vector<const figures::FigureDef*> defs;
  try {
    if (argc > 1) {
      throw ConfigError(std::string("unrecognized argument: ") + argv[1]);
    }
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
    for (const std::string& slug : slugs) {
      const figures::FigureDef* def = figures::Find(slug);
      if (def == nullptr) def = figures::Find(slug, figures::Supplements());
      if (def == nullptr) throw ConfigError("unknown figure slug: " + slug);
      defs.push_back(def);
    }
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  static exec::CancelToken interrupt;
  InstallInterruptHandlers();
  NotifyFlagOnInterrupt(&interrupt.FlagForSignal());
  const adapt::Settings adaptive = adapt::Settings::FromEnv();
  figures::RunOptions opts;
  opts.quick = env::Get().quick;
  opts.cancel = &interrupt;
  if (env::Get().adapt) opts.adaptive = &adaptive;
  // Every document is built before any is printed, so an interrupt
  // stamps all of them.
  std::vector<report::Figure> built;
  for (const figures::FigureDef* def : defs) {
    built.push_back(figures::Build(*def, opts));
  }

  try {
    if (InterruptRequested()) {
      const int signal_number = InterruptSignal();
      for (report::Figure& figure : built) {
        figure.findings.push_back(
            {report::FindingKind::kEvent, "", "interrupted",
             static_cast<double>(signal_number), "signal",
             std::string(DescribeSignal(signal_number)) +
                 " received — partial report, remaining sweep points "
                 "skipped"});
      }
      std::cerr << "interrupted (" << DescribeSignal(signal_number)
                << "), flushing partial report\n";
    }
    for (const report::Figure& figure : built) Print(figure);
  } catch (const std::exception& e) {
    std::cerr << "error: writing figure outputs failed: " << e.what()
              << "\n";
    return 1;
  }
  return InterruptRequested() ? 130 : 0;
}

}  // namespace amdmb::bench
