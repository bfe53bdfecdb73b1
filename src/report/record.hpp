// Typed record model for the measurement → record → output pipeline.
//
// Every figure reproduction produces one Figure record: run provenance
// (RunMeta), the measured curves (the re-homed Series/SeriesSet model),
// quantitative Findings (crossovers, slopes, plateaus, ratios — the
// typed replacement for the old free-text note lines), and Degradations
// (one typed record per retried or skipped point). report/output.hpp
// renders a Figure as text, JSON, CSV, or gnuplot; the amdmb_report
// tool loads the JSON documents back into Figures (report/load.hpp)
// and aggregates them across figures, so no consumer ever has to
// regex-scrape a note string again.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "prof/counters.hpp"
#include "report/series.hpp"

namespace amdmb::exec {
struct RunReport;
}  // namespace amdmb::exec

namespace amdmb::prof {
struct Profile;
}  // namespace amdmb::prof

namespace amdmb::report {

/// The report-layer names for the curve model: a figure is a set of
/// named Curves, each a list of (x, y) Points.
using Point = ::amdmb::SeriesPoint;
using Curve = ::amdmb::Series;

/// Version of the BENCH_*.json document layout. v1 (pre-report-layer)
/// had no explicit version key; v2 adds schema_version, meta, findings,
/// and typed degradations.
inline constexpr int kSchemaVersion = 2;

/// What kind of quantitative observation a Finding states.
enum class FindingKind {
  kCrossover,  ///< x at which the curve's bottleneck/behaviour flips.
  kSlope,      ///< Fitted rate (e.g. seconds per input).
  kPlateau,    ///< A measured level (flat-region height, endpoint time).
  kRatio,      ///< Dimensionless comparison (speedup, fit R^2, gap).
  kEvent,      ///< Run-level occurrence (e.g. "interrupted" partial run).
};

std::string_view ToString(FindingKind kind);

/// Inverse of ToString; nullopt for unknown names (forward compat: a
/// newer writer may emit kinds this reader does not know).
std::optional<FindingKind> FindingKindFromString(std::string_view name);

/// One quantitative observation extracted from a figure's curves.
struct Finding {
  FindingKind kind = FindingKind::kPlateau;
  std::string curve;  ///< Legend label ("4870 Pixel Float"); may be "".
  std::string label;  ///< Machine key, snake_case ("alu_bound_crossover").
  /// Absent = censored: the event did not occur within the sweep
  /// (e.g. a crossover beyond the last swept ratio).
  std::optional<double> value;
  std::string unit;    ///< "ratio", "s", "s/input", "x", "" (unitless).
  std::string detail;  ///< Optional human clarification.

  /// Human-readable one-liner for the text report / notes array, e.g.
  /// "4870 Pixel Float: alu_bound_crossover = 5.25 ratio".
  std::string Render() const;

  bool operator==(const Finding&) const = default;
};

/// Scans `findings` for the first entry with this label (and, when
/// `curve` is non-empty, that curve). Returns nullptr when absent.
const Finding* FindFinding(const std::vector<Finding>& findings,
                           std::string_view label,
                           std::string_view curve = {});

/// One degraded sweep point: a point that was retried, skipped, or
/// failed. Typed so tools can count and classify without parsing text.
struct Degradation {
  std::string curve;    ///< Owning curve name.
  std::string point;    ///< Sweep-point label ("alufetch_r0.25").
  std::string status;   ///< "retried" / "skipped" / "failed".
  unsigned attempts = 1;
  std::string error;    ///< Last failure message; may be empty.

  /// The legacy fault-annotation line format
  /// ("curve/point: retried, 2 attempts — ...").
  std::string Render() const;

  bool operator==(const Degradation&) const = default;
};

/// Converts every non-ok point of `run` into a Degradation owned by
/// `curve`.
std::vector<Degradation> DegradationsFrom(const exec::RunReport& run,
                                          const std::string& curve);

/// One profiled sweep point: the sampled hardware counters plus the
/// counter-based bottleneck attribution, cross-checked against the
/// simulator's heuristic classification. Bottlenecks are stored as the
/// canonical strings ("ALU" / "FETCH" / "MEMORY") so the record layer
/// stays decoupled from the simulator types and the JSON round-trip is
/// verbatim.
struct ProfileEntry {
  std::string curve;       ///< Legend label ("4870 Pixel Float").
  std::string point;       ///< Sweep-point label ("alufetch_r2.00").
  std::string attributed;  ///< Counter-based bottleneck.
  std::string heuristic;   ///< Gpu::Execute's classification.
  bool agree = true;       ///< attributed == heuristic.
  double alu_score = 0.0;
  double fetch_score = 0.0;
  double memory_score = 0.0;
  prof::CounterSet counters;
  std::uint64_t dropped_events = 0;  ///< Trace events past AMDMB_TRACE_CAP.

  /// One line for the text report, e.g.
  /// "4870 Pixel Float/alufetch_r2.00: ALU (agrees with heuristic)".
  std::string Render() const;

  bool operator==(const ProfileEntry&) const = default;
};

/// Builds the entry for one profiled measurement. `heuristic` is the
/// rendered sim::Bottleneck of the same launch's KernelStats.
ProfileEntry MakeProfileEntry(const std::string& curve,
                              const prof::Profile& profile,
                              std::string_view heuristic);

/// Run-wide provenance stamped into every figure record.
struct RunMeta {
  std::string suite_version;      ///< git describe at build time.
  unsigned threads = 1;           ///< Resolved sweep-executor width.
  bool quick = false;             ///< AMDMB_QUICK smoke scale.
  std::string faults;             ///< Raw AMDMB_FAULTS spec ("" = none).
  std::string retry;              ///< Raw AMDMB_RETRY spec ("" = default).
  std::uint64_t watchdog_cycles = 0;
  bool adaptive = false;           ///< Curves came from adaptive refinement.
  std::vector<std::string> archs;  ///< GPU generations in the figure.
  std::vector<std::string> modes;  ///< Shader modes in the figure.
};

/// Meta snapshot of this process: env knobs plus the build's git
/// describe. archs/modes are filled per figure by FinalizeMeta.
RunMeta CollectRunMeta();

/// A 2D classification map (e.g. bottleneck over ALU:Fetch ratio ×
/// register-ladder step), the artifact of adaptive quadrant
/// refinement. Cells are labels on the xs × ys grid, row-major with y
/// outermost (`cells[iy * xs.size() + ix]`); `measured` marks which
/// nodes were actually simulated — the rest were filled from uniform
/// enclosing quadrants. Emitted as the schema-additive "frontier"
/// block of BENCH JSON; absent for 1D figures.
struct Frontier {
  std::string x_label;
  std::string y_label;
  std::vector<double> xs;  ///< Grid node coordinates, ascending.
  std::vector<double> ys;
  std::vector<std::string> cells;  ///< Node labels ("" = unresolved).
  std::vector<bool> measured;      ///< Parallel to cells.
  std::uint64_t points_measured = 0;
  std::uint64_t points_dense = 0;  ///< xs.size() * ys.size().

  bool operator==(const Frontier&) const = default;
};

/// Complete record of one reproduced figure.
struct Figure {
  Figure(std::string id_, std::string title, std::string x_label,
         std::string y_label, std::string paper_claim_)
      : id(std::move(id_)),
        paper_claim(std::move(paper_claim_)),
        set(std::move(title), std::move(x_label), std::move(y_label)) {}

  std::string id;           ///< "Fig. 7 — ALU:Fetch Ratio for 16 Inputs".
  std::string paper_claim;  ///< The paper's qualitative expectation.
  SeriesSet set;            ///< The measured curves.
  std::vector<Finding> findings;
  std::vector<Degradation> degradations;
  /// Per-point profiles, present only when the run was profiled
  /// (AMDMB_PROF); BenchJson emits the additive "profile" block from these.
  std::vector<ProfileEntry> profiles;
  /// 2D classification map, present only for frontier-map figures.
  std::optional<Frontier> frontier;
  RunMeta meta;

  /// Filesystem-safe stem ("fig_7"); see FigureSlug.
  std::string Slug() const;
};

/// Stamps `figure.meta` with the process RunMeta and derives the
/// archs/modes lists from the figure's curve legend names.
void FinalizeMeta(Figure& figure);

}  // namespace amdmb::report
