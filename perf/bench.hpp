// The repo benchmark (amdmb_bench): shared declarations.
//
// Four workloads drive the suite the way its users do: the paper
// reproduction (paper_full), adaptive sweeps (adaptive_full), the CI /
// AMDMB_QUICK path (quick_serial) and the served daemon (serve_mix). Each
// run prints every metric with its unit, checks every produced document
// against perf/expected_digests.json, and ends with one JSON line. Layers
// are timed only from outside, by spans around calls to public functions.
// README.md holds the rationale, the metric definitions and the baseline.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace amdmb::perf {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measure whole passes until at least this long has elapsed (0 = one).
  double seconds = 0.0;
  /// Non-empty: run traced, report the per-layer metrics and write
  /// <workload>.trace.json here.
  std::string trace_dir;
  std::string expected_path;
  /// Record this run's digests instead of checking them.
  bool update_expected = false;
  std::string serve_binary;
  /// Scratch space (the daemon's socket directory).
  std::string work_dir = ".";
};

/// One reported number. `samples` counts the measurements behind it; 0
/// means the workload does not exercise that layer and the value is 0.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string plan_digest;
  Metrics metrics;
  std::vector<std::string> lines;  ///< Human-readable report lines.
};

// --- Workloads -----------------------------------------------------------

bool IsFigureWorkload(std::string_view name);

/// Figure slugs in the seeded order every pass of a figure workload uses.
std::vector<std::string> FigureOrder(std::uint64_t seed);

/// Everything a figure workload does before its first timed pass; the
/// set-up probes run exactly this in a fresh process.
void FigureSetup(const Options& options);

RunResult RunFigureWorkload(const Options& options);
RunResult RunServeWorkload(const Options& options);

/// The serve_mix request plan of one pass, a pure function of the seed.
struct PlannedRequest {
  enum class Kind { kSubmit, kCharacterize, kMalformed, kStats };
  Kind kind = Kind::kStats;
  std::string figure;         ///< kSubmit: figure slug.
  std::string il;             ///< kCharacterize / kMalformed: IL text.
  std::string expected_code;  ///< kMalformed: kerncap rejection code.
  /// The connection that sends it: the worker the fleet routes it to.
  unsigned lane = 0;
};
std::vector<PlannedRequest> ServePlan(std::uint64_t seed, std::size_t pass);
std::string ServePlanDigest(const std::vector<PlannedRequest>& plan);

/// Replays every suite::figures::CrossCheckPoints() point and times each
/// layer on its own (il, compiler, sim), adding the layer metrics.
void ReplayCrossCheckPoints(Metrics& metrics);

/// trace.overhead_ratio, what the spans cost: quick Fig. 12 on one
/// thread, built alternately with and without tracing; median traced /
/// median untraced wall - 1.
Metric TraceOverhead();

// --- Statistics ----------------------------------------------------------

double Median(std::vector<double> values);

/// The naming rule: a percentile is reported only when at least ten
/// samples lie beyond it.
bool PercentileNameable(double p, std::size_t samples);

/// The highest whole percentile the naming rule allows (needs >= 20).
int TailPercentile(std::size_t samples);

/// Percentile `p` of `values` by the Harrell-Davis estimator, a weighted
/// mean of every sample that peaks at rank p; throws when the naming
/// rule forbids it. The end-to-end latencies use it: their samples
/// spread over two orders of magnitude and thin out in the tail, where
/// one sample (NamedPercentile) jumps between neighbours that differ by
/// a quarter from run to run.
double SmoothPercentile(std::vector<double> values, double p);

/// Percentile `p` of `values`; throws when the naming rule forbids it.
double NamedPercentile(const std::vector<double>& values, double p);

/// "p<p> of <samples> <what>", the note printed beside a percentile.
std::string PercentileNote(int p, std::size_t samples, std::string_view what);

/// Kernel-cache counts repeat exactly only on one thread: two threads
/// that miss on the same kernel at once both compile and both count.
bool CacheCountsExact(unsigned threads);

// --- Documents -----------------------------------------------------------

std::uint64_t Fnv1a(std::string_view bytes);
std::string Hex(std::uint64_t value);

/// The document with meta.suite_version and meta.threads blanked: the
/// two fields that legitimately differ between builds and widths.
std::string NormalizeDoc(std::string_view doc);
std::string DocDigest(std::string_view doc);

/// Number of measured points in a BENCH figure document.
std::size_t CountPoints(std::string_view doc);

/// kind ("dense_full", ...) -> figure slug -> digest.
using DigestTable = std::map<std::string, std::map<std::string, std::string>>;
DigestTable LoadDigests(const std::string& path);
void SaveDigests(const std::string& path, const DigestTable& table);

// --- Tracing -------------------------------------------------------------

/// Host-side spans kept in memory and written once, in trace_event
/// format, when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under `parent` (0 = root) on lane `tid`; returns its id,
  /// or 0 when disabled. Thread-safe.
  std::uint64_t Begin(std::string name, std::uint64_t parent,
                      unsigned tid = 0);
  void End(std::uint64_t id);

  std::size_t SpanCount() const;
  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t parent = 0;
    unsigned tid = 0;
    double begin_us = 0.0;
    double end_us = -1.0;
  };

  double NowUs() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< Span id i + 1 lives at index i.
};

// --- Processes -----------------------------------------------------------

/// User + system CPU seconds of this process.
double SelfCpuSeconds();
double SelfPeakRssMiB();

/// CPU seconds (all threads) and peak RSS of another live process.
struct ProcUsage {
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
};
ProcUsage ReadProcUsage(pid_t pid);

/// Starts `argv` with the current environment plus `extra_env`
/// ("KEY=value") and stdout sent to /dev/null. The child gets SIGTERM if
/// this process dies first.
pid_t Spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& extra_env);

/// Waits for `pid`; returns its exit code (128 + signal when killed) and,
/// when `cpu_s` is non-null, the user + system CPU seconds it used.
int WaitExit(pid_t pid, double* cpu_s = nullptr);

}  // namespace amdmb::perf
