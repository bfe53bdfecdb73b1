// Centralized AMDMB_* environment handling.
//
// Every knob the suite reads from the environment is parsed and
// validated here, exactly once, with one descriptive-error path: a
// malformed value throws ConfigError naming the offending variable
// before any sweep runs. Downstream modules (exec, fault, sim, bench)
// consult the cached snapshot instead of scattering getenv calls.
//
// Knobs:
//   AMDMB_QUICK      smoke-scale domains/sweeps ("1" on, "0"/unset off).
//   AMDMB_THREADS    sweep-executor width, integer in [1, 4096].
//   AMDMB_JSON_DIR   machine-readable BENCH_<figure>.json output dir.
//   AMDMB_DUMP_DIR   gnuplot .dat/.gp output dir.
//   AMDMB_FAULTS     fault-injection spec (parsed by fault::FaultSpec).
//   AMDMB_RETRY      retry-policy spec (parsed by exec::RetryPolicy).
//   AMDMB_WATCHDOG   per-launch cycle budget, non-negative integer.
//   AMDMB_PROF       hardware-counter profiling ("1" on, "0"/unset off).
//   AMDMB_TRACE_DIR  Chrome-trace (trace_event JSON) output directory.
//   AMDMB_TRACE_CAP  per-launch trace/event capacity, positive integer.
//   AMDMB_SERVE_SOCKET    amdmb_serve / amdmb_client Unix-socket path.
//   AMDMB_SERVE_QUEUE     daemon admission queue depth, [0, 4096].
//   AMDMB_SERVE_INFLIGHT  daemon max concurrent sweeps, [1, 64].
//   AMDMB_WORKERS         supervised worker processes, [0, 32]; 0 = the
//                         single-process daemon (no fleet).
//   AMDMB_DEADLINE_MS     per-request deadline in ms, 0 = unlimited.
//   AMDMB_HEARTBEAT_MS    worker heartbeat interval in ms, [10, 60000].
//   AMDMB_ADAPT           adaptive (coarse-to-fine) sweeps in the bench
//                         binaries ("1" on, "0"/unset off).
//   AMDMB_ADAPT_TOL       adaptive bracket tolerance in dense grid
//                         steps, [1, 64].
//   AMDMB_ADAPT_BUDGET    max measured points per adaptive refinement,
//                         non-negative integer; 0 = unlimited.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace amdmb::env {

/// Parsed snapshot of every AMDMB_* knob. Scalar knobs are validated at
/// parse time; the fault/retry specs stay raw here (their grammar lives
/// in fault::FaultSpec::Parse and exec::RetryPolicy::Parse, which the
/// owning modules invoke on these strings).
struct Options {
  bool quick = false;
  std::optional<unsigned> threads;       ///< AMDMB_THREADS, [1, 4096].
  std::optional<std::string> json_dir;   ///< AMDMB_JSON_DIR.
  std::optional<std::string> dump_dir;   ///< AMDMB_DUMP_DIR.
  std::optional<std::string> faults;     ///< AMDMB_FAULTS, raw spec.
  std::optional<std::string> retry;      ///< AMDMB_RETRY, raw spec.
  std::uint64_t watchdog_cycles = 0;     ///< AMDMB_WATCHDOG, 0 = unlimited.
  bool prof = false;                     ///< AMDMB_PROF.
  std::optional<std::string> trace_dir;  ///< AMDMB_TRACE_DIR.
  std::size_t trace_capacity = 1u << 20; ///< AMDMB_TRACE_CAP.
  /// AMDMB_SERVE_SOCKET; the daemon and client fall back to
  /// kDefaultServeSocket when unset.
  std::optional<std::string> serve_socket;
  std::size_t serve_queue = 16;          ///< AMDMB_SERVE_QUEUE, [0, 4096].
  unsigned serve_inflight = 1;           ///< AMDMB_SERVE_INFLIGHT, [1, 64].
  unsigned workers = 0;                  ///< AMDMB_WORKERS, [0, 32].
  std::uint64_t deadline_ms = 0;         ///< AMDMB_DEADLINE_MS, 0 = off.
  std::uint64_t heartbeat_ms = 250;      ///< AMDMB_HEARTBEAT_MS.
  bool adapt = false;                    ///< AMDMB_ADAPT.
  unsigned adapt_tol = 2;                ///< AMDMB_ADAPT_TOL, [1, 64].
  std::uint64_t adapt_budget = 0;        ///< AMDMB_ADAPT_BUDGET, 0 = off.
};

/// Socket path used when AMDMB_SERVE_SOCKET is unset.
inline constexpr std::string_view kDefaultServeSocket =
    "/tmp/amdmb_serve.sock";

/// Worker-count grammar shared by AMDMB_THREADS and explicit configs:
/// a positive integer no larger than 4096. Throws ConfigError.
unsigned ParseThreadCount(std::string_view text);

/// AMDMB_WATCHDOG grammar: a non-negative cycle count. Throws
/// ConfigError.
std::uint64_t ParseWatchdogCycles(std::string_view text);

/// AMDMB_TRACE_CAP grammar: a positive event count (the bound on a
/// launch's prof::Collector event buffers). Throws ConfigError.
std::size_t ParseTraceCapacity(std::string_view text);

/// AMDMB_SERVE_QUEUE grammar: a queue depth in [0, 4096] (0 = no
/// queueing beyond the in-flight slots). Throws ConfigError.
std::size_t ParseServeQueue(std::string_view text);

/// AMDMB_SERVE_INFLIGHT grammar: concurrent-sweep bound in [1, 64].
/// Throws ConfigError.
unsigned ParseServeInflight(std::string_view text);

/// AMDMB_WORKERS grammar: supervised worker-process count in [0, 32]
/// (0 = single-process daemon). Throws ConfigError.
unsigned ParseWorkerCount(std::string_view text);

/// AMDMB_DEADLINE_MS grammar: a non-negative millisecond count
/// (0 = no per-request deadline). Throws ConfigError.
std::uint64_t ParseDeadlineMs(std::string_view text);

/// AMDMB_HEARTBEAT_MS grammar: heartbeat interval in [10, 60000] ms.
/// Throws ConfigError.
std::uint64_t ParseHeartbeatMs(std::string_view text);

/// AMDMB_ADAPT_TOL grammar: a bracket tolerance in dense grid steps,
/// [1, 64]. Throws ConfigError.
unsigned ParseAdaptTol(std::string_view text);

/// AMDMB_ADAPT_BUDGET grammar: a non-negative point cap per adaptive
/// refinement (0 = unlimited). Throws ConfigError.
std::uint64_t ParseAdaptBudget(std::string_view text);

/// Pure parser behind Get(): `lookup` plays the role of getenv (returns
/// nullptr when a variable is unset; empty strings count as unset, the
/// historical behaviour of every knob). Exposed for tests.
Options ParseFrom(const std::function<const char*(const char*)>& lookup);

/// The process snapshot, parsed and validated from the real environment
/// once on first use. Throws ConfigError on the first call if any knob
/// is malformed.
const Options& Get();

}  // namespace amdmb::env
