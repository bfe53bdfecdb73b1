// Deterministic, seedable fault injection.
//
// The real StreamSDK/CAL runtime fails in the field — compile errors,
// transient launch failures, hung kernels — and a benchmark harness has
// to survive them (ALTIS/Mirovia report per-kernel failures instead of
// dying; see PAPERS.md). This module injects those failures on demand so
// the resilience path is testable: the CAL layer consults the injector
// at its compile / launch / readback boundaries, and the sweep executor
// retries or skips the affected points.
//
// Determinism: whether a fault fires is a pure function of
// (spec seed, site, key) — typically key = "<point>#<attempt>" — so the
// fault schedule is identical across runs and thread interleavings, and
// a retried attempt draws a fresh, independent decision.
//
// Configured via AMDMB_FAULTS, e.g.
//   AMDMB_FAULTS=compile:0.01,launch:0.02,hang:0.001,seed=42
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace amdmb::fault {

/// Runtime boundary at which a fault can be injected.
enum class FaultSite : unsigned {
  kCompile = 0,      ///< IL -> ISA compilation fails.
  kLaunch = 1,       ///< Kernel launch fails transiently.
  kHang = 2,         ///< Kernel never finishes; the watchdog must fire.
  kReadback = 3,     ///< Timer/counter readback fails.
  kWorkerCrash = 4,  ///< Fleet worker process exits hard on a heartbeat.
  kWorkerHang = 5,   ///< Fleet worker stops answering heartbeats.
};

std::string_view ToString(FaultSite site);

/// Per-site fault probabilities plus the schedule seed.
struct FaultSpec {
  double compile = 0.0;
  double launch = 0.0;
  double hang = 0.0;
  double readback = 0.0;
  double worker_crash = 0.0;
  double worker_hang = 0.0;
  std::uint64_t seed = 0;

  double Probability(FaultSite site) const;
  bool AnyEnabled() const {
    return compile > 0.0 || launch > 0.0 || hang > 0.0 || readback > 0.0 ||
           worker_crash > 0.0 || worker_hang > 0.0;
  }

  /// Parses "site:prob,...,seed=N" (":" and "=" both accepted as
  /// separators). Sites: compile, launch, hang, readback, worker_crash,
  /// worker_hang. Probabilities must lie in [0, 1]. Throws ConfigError
  /// on anything malformed.
  static FaultSpec Parse(std::string_view text);
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

  /// True when the fault fires. Pure in (spec, site, key), so
  /// concurrent callers always agree.
  bool ShouldFail(FaultSite site, std::string_view key) const;

  const FaultSpec& Spec() const { return spec_; }

 private:
  FaultSpec spec_;
};

/// The process-wide injector: parsed from AMDMB_FAULTS on first use
/// (throwing ConfigError on a malformed spec), nullptr when the variable
/// is unset or empty. ScopedFaultInjector overrides it for tests.
const FaultInjector* GlobalInjector();

/// RAII override of the global injector (tests install a spec without
/// touching the environment). Restores the previous injector on
/// destruction. Not thread-safe against concurrent installs.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(const FaultSpec& spec);
  explicit ScopedFaultInjector(std::string_view spec);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector injector_;
  const FaultInjector* previous_;
};

}  // namespace amdmb::fault
