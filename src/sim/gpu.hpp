// Whole-GPU timing simulator.
//
// Event-driven at clause granularity: every resident wavefront advances
// clause by clause; ALU clauses contend for the per-SIMD ALU pipeline,
// TEX clauses for the per-SIMD texture units and the shared texture
// cache, and all off-chip traffic funnels through one shared memory
// controller. The simulator reports total cycles plus per-resource busy
// shares, from which it classifies the kernel's bottleneck — the paper's
// three metrics: ALU utilisation, texture fetch, memory access
// (Sec. II-A).
#pragma once

#include <cstdint>
#include <string>

#include "arch/gpu_arch.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "compiler/isa.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace amdmb::prof {
class Collector;
}  // namespace amdmb::prof

namespace amdmb::sim {

/// Kernel launch parameters (the per-run knobs the paper varies).
/// Granularity at which resident wavefronts interleave on the ALU
/// pipeline. Hardware interleaves per VLIW instruction; simulating in
/// 32-bundle chunks keeps event counts low while making clause
/// boundaries timing-neutral (the paper's Fig. 5 control experiment).
inline constexpr unsigned kAluInterleaveBundles = 32;

struct LaunchConfig {
  Domain domain{1024, 1024};
  ShaderMode mode = ShaderMode::kPixel;
  BlockShape block{64, 1};  ///< Compute-mode block shape (64x1 naive).
  /// The paper times 5000 back-to-back executions of each kernel
  /// (Sec. III); reported seconds scale by this count.
  unsigned repetitions = 5000;
  /// Watchdog cycle budget for one launch: a simulation whose event
  /// clock passes this many cycles throws WatchdogTimeout instead of
  /// spinning forever (0 = unlimited, the default). The CAL layer maps
  /// the timeout to CalResult::kCalTimeout.
  Cycles watchdog_cycles = 0;
  /// Request hardware-counter profiling for this launch even when
  /// AMDMB_PROF is unset. The CAL layer / suite Runner consult this (or
  /// prof::ProfilingEnabled()) and attach a prof::Collector to Execute.
  bool profile = false;
};

/// One executed clause (or ALU-chunk) of one wavefront, as reported to
/// an attached prof::Collector.
struct TraceEvent {
  Cycles issue = 0;     ///< When the wavefront wanted to run the clause.
  Cycles start = 0;     ///< When the resource began serving it.
  Cycles complete = 0;  ///< When the wavefront could proceed.
  std::uint32_t wave = 0;
  std::uint16_t simd = 0;
  std::uint16_t clause = 0;
  isa::ClauseType type = isa::ClauseType::kAlu;
};

/// Thrown by Gpu::Execute when a launch exceeds its watchdog cycle
/// budget. Transient — a hung kernel is worth one more try.
class WatchdogTimeout : public TransientError {
 public:
  WatchdogTimeout(Cycles budget, Cycles reached);

  Cycles Budget() const { return budget_; }
  Cycles Reached() const { return reached_; }

 private:
  Cycles budget_;
  Cycles reached_;
};

/// Default watchdog budget from AMDMB_WATCHDOG (cycles per launch),
/// validated once; 0 when unset. Throws ConfigError for non-numeric
/// values.
Cycles DefaultWatchdogCycles();

/// Which hardware resource bounds the kernel (paper Sec. II-A).
enum class Bottleneck { kAlu, kFetch, kMemory };

std::string_view ToString(Bottleneck b);

/// Everything one simulated launch reports.
struct KernelStats {
  Cycles cycles = 0;      ///< One launch, start to full drain.
  double seconds = 0.0;   ///< All repetitions at the chip's core clock.
  double alu_utilization = 0.0;   ///< Busiest SIMD's ALU pipeline share.
  double fetch_utilization = 0.0; ///< Busiest SIMD's texture unit share.
  double memory_utilization = 0.0;///< Shared memory controller share.
  Bottleneck bottleneck = Bottleneck::kAlu;
  mem::CacheStats cache;
  mem::DramStats dram;
  unsigned gpr_count = 0;
  unsigned resident_wavefronts = 0;  ///< Per SIMD.
  std::uint64_t wavefront_count = 0;

  std::string Render() const;

  /// Exact equality (doubles compared bitwise) — the determinism
  /// guarantee of the parallel sweep executor is *bit*-identical stats
  /// at any thread count.
  bool operator==(const KernelStats&) const = default;
};

class Gpu {
 public:
  explicit Gpu(GpuArch arch);

  /// Simulates one launch of the compiled kernel. Throws ConfigError for
  /// impossible launches (compute mode on RV670, streaming stores in
  /// compute mode, non-wavefront-divisible domains). When `collector` is
  /// non-null the launch feeds the hardware-counter instrumentation hooks
  /// (prof::Collector), every executed clause included, with no effect
  /// on the returned KernelStats.
  ///
  /// Const and shared-nothing: every piece of launch state (cache,
  /// memory controller, SIMD engines, event queue) is built locally, so
  /// concurrent Execute calls on one Gpu are safe — the property the
  /// parallel sweep executor relies on.
  KernelStats Execute(const isa::Program& program, const LaunchConfig& config,
                      prof::Collector* collector = nullptr) const;

  const GpuArch& Arch() const { return arch_; }

 private:
  GpuArch arch_;
  /// Derived once at construction instead of per launch.
  mem::CacheConfig tex_cache_config_;
};

}  // namespace amdmb::sim
