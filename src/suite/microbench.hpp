// Measurement harness shared by all micro-benchmarks: compile an IL
// kernel, launch it on the simulated GPU, and collect the timer plus the
// dynamic counters (the paper times 5000 launches per kernel, Sec. III).
#pragma once

#include <string>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "cal/cal.hpp"
#include "compiler/ska.hpp"
#include "exec/kernel_cache.hpp"
#include "exec/sweep_executor.hpp"
#include "il/il.hpp"
#include "prof/profile.hpp"
#include "sim/gpu.hpp"

namespace amdmb::suite {

/// One measured kernel execution.
struct Measurement {
  double seconds = 0.0;  ///< Timer over all repetitions.
  sim::KernelStats stats;
  compiler::SkaReport ska;
  /// Null unless the launch was profiled (config.profile or AMDMB_PROF).
  std::shared_ptr<const prof::Profile> profile;
};

/// Compiles and runs kernels on one GPU.
///
/// Const-safe: Measure builds all launch state locally and the kernel
/// cache is internally synchronized, so one Runner may serve every
/// worker of a parallel sweep concurrently.
class Runner {
 public:
  /// Compilations go through `cache` (the process-wide shared cache by
  /// default), so sweeps that re-launch the same kernel compile it once.
  explicit Runner(const GpuArch& arch,
                  exec::KernelCache* cache = &exec::KernelCache::Shared());

  /// Measures one launch. The compile boundary's fault check runs before
  /// the kernel cache, so the schedule is independent of cache state;
  /// the launch itself goes through cal::Launch (fault checks, watchdog,
  /// profiling and trace export), and every failure surfaces as a
  /// cal::CalError carrying the stage, point, and attempt.
  Measurement Measure(const il::Kernel& kernel,
                      const sim::LaunchConfig& config,
                      const cal::CallContext& ctx = {}) const;

  const GpuArch& Arch() const { return gpu_.Arch(); }

 private:
  sim::Gpu gpu_;
  exec::KernelCache* cache_;
};

/// One curve of a paper figure: a GPU generation in a shader mode with a
/// data type — e.g. "4870 Pixel Float4".
struct CurveKey {
  GpuArch arch;
  ShaderMode mode = ShaderMode::kPixel;
  DataType type = DataType::kFloat;

  /// Legend label in the paper's format ("3870 Pixel Float").
  std::string Name() const;
};

/// The curves the paper plots: every GPU x mode x type combination that
/// exists (RV670 has no compute mode). `archs` defaults to all three.
std::vector<CurveKey> PaperCurves(bool include_pixel = true,
                                  bool include_compute = true,
                                  const std::vector<GpuArch>& archs = {});

/// Standard repetition count used throughout the paper.
inline constexpr unsigned kPaperRepetitions = 5000;

}  // namespace amdmb::suite
