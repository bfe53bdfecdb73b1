// CAL-style runtime facade.
//
// The paper's suite is written against AMD's Compute Abstraction Layer:
// open a device, create a context, compile an IL kernel to a module,
// bind resources, run over a domain, and read a timer event. This module
// reproduces that workflow on top of the simulator so the suite and the
// examples read like the original StreamSDK code — including its failure
// modes: every boundary consults the deterministic fault injector
// (src/fault) and reports failures as CalResult codes via CalError, and
// a launch is bounded by a watchdog cycle budget so a hung simulation
// surfaces as kCalTimeout instead of spinning forever.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "arch/gpu_arch.hpp"
#include "cal/cal_result.hpp"
#include "compiler/compiler.hpp"
#include "compiler/ska.hpp"
#include "il/il.hpp"
#include "prof/profile.hpp"
#include "sim/gpu.hpp"

namespace amdmb::cal {

/// Identifies one runtime call for fault injection and error reporting:
/// which sweep point it serves and which attempt this is (the retry
/// layer increments `attempt`, which re-rolls the injected-fault
/// decision deterministically).
struct CallContext {
  std::string point;     ///< Empty => the kernel's (program's) name.
  unsigned attempt = 1;  ///< 1-based attempt counter.
};

/// An opened GPU (one of the three generations in Table I).
class Device {
 public:
  explicit Device(GpuArch arch) : arch_(std::move(arch)) {}

  /// Opens by chip or card name ("RV770", "4870", ...).
  static Device Open(std::string_view name);

  const GpuArch& Info() const { return arch_; }
  bool SupportsComputeShader() const { return arch_.supports_compute; }

 private:
  GpuArch arch_;
};

/// A compiled kernel plus its static analysis.
class Module {
 public:
  Module(isa::Program program, compiler::SkaReport ska)
      : program_(std::move(program)), ska_(ska) {}

  const isa::Program& Program() const { return program_; }
  const compiler::SkaReport& Ska() const { return ska_; }
  std::string Disassemble() const { return isa::Disassemble(program_); }

 private:
  isa::Program program_;
  compiler::SkaReport ska_;
};

/// Result of a kernel run: the timer value the paper reports (seconds for
/// all repetitions) plus the simulator's dynamic counters — and, when the
/// launch was profiled (LaunchConfig::profile or AMDMB_PROF), the
/// hardware-counter profile read back alongside the timer.
struct RunEvent {
  double seconds = 0.0;
  sim::KernelStats stats;
  /// Null unless the launch was profiled. Shared (not copied) because
  /// the profile carries the capped event stream.
  std::shared_ptr<const prof::Profile> profile;
};

class Context {
 public:
  explicit Context(const Device& device);

  /// Compiles IL through the CAL compiler (verification included).
  /// Consults the fault injector at the compile boundary; an injected
  /// fault throws CalError{kCalCompileFailed}.
  Module Compile(const il::Kernel& kernel, const CallContext& call = {}) const;

  /// Launches the module over the configured domain and reads the timer
  /// (see Launch).
  RunEvent Run(const Module& module, const sim::LaunchConfig& config,
               const CallContext& call = {});

  const GpuArch& Arch() const { return gpu_->Arch(); }

 private:
  std::unique_ptr<sim::Gpu> gpu_;
};

/// The one launch discipline behind Context::Run and suite::Runner:
/// runs `program` on `gpu` over the configured domain and reads the
/// timer. Consults the fault injector at the launch / hang / readback
/// boundaries, keyed on `call.point` (the program's name when empty),
/// and bounds the launch with `config.watchdog_cycles` (falling back to
/// AMDMB_WATCHDOG); failures surface as CalError with the matching
/// CalResult (a hung launch as kCalTimeout). When profiling is requested
/// (config.profile or AMDMB_PROF) a fresh prof::Collector rides the
/// launch, so a retried attempt never double-counts; RunEvent::profile
/// is filled, and with AMDMB_TRACE_DIR set the launch's Chrome trace is
/// written there before the event returns.
RunEvent Launch(const sim::Gpu& gpu, const isa::Program& program,
                const sim::LaunchConfig& config, const CallContext& call = {});

}  // namespace amdmb::cal
