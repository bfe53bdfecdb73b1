#include "cal/cal.hpp"

#include "common/env.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/collector.hpp"

namespace amdmb::cal {

Device Device::Open(std::string_view name) {
  return Device(ArchByName(name));
}

Context::Context(const Device& device)
    : gpu_(std::make_unique<sim::Gpu>(device.Info())) {}

Module Context::Compile(const il::Kernel& kernel,
                        const CallContext& call) const {
  const std::string_view point =
      call.point.empty() ? std::string_view(kernel.name) : call.point;
  CheckInjectedFault(fault::FaultSite::kCompile, point, call.attempt);
  isa::Program program = compiler::Compile(kernel, gpu_->Arch());
  const compiler::SkaReport ska = compiler::Analyze(program, gpu_->Arch());
  return Module(std::move(program), ska);
}

RunEvent Context::Run(const Module& module, const sim::LaunchConfig& config,
                      const CallContext& call) {
  return Launch(*gpu_, module.Program(), config, call);
}

RunEvent Launch(const sim::Gpu& gpu, const isa::Program& program,
                const sim::LaunchConfig& config, const CallContext& call) {
  const std::string_view point =
      call.point.empty() ? std::string_view(program.name) : call.point;
  CheckInjectedFault(fault::FaultSite::kLaunch, point, call.attempt);
  CheckInjectedFault(fault::FaultSite::kHang, point, call.attempt);
  sim::LaunchConfig bounded = config;
  if (bounded.watchdog_cycles == 0) {
    bounded.watchdog_cycles = sim::DefaultWatchdogCycles();
  }
  // A fresh collector per call: a retried attempt starts from zeroed
  // counters, so retries can never double-count.
  std::unique_ptr<prof::Collector> collector;
  if (bounded.profile || prof::ProfilingEnabled()) {
    collector = std::make_unique<prof::Collector>(env::Get().trace_capacity);
  }
  RunEvent event;
  try {
    event.stats = gpu.Execute(program, bounded, collector.get());
  } catch (const sim::WatchdogTimeout& e) {
    throw CalError(CalResult::kCalTimeout, "launch", std::string(point),
                   call.attempt, e.what());
  }
  CheckInjectedFault(fault::FaultSite::kReadback, point, call.attempt);
  event.seconds = event.stats.seconds;
  if (collector != nullptr) {
    prof::Profile profile = collector->Take();
    profile.kernel = program.name;
    profile.point = std::string(point);
    profile.arch = gpu.Arch().name;
    profile.mode = ToString(bounded.mode);
    profile.type = ToString(program.sig.type);
    profile.attempt = call.attempt;
    // Export before publishing: a parallel sweep writes each point's
    // trace from its own worker, and the arch/mode/type-qualified file
    // name keeps concurrent curves from colliding.
    if (const std::string dir = prof::TraceDirectory(); !dir.empty()) {
      prof::WriteChromeTrace(profile, dir);
    }
    event.profile =
        std::make_shared<const prof::Profile>(std::move(profile));
  }
  return event;
}

}  // namespace amdmb::cal
