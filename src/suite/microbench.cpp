#include "suite/microbench.hpp"

#include "compiler/compiler.hpp"

namespace amdmb::suite {

Runner::Runner(const GpuArch& arch, exec::KernelCache* cache)
    : gpu_(arch), cache_(cache) {}

Measurement Runner::Measure(const il::Kernel& kernel,
                            const sim::LaunchConfig& config,
                            const cal::CallContext& ctx) const {
  // Resolved from this kernel's name, not the program's: the cache hands
  // one program, named after the kernel that compiled it, to every
  // kernel that lowers to it.
  const cal::CallContext call{ctx.point.empty() ? kernel.name : ctx.point,
                              ctx.attempt};
  // The compile boundary is checked before the cache lookup so the fault
  // schedule never depends on what some other point compiled first.
  cal::CheckInjectedFault(fault::FaultSite::kCompile, call.point,
                          call.attempt);
  const std::shared_ptr<const isa::Program> program =
      cache_ != nullptr
          ? cache_->Compile(kernel, gpu_.Arch())
          : std::make_shared<const isa::Program>(
                compiler::Compile(kernel, gpu_.Arch()));
  Measurement m;
  m.ska = compiler::Analyze(*program, gpu_.Arch());
  cal::RunEvent event = cal::Launch(gpu_, *program, config, call);
  m.seconds = event.seconds;
  m.stats = event.stats;
  m.profile = std::move(event.profile);
  return m;
}

std::string CurveKey::Name() const {
  // "Radeon HD 4870" -> "4870".
  std::string card = arch.card;
  if (const auto pos = card.rfind(' '); pos != std::string::npos) {
    card = card.substr(pos + 1);
  }
  return card + " " + std::string(ToString(mode)) + " " +
         std::string(ToString(type));
}

std::vector<CurveKey> PaperCurves(bool include_pixel, bool include_compute,
                                  const std::vector<GpuArch>& archs) {
  const std::vector<GpuArch> all = archs.empty() ? AllArchs() : archs;
  std::vector<CurveKey> curves;
  for (const GpuArch& arch : all) {
    for (const ShaderMode mode : {ShaderMode::kPixel, ShaderMode::kCompute}) {
      if (mode == ShaderMode::kPixel && !include_pixel) continue;
      if (mode == ShaderMode::kCompute &&
          (!include_compute || !arch.supports_compute)) {
        continue;
      }
      for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
        curves.push_back(CurveKey{arch, mode, type});
      }
    }
  }
  return curves;
}

}  // namespace amdmb::suite
