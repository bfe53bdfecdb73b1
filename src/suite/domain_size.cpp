#include "suite/domain_size.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

il::Kernel DomainSizeKernel(const DomainSizeConfig& config, ShaderMode mode,
                            DataType type) {
  GenericSpec spec;
  spec.inputs = config.inputs;
  spec.outputs = 1;
  spec.alu_ops = AluOpsForRatio(config.alu_fetch_ratio, config.inputs);
  spec.type = type;
  spec.read_path = ReadPath::kTexture;
  spec.write_path =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : WritePath::kStream;
  spec.name = "domain_sweep";
  return GenerateGeneric(spec);
}

DomainSizeResult RunDomainSize(const Runner& runner, ShaderMode mode,
                               DataType type, const DomainSizeConfig& config) {
  Require(config.min_size > 0 && config.max_size >= config.min_size,
          "DomainSize: invalid sweep");
  const unsigned increment = mode == ShaderMode::kPixel
                                 ? config.pixel_increment
                                 : config.compute_increment;
  Require(increment > 0, "DomainSize: increment must be positive");
  const il::Kernel kernel = DomainSizeKernel(config, mode, type);

  std::vector<unsigned> sizes;
  for (unsigned size = config.min_size; size <= config.max_size;
       size += increment) {
    sizes.push_back(size);
  }

  const auto name_of = [&](std::size_t i) {
    return "domain_" + std::to_string(sizes[i]);
  };
  DomainSizeResult result;
  SweepPoints<DomainSizePoint>(
      sizes.size(),
      [&](std::size_t i) { return static_cast<double>(sizes[i]); },
      [&](std::size_t i, unsigned attempt) {
        return DomainSizePoint{
            sizes[i],
            runner.Measure(
                kernel,
                config.Launch(Domain{sizes[i], sizes[i]}, mode, config.block),
                {name_of(i), attempt})};
      },
      name_of, config, config.adaptive, result);
  return result;
}

std::vector<report::Finding> Findings(const DomainSizeResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  findings.push_back({report::FindingKind::kRatio, curve, "sweep_growth",
                      result.points.back().m.seconds /
                          result.points.front().m.seconds,
                      "x", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "max_domain_seconds", result.points.back().m.seconds,
                      "s", ""});
  result.AppendAdaptiveFindings(findings, curve, "size");
  return findings;
}

}  // namespace amdmb::suite
