#include "suite/domain_size.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

DomainSizeResult RunDomainSize(const Runner& runner, ShaderMode mode,
                               DataType type, const DomainSizeConfig& config) {
  Require(config.min_size > 0 && config.max_size >= config.min_size,
          "DomainSize: invalid sweep");
  const unsigned increment = mode == ShaderMode::kPixel
                                 ? config.pixel_increment
                                 : config.compute_increment;
  Require(increment > 0, "DomainSize: increment must be positive");

  GenericSpec spec;
  spec.inputs = config.inputs;
  spec.outputs = 1;
  spec.alu_ops = AluOpsForRatio(config.alu_fetch_ratio, config.inputs);
  spec.type = type;
  spec.read_path = ReadPath::kTexture;
  spec.write_path =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : WritePath::kStream;
  spec.name = "domain_sweep";
  const il::Kernel kernel = GenerateGeneric(spec);

  std::vector<unsigned> sizes;
  for (unsigned size = config.min_size; size <= config.max_size;
       size += increment) {
    sizes.push_back(size);
  }

  const auto name_of = [&](std::size_t i) {
    return "domain_" + std::to_string(sizes[i]);
  };
  DomainSizeResult result;
  result.points = SweepPoints<DomainSizePoint>(
      sizes.size(),
      [&](std::size_t i) { return static_cast<double>(sizes[i]); },
      [&](std::size_t i, unsigned attempt) {
        sim::LaunchConfig launch;
        launch.domain = Domain{sizes[i], sizes[i]};
        launch.mode = mode;
        launch.block = config.block;
        launch.repetitions = config.repetitions;
        launch.profile = config.profile;
        DomainSizePoint point;
        point.size = sizes[i];
        point.m = runner.Measure(kernel, launch, {name_of(i), attempt});
        return point;
      },
      name_of, config.adaptive, config.executor, config.retry, config.cancel,
      &result.report, &result.adaptive);
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
  if (result.adaptive.has_value()) {
    // Adaptive-only: dense documents must stay byte-identical.
    const auto extra =
        adapt::AdaptiveFindings(*result.adaptive, curve, "size");
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
  return findings;
}

}  // namespace amdmb::suite
