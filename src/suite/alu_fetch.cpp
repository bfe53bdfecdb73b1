#include "suite/alu_fetch.hpp"

#include "common/status.hpp"
#include "common/table.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

il::Kernel AluFetchKernel(const AluFetchConfig& config, ShaderMode mode,
                          DataType type, double ratio) {
  GenericSpec spec;
  spec.inputs = config.inputs;
  spec.outputs = config.outputs;
  spec.alu_ops = AluOpsForRatio(ratio, config.inputs);
  spec.type = type;
  spec.read_path = config.read_path;
  // Compute mode cannot write color buffers (Sec. IV-C).
  spec.write_path = mode == ShaderMode::kCompute ? WritePath::kGlobal
                                                 : config.write_path;
  spec.name = "alufetch_r" + FormatDouble(ratio, 2);
  return GenerateGeneric(spec);
}

AluFetchResult RunAluFetch(const Runner& runner, ShaderMode mode,
                           DataType type, const AluFetchConfig& config) {
  Require(config.ratio_step > 0.0 && config.ratio_min > 0.0 &&
              config.ratio_max >= config.ratio_min,
          "AluFetch: invalid ratio sweep");
  std::vector<double> ratios;
  for (double ratio = config.ratio_min; ratio <= config.ratio_max + 1e-9;
       ratio += config.ratio_step) {
    ratios.push_back(ratio);
  }

  const sim::LaunchConfig launch =
      config.Launch(config.domain, mode, config.block);
  const auto name_of = [&](std::size_t i) {
    return "alufetch_r" + FormatDouble(ratios[i], 2);
  };
  AluFetchResult result;
  SweepPoints<AluFetchPoint>(
      ratios.size(), [&](std::size_t i) { return ratios[i]; },
      [&](std::size_t i, unsigned attempt) {
        return AluFetchPoint{
            ratios[i],
            runner.Measure(AluFetchKernel(config, mode, type, ratios[i]),
                           launch, {name_of(i), attempt})};
      },
      name_of, config, config.adaptive, result);

  std::vector<adapt::Sample> samples;
  samples.reserve(result.points.size());
  for (const AluFetchPoint& point : result.points) {
    samples.push_back(
        {point.ratio, std::string(sim::ToString(point.m.stats.bottleneck))});
  }
  if (const auto t = adapt::FirstTransitionTo(
          samples, std::string(sim::ToString(sim::Bottleneck::kAlu)))) {
    result.crossover = t->upper_x;
  }
  return result;
}

std::vector<report::Finding> Findings(const AluFetchResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  findings.push_back({report::FindingKind::kCrossover, curve,
                      "alu_bound_crossover", result.crossover, "ratio", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "fetch_bound_flat_seconds",
                      result.points.front().m.seconds, "s", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "max_ratio_seconds", result.points.back().m.seconds,
                      "s", ""});
  result.AppendAdaptiveFindings(findings, curve, "ratio");
  return findings;
}

}  // namespace amdmb::suite
