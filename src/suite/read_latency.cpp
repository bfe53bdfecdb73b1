#include "suite/read_latency.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

il::Kernel ReadLatencyKernel(const ReadLatencyConfig& config,
                             ShaderMode mode, DataType type,
                             unsigned inputs) {
  GenericSpec spec;
  spec.inputs = inputs;
  spec.outputs = 1;
  // Sec. III-B: ALU ops fixed to inputs - 1 so the fetch stays the
  // bottleneck.
  spec.alu_ops = inputs - 1;
  spec.type = type;
  spec.read_path = config.read_path;
  spec.write_path =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : WritePath::kStream;
  spec.name = "readlat_in" + std::to_string(inputs);
  return GenerateGeneric(spec);
}

ReadLatencyResult RunReadLatency(const Runner& runner, ShaderMode mode,
                                 DataType type,
                                 const ReadLatencyConfig& config) {
  Require(config.min_inputs >= 2 && config.max_inputs >= config.min_inputs,
          "ReadLatency: invalid input sweep");
  const sim::LaunchConfig launch =
      config.Launch(config.domain, mode, config.block);
  const auto inputs_of = [&](std::size_t i) {
    return config.min_inputs + static_cast<unsigned>(i);
  };
  const auto name_of = [&](std::size_t i) {
    return "readlat_in" + std::to_string(inputs_of(i));
  };
  ReadLatencyResult result;
  SweepPoints(
      config.max_inputs - config.min_inputs + 1,
      [&](std::size_t i) { return static_cast<double>(inputs_of(i)); },
      [&](std::size_t i, unsigned attempt) {
        return runner.Measure(
            ReadLatencyKernel(config, mode, type, inputs_of(i)), launch,
            {name_of(i), attempt});
      },
      name_of, config, result);

  std::vector<double> xs;
  std::vector<double> ys;
  for (const SweepPoint& point : result.points) {
    xs.push_back(point.x);
    ys.push_back(point.m.seconds);
  }
  result.fit = FitLine(xs, ys);
  return result;
}

std::vector<report::Finding> Findings(const ReadLatencyResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings{
      {report::FindingKind::kSlope, curve, "seconds_per_input",
       result.fit.slope, "s/input", ""},
      {report::FindingKind::kRatio, curve, "fit_r2", result.fit.r2, "", ""}};
  result.AppendAdaptiveFindings(findings, curve, "inputs");
  return findings;
}

}  // namespace amdmb::suite
