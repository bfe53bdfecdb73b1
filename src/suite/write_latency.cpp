#include "suite/write_latency.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

il::Kernel WriteLatencyKernel(const WriteLatencyConfig& config,
                              ShaderMode mode, DataType type,
                              unsigned outputs) {
  GenericSpec spec;
  spec.inputs = config.inputs;
  spec.outputs = outputs;
  spec.alu_ops = config.alu_ops;
  spec.type = type;
  spec.read_path = ReadPath::kTexture;
  spec.write_path =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : config.write_path;
  spec.name = "writelat_out" + std::to_string(outputs);
  return GenerateGeneric(spec);
}

WriteLatencyResult RunWriteLatency(const Runner& runner, ShaderMode mode,
                                   DataType type,
                                   const WriteLatencyConfig& config) {
  Require(config.min_outputs >= 1 &&
              config.max_outputs >= config.min_outputs,
          "WriteLatency: invalid output sweep");
  Require(config.max_outputs <= config.inputs,
          "WriteLatency: the paper keeps outputs below the input size so "
          "GPR usage stays pinned by the inputs");
  const sim::LaunchConfig launch =
      config.Launch(config.domain, mode, config.block);
  const auto outputs_of = [&](std::size_t i) {
    return config.min_outputs + static_cast<unsigned>(i);
  };
  const auto name_of = [&](std::size_t i) {
    return "writelat_out" + std::to_string(outputs_of(i));
  };
  WriteLatencyResult result;
  SweepPoints<WriteLatencyPoint>(
      config.max_outputs - config.min_outputs + 1,
      [&](std::size_t i) { return static_cast<double>(outputs_of(i)); },
      [&](std::size_t i, unsigned attempt) {
        return WriteLatencyPoint{
            outputs_of(i),
            runner.Measure(
                WriteLatencyKernel(config, mode, type, outputs_of(i)), launch,
                {name_of(i), attempt})};
      },
      name_of, config, config.adaptive, result);

  std::vector<double> xs;
  std::vector<double> ys;
  for (const WriteLatencyPoint& point : result.points) {
    xs.push_back(point.outputs);
    ys.push_back(point.m.seconds);
  }
  result.fit = FitLine(xs, ys);
  return result;
}

std::vector<report::Finding> Findings(const WriteLatencyResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings{
      {report::FindingKind::kSlope, curve, "seconds_per_output",
       result.fit.slope, "s/output", ""},
      {report::FindingKind::kRatio, curve, "fit_r2", result.fit.r2, "", ""}};
  result.AppendAdaptiveFindings(findings, curve, "outputs");
  return findings;
}

}  // namespace amdmb::suite
