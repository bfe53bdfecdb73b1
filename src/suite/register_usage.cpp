#include "suite/register_usage.hpp"

#include "common/status.hpp"

namespace amdmb::suite {

il::Kernel RegisterUsageKernel(const RegisterUsageConfig& config,
                               ShaderMode mode, DataType type,
                               unsigned step) {
  RegisterUsageSpec spec;
  spec.inputs = config.inputs;
  spec.space = config.space;
  spec.step = step;
  spec.alu_fetch_ratio = config.alu_fetch_ratio;
  spec.type = type;
  spec.read_path = ReadPath::kTexture;
  spec.write_path =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : WritePath::kStream;
  spec.name = "regusage_s" + std::to_string(step);
  return config.clause_control ? GenerateClauseUsage(spec)
                               : GenerateRegisterUsage(spec);
}

RegisterUsageResult RunRegisterUsage(const Runner& runner, ShaderMode mode,
                                     DataType type,
                                     const RegisterUsageConfig& config) {
  Require(config.max_step >= config.min_step,
          "RegisterUsage: invalid step sweep");
  const sim::LaunchConfig launch =
      config.Launch(config.domain, mode, config.block);
  const auto step_of = [&](std::size_t i) {
    return config.min_step + static_cast<unsigned>(i);
  };
  const auto name_of = [&](std::size_t i) {
    return "regusage_s" + std::to_string(step_of(i));
  };
  RegisterUsageResult result;
  SweepPoints(
      config.max_step - config.min_step + 1,
      [&](std::size_t i) { return static_cast<double>(step_of(i)); },
      [&](std::size_t i, unsigned attempt) {
        return runner.Measure(
            RegisterUsageKernel(config, mode, type, step_of(i)), launch,
            {name_of(i), attempt});
      },
      name_of, config, result);
  return result;
}

std::vector<report::Finding> RegisterUsageFindings(
    const RegisterUsageResult& result, const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  const Measurement& first = result.points.front().m;
  const Measurement& last = result.points.back().m;
  findings.push_back({report::FindingKind::kPlateau, curve, "gpr_max",
                      static_cast<double>(first.stats.gpr_count), "GPRs",
                      ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "gpr_max_seconds", first.seconds, "s", ""});
  findings.push_back({report::FindingKind::kPlateau, curve, "gpr_min",
                      static_cast<double>(last.stats.gpr_count), "GPRs", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "gpr_min_seconds", last.seconds, "s", ""});
  findings.push_back({report::FindingKind::kRatio, curve, "register_speedup",
                      first.seconds / last.seconds, "x", ""});
  result.AppendAdaptiveFindings(findings, curve, "step");
  return findings;
}

std::vector<report::Finding> ControlFindings(
    const RegisterUsageResult& control, const std::string& curve) {
  if (control.points.empty()) return {};
  double cmin = control.points.front().m.seconds;
  double cmax = cmin;
  for (const SweepPoint& p : control.points) {
    cmin = std::min(cmin, p.m.seconds);
    cmax = std::max(cmax, p.m.seconds);
  }
  return {{report::FindingKind::kRatio, curve, "level_variation",
           (cmax - cmin) / cmax, "",
           "pinned-GPR control spread; flat when < 0.2"}};
}

}  // namespace amdmb::suite
