#include "suite/register_usage.hpp"

#include "common/status.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

RegisterUsageResult RunRegisterUsage(const Runner& runner, ShaderMode mode,
                                     DataType type,
                                     const RegisterUsageConfig& config) {
  Require(config.max_step >= config.min_step,
          "RegisterUsage: invalid step sweep");
  RegisterUsageResult result;

  sim::LaunchConfig launch;
  launch.domain = config.domain;
  launch.mode = mode;
  launch.block = config.block;
  launch.repetitions = config.repetitions;
  launch.profile = config.profile;

  const auto step_of = [&](std::size_t i) {
    return config.min_step + static_cast<unsigned>(i);
  };
  const auto name_of = [&](std::size_t i) {
    return "regusage_s" + std::to_string(step_of(i));
  };
  result.points = SweepPoints<RegisterUsagePoint>(
      config.max_step - config.min_step + 1,
      [&](std::size_t i) { return static_cast<double>(step_of(i)); },
      [&](std::size_t i, unsigned attempt) {
        RegisterUsageSpec spec;
        spec.inputs = config.inputs;
        spec.space = config.space;
        spec.step = step_of(i);
        spec.alu_fetch_ratio = config.alu_fetch_ratio;
        spec.type = type;
        spec.read_path = ReadPath::kTexture;
        spec.write_path = mode == ShaderMode::kCompute ? WritePath::kGlobal
                                                       : WritePath::kStream;
        spec.name = name_of(i);
        const il::Kernel kernel = config.clause_control
                                      ? GenerateClauseUsage(spec)
                                      : GenerateRegisterUsage(spec);
        RegisterUsagePoint point;
        point.step = spec.step;
        point.m = runner.Measure(kernel, launch, {spec.name, attempt});
        point.gpr_count = point.m.stats.gpr_count;
        return point;
      },
      name_of, config.adaptive, config.executor, config.retry, config.cancel,
      &result.report, &result.adaptive);
  return result;
}

std::vector<report::Finding> Findings(const RegisterUsageResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  const RegisterUsagePoint& first = result.points.front();
  const RegisterUsagePoint& last = result.points.back();
  findings.push_back({report::FindingKind::kPlateau, curve, "gpr_max",
                      static_cast<double>(first.gpr_count), "GPRs", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "gpr_max_seconds", first.m.seconds, "s", ""});
  findings.push_back({report::FindingKind::kPlateau, curve, "gpr_min",
                      static_cast<double>(last.gpr_count), "GPRs", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "gpr_min_seconds", last.m.seconds, "s", ""});
  findings.push_back({report::FindingKind::kRatio, curve, "register_speedup",
                      first.m.seconds / last.m.seconds, "x", ""});
  if (result.adaptive.has_value()) {
    // Adaptive-only: dense documents must stay byte-identical.
    const auto extra =
        adapt::AdaptiveFindings(*result.adaptive, curve, "step");
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
  return findings;
}

std::vector<report::Finding> ControlFindings(
    const RegisterUsageResult& control, const std::string& curve) {
  if (control.points.empty()) return {};
  double cmin = control.points.front().m.seconds;
  double cmax = cmin;
  for (const RegisterUsagePoint& p : control.points) {
    cmin = std::min(cmin, p.m.seconds);
    cmax = std::max(cmax, p.m.seconds);
  }
  return {{report::FindingKind::kRatio, curve, "level_variation",
           (cmax - cmin) / cmax, "",
           "pinned-GPR control spread; flat when < 0.2"}};
}

}  // namespace amdmb::suite
