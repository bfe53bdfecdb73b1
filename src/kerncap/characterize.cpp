#include "kerncap/characterize.hpp"

#include <optional>
#include <utility>

#include "common/status.hpp"
#include "report/json_sink.hpp"
#include "sim/gpu.hpp"
#include "suite/sweep.hpp"

namespace amdmb::kerncap {

std::vector<unsigned> SweepDomains(bool quick) {
  if (quick) return {64, 128, 256};
  return {64, 128, 256, 512};
}

std::vector<suite::CurveKey> EligibleCurves(const il::Kernel& kernel) {
  std::vector<suite::CurveKey> curves;
  for (const GpuArch& arch : AllArchs()) {
    curves.push_back({arch, ShaderMode::kPixel, kernel.sig.type});
    // Compute mode cannot write color buffers (Sec. IV-C), and RV670
    // has no compute mode at all — both would throw in the sim, so the
    // curve set is trimmed instead.
    if (arch.supports_compute &&
        kernel.sig.write_path != WritePath::kStream) {
      curves.push_back({arch, ShaderMode::kCompute, kernel.sig.type});
    }
  }
  return curves;
}

std::string FigureId(const Prepared& prepared) {
  return "Kerncap — " + prepared.kernel.name + " " + prepared.hash;
}

std::string Slug(const Prepared& prepared) {
  return report::FigureSlug(FigureId(prepared));
}

suite::Measurement MeasureAt(const Prepared& prepared, const GpuArch& arch,
                             const sim::LaunchConfig& config,
                             const std::string& point_label,
                             unsigned attempt) {
  const suite::Runner runner(arch);
  return runner.Measure(prepared.kernel, config, {point_label, attempt});
}

namespace {

void OperatingPointFindings(report::Figure& figure, const std::string& name,
                            const suite::Measurement& op) {
  figure.findings.push_back({report::FindingKind::kPlateau, name,
                             "operating_point_seconds", op.seconds, "s",
                             ""});
  figure.findings.push_back(
      {report::FindingKind::kEvent, name, "operating_point_bottleneck",
       std::nullopt, "",
       std::string(sim::ToString(op.stats.bottleneck))});
  figure.findings.push_back(
      {report::FindingKind::kEvent, name, "operating_point_attributed",
       std::nullopt, "",
       std::string(sim::ToString(op.profile->attribution.bottleneck))});
}

/// One measured rung of a curve's domain ladder.
struct Rung {
  unsigned domain = 0;
  suite::Measurement m;
};

void RunCurve(report::Figure& figure, const Prepared& prepared,
              const suite::CurveKey& key,
              const std::vector<unsigned>& domains,
              const CharacterizeOptions& options) {
  const std::string name = key.Name();
  const auto wavefronts_of = [&](unsigned domain) {
    return static_cast<double>(domain) * domain / key.arch.wavefront_size;
  };
  const auto name_of = [&](std::size_t i) {
    return "domain_" + std::to_string(domains[i]);
  };
  // Retry behaviour is pinned (not RetryPolicy::FromEnv) so the ladder,
  // and with it the document, matches across daemon flavors regardless
  // of the host's AMDMB_RETRY.
  const suite::SweepOptions sweep{.profile = true,
                                  .executor = options.executor,
                                  .retry = exec::RetryPolicy{}};
  suite::SweepResult<Rung> rungs;
  suite::SweepPoints<Rung>(
      domains.size(), [&](std::size_t i) { return wavefronts_of(domains[i]); },
      [&](std::size_t i, unsigned attempt) {
        sim::LaunchConfig launch = sweep.Launch(
            Domain{domains[i], domains[i]}, key.mode, BlockShape{64, 1});
        launch.watchdog_cycles = options.watchdog_cycles;
        return Rung{domains[i],
                    MeasureAt(prepared, key.arch, launch, name_of(i), attempt)};
      },
      name_of, sweep, options.adaptive, rungs);

  Series& series = figure.set.Get(name);
  for (const Rung& rung : rungs.points) {
    series.Add(wavefronts_of(rung.domain), rung.m.seconds);
  }
  suite::figures::Note(figure, name, rungs);
  Require(!rungs.points.empty() && rungs.points.back().domain == domains.back(),
          "kerncap: operating point failed");
  OperatingPointFindings(figure, name, rungs.points.back().m);
  rungs.AppendAdaptiveFindings(figure.findings, name, "wavefronts");
}

}  // namespace

report::Figure Characterize(const Prepared& prepared,
                            const CharacterizeOptions& options,
                            const suite::figures::CurveCallback& on_curve) {
  report::Figure figure(
      FigureId(prepared), "Kernel Characterization", "Wavefronts",
      "Time in seconds",
      "Submitted kernel: static SKA view per architecture plus a "
      "profiled domain sweep around the operating point.");
  for (const ArchStatic& s : prepared.statics) {
    for (report::Finding& f : StaticFindings(s)) {
      figure.findings.push_back(std::move(f));
    }
  }
  const std::vector<suite::CurveKey> curves =
      EligibleCurves(prepared.kernel);
  const std::vector<unsigned> domains = SweepDomains(options.quick);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    RunCurve(figure, prepared, curves[i], domains, options);
    if (on_curve) on_curve(i, curves.size(), curves[i].Name(), figure);
  }
  report::FinalizeMeta(figure);
  figure.meta.quick = options.quick;
  // Byte-determinism across AMDMB_THREADS and daemon flavors: the two
  // env-dependent meta fields are pinned to the analysis contract, not
  // the process snapshot. Sweep results themselves are bit-identical at
  // any executor width (exec::SweepExecutor::Map's ordering guarantee).
  figure.meta.threads = 1;
  figure.meta.watchdog_cycles = options.watchdog_cycles;
  figure.meta.adaptive = options.adaptive != nullptr;
  return figure;
}

}  // namespace amdmb::kerncap
