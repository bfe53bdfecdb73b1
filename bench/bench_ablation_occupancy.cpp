// Ablation: the scheduler's wavefront-residency cap. The paper never
// states the hardware cap; this sweep shows how the Fig. 16 register
// effect depends on it — with a tiny cap the register sweep cannot
// convert freed GPRs into occupancy and flattens out.
#include "bench_common.hpp"

namespace {

using namespace amdmb;
using namespace amdmb::suite;
using bench::FigureSink;

FigureSink g_sink(
    "Ablation — Wavefront Residency Cap",
    "Fig. 16 register sweep under different max-wavefront caps",
    "Global Purpose Registers", "Time in seconds",
    "The register-pressure speedup requires headroom in the residency "
    "cap; with cap=4 the sweep flattens, with cap>=16 it saturates.");

RegisterUsageConfig Config() {
  RegisterUsageConfig config;
  if (bench::QuickMode()) config.domain = Domain{256, 256};
  return config;
}

void Register() {
  for (const unsigned cap : {2u, 4u, 8u, 16u, 24u, 32u}) {
    bench::RegisterCurveBenchmark("OccupancyCap/" + std::to_string(cap),
                                  [cap] {
      GpuArch arch = MakeRV770();
      arch.max_wavefronts_per_simd = cap;
      Runner runner(arch);
      const RegisterUsageResult r = RunRegisterUsage(
          runner, ShaderMode::kPixel, DataType::kFloat, Config());
      Series& series = g_sink.Set().Get("cap=" + std::to_string(cap));
      for (const RegisterUsagePoint& p : r.points) {
        series.Add(p.gpr_count, p.m.seconds);
      }
      figures::NoteFaults(g_sink.Record(), "cap=" + std::to_string(cap),
                          r.report);
      figures::NoteProfiles(g_sink.Record(), "cap=" + std::to_string(cap),
                            r.points);
      if (r.points.empty()) return 0.0;
      g_sink.Add({report::FindingKind::kRatio, "cap=" + std::to_string(cap),
                  "sweep_improvement",
                  r.points.front().m.seconds / r.points.back().m.seconds,
                  "x", "first over last sweep point"});
      return r.points.back().m.seconds;
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  return amdmb::bench::RunBenchMain(argc, argv, {&g_sink});
}
