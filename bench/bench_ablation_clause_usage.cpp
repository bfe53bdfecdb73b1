// Ablation (paper Fig. 5 control): the clause-usage kernel keeps the
// register-usage kernel's exact ALU segmentation (forced clause breaks)
// but samples every input up front, pinning GPR usage. The paper uses it
// to prove Fig. 16's speedup comes from register pressure, not from
// moving ALU ops across clauses.
#include "bench_common.hpp"

namespace {

using namespace amdmb;
using namespace amdmb::suite;
using bench::FigureSink;

FigureSink g_sink(
    "Ablation — Clause Usage Control (paper Fig. 5)",
    "Register kernel vs clause-usage control", "step", "Time in seconds",
    "The control kernel's execution time is constant across steps (its "
    "GPR count never falls), while the register-usage kernel speeds up.");

RegisterUsageConfig Config(bool control) {
  RegisterUsageConfig config;
  config.clause_control = control;
  if (bench::QuickMode()) config.domain = Domain{256, 256};
  return config;
}

void Register() {
  for (const GpuArch& arch : {MakeRV670(), MakeRV770(), MakeRV870()}) {
    bench::RegisterCurveBenchmark("Fig05Control/" + arch.name, [arch] {
      Runner runner(arch);
      const RegisterUsageResult sweep = RunRegisterUsage(
          runner, ShaderMode::kPixel, DataType::kFloat, Config(false));
      const RegisterUsageResult control = RunRegisterUsage(
          runner, ShaderMode::kPixel, DataType::kFloat, Config(true));
      Series& s1 = g_sink.Set().Get(arch.name + " register kernel");
      Series& s2 = g_sink.Set().Get(arch.name + " clause control");
      figures::NoteFaults(g_sink.Record(), arch.name + " register kernel",
                          sweep.report);
      figures::NoteProfiles(g_sink.Record(), arch.name + " register kernel",
                            sweep.points);
      figures::NoteFaults(g_sink.Record(), arch.name + " clause control",
                          control.report);
      figures::NoteProfiles(g_sink.Record(), arch.name + " clause control",
                            control.points);
      for (const RegisterUsagePoint& p : sweep.points) {
        s1.Add(p.step, p.m.seconds);
      }
      for (const RegisterUsagePoint& p : control.points) {
        s2.Add(p.step, p.m.seconds);
      }
      if (sweep.points.empty() || control.points.empty()) return 0.0;
      g_sink.Add({report::FindingKind::kRatio,
                  arch.name + " register kernel", "register_speedup",
                  sweep.points.front().m.seconds /
                      sweep.points.back().m.seconds,
                  "x", "first over last sweep point"});
      g_sink.Add(ControlFindings(control, arch.name + " clause control"));
      return control.points.back().m.seconds;
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  return amdmb::bench::RunBenchMain(argc, argv, {&g_sink});
}
