// Extension bench: the block-size explorer (paper Sec. IV / future
// work). Sweeps every one-wavefront rectangular compute block shape for
// a fetch-bound kernel on RV770 and RV870 and reports the optimum and
// the naive 64x1 penalty.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace amdmb;
using namespace amdmb::suite;
using bench::FigureSink;

FigureSink g_sink(
    "Extension — Compute Block-Size Explorer",
    "Fetch-bound time per compute block shape", "log2(block width)",
    "Time in seconds",
    "The paper suggests 4x16 but notes one block size may not be best "
    "for all GPUs; the explorer finds each chip's optimum and quantifies "
    "the naive 64x1 penalty.");

void Register() {
  for (const GpuArch& arch : AllArchs()) {
    if (!arch.supports_compute) continue;
    for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
      const CurveKey key{arch, ShaderMode::kCompute, type};
      bench::RegisterCurveBenchmark("BlockSize/" + key.Name(), [key] {
        BlockSizeConfig config;
        config.type = key.type;
        if (bench::QuickMode()) config.domain = Domain{256, 256};
        Runner runner(key.arch);
        const BlockSizeResult r = RunBlockSizeExplorer(runner, config);
        Series& series = g_sink.Set().Get(key.Name());
        for (const BlockSizePoint& p : r.points) {
          series.Add(std::log2(static_cast<double>(p.block.x)),
                     p.m.seconds);
        }
        figures::NoteFaults(g_sink.Record(), key.Name(), r.report);
        figures::NoteProfiles(g_sink.Record(), key.Name(), r.points);
        if (r.points.empty()) return 0.0;
        g_sink.Add(Findings(r, key.Name()));
        return r.best_seconds;
      });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  return amdmb::bench::RunBenchMain(argc, argv, {&g_sink});
}
