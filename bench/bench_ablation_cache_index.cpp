// Ablation: the 2-D texture-cache set indexing. The paper attributes the
// 64x1 compute penalty partly to "only half the cache is used" because
// the cache is organised in two dimensions. Disabling the 2-D index
// isolates how much of the naive-block penalty that organisation causes
// versus plain partial-line waste.
#include "bench_common.hpp"

namespace {

using namespace amdmb;
using namespace amdmb::suite;
using bench::FigureSink;

FigureSink g_sink(
    "Ablation — 2-D Cache Set Indexing",
    "64x1 compute fetch latency with/without 2-D indexing",
    "Number of Inputs", "Time in seconds",
    "With 2-D indexing off, 64x1 blocks regain the full cache capacity: "
    "the curves separate where inter-row line reuse fits in a full but "
    "not in a halved cache.");

ReadLatencyConfig Config() {
  ReadLatencyConfig config;
  if (bench::QuickMode()) config.domain = Domain{256, 256};
  return config;
}

void Register() {
  for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
    const std::string type_name(ToString(type));
    bench::RegisterCurveBenchmark("CacheIndex/RV770_" + type_name, [type,
                                                                    type_name] {
      GpuArch on = MakeRV770();
      GpuArch off = MakeRV770();
      off.l1.two_d_index = false;
      Runner r_on(on);
      Runner r_off(off);
      const ReadLatencyResult with_2d =
          RunReadLatency(r_on, ShaderMode::kCompute, type, Config());
      const ReadLatencyResult without_2d =
          RunReadLatency(r_off, ShaderMode::kCompute, type, Config());
      Series& s1 = g_sink.Set().Get("4870 64x1 " + type_name + " 2D-index");
      Series& s2 = g_sink.Set().Get("4870 64x1 " + type_name + " flat-index");
      const std::string on_curve = "4870 " + type_name + " 2D-index";
      const std::string off_curve = "4870 " + type_name + " flat-index";
      figures::NoteFaults(g_sink.Record(), on_curve, with_2d.report);
      figures::NoteProfiles(g_sink.Record(), on_curve, with_2d.points);
      figures::NoteFaults(g_sink.Record(), off_curve, without_2d.report);
      figures::NoteProfiles(g_sink.Record(), off_curve, without_2d.points);
      double max_gap = 0;
      const std::size_t paired =
          std::min(with_2d.points.size(), without_2d.points.size());
      for (const ReadLatencyPoint& p : with_2d.points) {
        s1.Add(p.inputs, p.m.seconds);
      }
      for (const ReadLatencyPoint& p : without_2d.points) {
        s2.Add(p.inputs, p.m.seconds);
      }
      for (std::size_t i = 0; i < paired; ++i) {
        max_gap = std::max(max_gap, with_2d.points[i].m.seconds /
                                        without_2d.points[i].m.seconds);
      }
      if (with_2d.points.empty()) return 0.0;
      if (paired > 0) {
        g_sink.Add({report::FindingKind::kRatio, "4870 64x1 " + type_name,
                    "two_d_index_penalty_max", max_gap, "x",
                    "max 2D-index over flat-index time across paired input "
                    "counts"});
      }
      return with_2d.points.back().m.seconds;
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register();
  return amdmb::bench::RunBenchMain(argc, argv, {&g_sink});
}
