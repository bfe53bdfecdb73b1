// The documents beside the numbered figures: Table I, the block-size
// extension, the Fig. 5 clause-usage control, three model ablations and
// the 2D bottleneck frontier map.
//
// Each of the first six Make* functions is a former bench binary's
// Register() body: same curve order, series names, findings,
// degradations and profile entries, so a quick or paper-scale build is
// byte-identical to what that binary wrote. They stay out of
// Registry(), which the daemon serves and the repo benchmark pins; this
// file is linked only into the programs that call Supplements().
#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/refiner.hpp"
#include "adapt/transition.hpp"
#include "arch/occupancy.hpp"
#include "suite/figures.hpp"
#include "suite/suite.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite::figures {

namespace {

FigureDef MakeTableI() {
  FigureDef def;
  def.slug = "table_i";
  def.id = "Table I";
  def.title = "GPU Hardware Features";
  def.x_label = "row";
  def.y_label = "value";
  def.paper_claim =
      "RV670/RV770/RV870 core configuration as tested on the 3870/4870/5870 "
      "boards.";
  def.what = "hardware features and execution-model identities (findings)";
  def.curves.push_back({"render", [](report::Figure& fig, const RunOptions&) {
    for (const GpuArch& arch : AllArchs()) {
      fig.findings.push_back(
          {report::FindingKind::kPlateau, arch.name, "alu_count",
           static_cast<double>(arch.alu_count), "ALUs",
           std::to_string(arch.thread_processors_per_simd) + " TPs x " +
               std::to_string(arch.vliw_width) + " lanes x " +
               std::to_string(arch.simd_engines) + " SIMDs; " +
               std::to_string(arch.tex_units_per_simd) +
               " texture units/SIMD; compute shader: " +
               (arch.supports_compute ? "yes" : "no")});
    }
    const GpuArch rv770 = MakeRV770();
    fig.findings.push_back(
        {report::FindingKind::kPlateau, rv770.name,
         "theoretical_wavefronts_5gpr",
         static_cast<double>(TheoreticalWavefronts(rv770, 5)), "wavefronts",
         "occupancy check, paper Sec. II-B (paper: 51)"});
  }});
  return def;
}

// Paper Sec. IV / future work: every one-wavefront compute block shape
// for a fetch-bound kernel, with the optimum and the naive 64x1
// penalty. The explorer has no adaptive mode, so it always sweeps
// densely.
FigureDef MakeBlockSizeExplorer() {
  FigureDef def;
  def.slug = "extension_compute_block_size_explorer";
  def.id = "Extension — Compute Block-Size Explorer";
  def.title = "Fetch-bound time per compute block shape";
  def.x_label = "log2(block width)";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "The paper suggests 4x16 but notes one block size may not be best "
      "for all GPUs; the explorer finds each chip's optimum and quantifies "
      "the naive 64x1 penalty.";
  def.what = "block-shape sweep, fetch-bound compute kernel";
  for (const GpuArch& arch : AllArchs()) {
    if (!arch.supports_compute) continue;
    for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
      const CurveKey key{arch, ShaderMode::kCompute, type};
      def.curves.push_back(
          {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
             BlockSizeConfig config = Quick<BlockSizeConfig>(opts);
             config.type = key.type;
             Runner runner(key.arch);
             const BlockSizeResult r = RunBlockSizeExplorer(runner, config);
             Plot(fig.set.Get(key.Name()), r);
             Note(fig, opts, key.Name(), r);
             Append(fig, Findings(r, key.Name()));
           }});
    }
  }
  return def;
}

// Paper Fig. 5: the clause-usage kernel keeps the register-usage
// kernel's ALU segmentation but samples every input up front, pinning
// GPR usage, so Fig. 16's speedup is shown to come from register
// pressure.
FigureDef MakeClauseUsageControl() {
  FigureDef def;
  def.slug = "ablation_clause_usage_control_paper_fig_5";
  def.id = "Ablation — Clause Usage Control (paper Fig. 5)";
  def.title = "Register kernel vs clause-usage control";
  def.x_label = "step";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "The control kernel's execution time is constant across steps (its "
      "GPR count never falls), while the register-usage kernel speeds up.";
  def.what = "register-usage sweep against the clause-usage control";
  for (const GpuArch& arch : AllArchs()) {
    def.curves.push_back(
        {arch.name, [arch](report::Figure& fig, const RunOptions& opts) {
           RegisterUsageConfig config = Quick<RegisterUsageConfig>(opts);
           Runner runner(arch);
           const RegisterUsageResult sweep = RunRegisterUsage(
               runner, ShaderMode::kPixel, DataType::kFloat, config);
           config.clause_control = true;
           const RegisterUsageResult control = RunRegisterUsage(
               runner, ShaderMode::kPixel, DataType::kFloat, config);
           const std::string kernel = arch.name + " register kernel";
           const std::string control_name = arch.name + " clause control";
           Plot(fig.set.Get(kernel), sweep);
           Plot(fig.set.Get(control_name), control);
           Note(fig, opts, kernel, sweep);
           Note(fig, opts, control_name, control);
           if (sweep.points.empty() || control.points.empty()) return;
           fig.findings.push_back(
               {report::FindingKind::kRatio, kernel, "register_speedup",
                sweep.points.front().m.seconds /
                    sweep.points.back().m.seconds,
                "x", "first over last sweep point"});
           Append(fig, ControlFindings(control, control_name));
         }});
  }
  return def;
}

// The paper attributes part of the 64x1 compute penalty to the 2-D
// texture-cache organisation ("only half the cache is used"); turning
// the 2-D index off separates that from plain partial-line waste.
FigureDef MakeCacheIndexAblation() {
  FigureDef def;
  def.slug = "ablation_2_d_cache_set_indexing";
  def.id = "Ablation — 2-D Cache Set Indexing";
  def.title = "64x1 compute fetch latency with/without 2-D indexing";
  def.x_label = "Number of Inputs";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "With 2-D indexing off, 64x1 blocks regain the full cache capacity: "
      "the curves separate where inter-row line reuse fits in a full but "
      "not in a halved cache.";
  def.what = "compute read latency with and without 2-D cache indexing";
  for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
    const std::string type_name(ToString(type));
    def.curves.push_back(
        {"4870 " + type_name,
         [type, type_name](report::Figure& fig, const RunOptions& opts) {
           GpuArch flat = MakeRV770();
           flat.l1.two_d_index = false;
           const ReadLatencyConfig config = Quick<ReadLatencyConfig>(opts);
           const ReadLatencyResult with_2d = RunReadLatency(
               Runner(MakeRV770()), ShaderMode::kCompute, type, config);
           const ReadLatencyResult without_2d = RunReadLatency(
               Runner(flat), ShaderMode::kCompute, type, config);
           Plot(fig.set.Get("4870 64x1 " + type_name + " 2D-index"), with_2d);
           Plot(fig.set.Get("4870 64x1 " + type_name + " flat-index"),
                without_2d);
           const std::string on_curve = "4870 " + type_name + " 2D-index";
           const std::string off_curve = "4870 " + type_name + " flat-index";
           Note(fig, opts, on_curve, with_2d);
           Note(fig, opts, off_curve, without_2d);
           // Paired by input count: an adaptive or faulted sweep may
           // measure different inputs on the two sides.
           bool paired = false;
           double max_gap = 0;
           for (const SweepPoint& on : with_2d.points) {
             for (const SweepPoint& off : without_2d.points) {
               if (off.index != on.index) continue;
               paired = true;
               max_gap = std::max(max_gap, on.m.seconds / off.m.seconds);
             }
           }
           if (!paired) return;
           fig.findings.push_back(
               {report::FindingKind::kRatio, "4870 64x1 " + type_name,
                "two_d_index_penalty_max", max_gap, "x",
                "max 2D-index over flat-index time across paired input "
                "counts"});
         }});
  }
  return def;
}

// The paper never states the scheduler's wavefront-residency cap; with
// a tiny cap the Fig. 16 register sweep cannot turn freed GPRs into
// occupancy and flattens out.
FigureDef MakeOccupancyAblation() {
  FigureDef def;
  def.slug = "ablation_wavefront_residency_cap";
  def.id = "Ablation — Wavefront Residency Cap";
  def.title = "Fig. 16 register sweep under different max-wavefront caps";
  def.x_label = "Global Purpose Registers";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "The register-pressure speedup requires headroom in the residency "
      "cap; with cap=4 the sweep flattens, with cap>=16 it saturates.";
  def.what = "register-usage sweep per wavefront-residency cap";
  for (const unsigned cap : {2u, 4u, 8u, 16u, 24u, 32u}) {
    const std::string name = "cap=" + std::to_string(cap);
    def.curves.push_back(
        {name, [cap, name](report::Figure& fig, const RunOptions& opts) {
           GpuArch arch = MakeRV770();
           arch.max_wavefronts_per_simd = cap;
           const RegisterUsageResult r = RunRegisterUsage(
               Runner(arch), ShaderMode::kPixel, DataType::kFloat,
               Quick<RegisterUsageConfig>(opts));
           Series& series = fig.set.Get(name);
           for (const SweepPoint& p : r.points) {
             series.Add(p.m.stats.gpr_count, p.m.seconds);
           }
           Note(fig, opts, name, r);
           if (r.points.empty()) return;
           fig.findings.push_back(
               {report::FindingKind::kRatio, name, "sweep_improvement",
                r.points.front().m.seconds / r.points.back().m.seconds, "x",
                "first over last sweep point"});
         }});
  }
  return def;
}

// DRAM row-activation cost on texture-line fills. Activations overlap
// with other banks' transfers by default (penalty 0); the naive 64x1
// block touches the most distinct rows per wavefront under Morton
// tiling and degrades fastest, as the paper's remark on 64x1 "memory
// bank conflicts" suggests.
FigureDef MakeRowLocalityAblation() {
  FigureDef def;
  def.slug = "ablation_dram_row_activation_penalty_on_fills";
  def.id = "Ablation — DRAM Row-Activation Penalty on Fills";
  def.title = "Fetch-bound time vs row-switch penalty per dispatch shape";
  def.x_label = "Row-switch penalty (cycles)";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Pixel-mode 8x8 tiles keep fills row-local; 64x1 compute blocks "
      "degrade fastest as the penalty grows.";
  def.what = "fetch-bound time per DRAM row-switch penalty";
  struct Shape {
    std::string name;
    ShaderMode mode;
    BlockShape block;
  };
  const std::vector<Shape> shapes = {
      {"4870 pixel 8x8", ShaderMode::kPixel, {64, 1}},
      {"4870 compute 64x1", ShaderMode::kCompute, {64, 1}},
      {"4870 compute 4x16", ShaderMode::kCompute, {4, 16}},
  };
  for (const Shape& shape : shapes) {
    def.curves.push_back(
        {shape.name, [shape](report::Figure& fig, const RunOptions& opts) {
           static constexpr std::array<Cycles, 5> kPenalties = {0, 8, 16, 32,
                                                                64};
           GenericSpec spec;
           spec.inputs = 16;
           spec.alu_ops = 16;  // Ratio 0.25: firmly fetch-bound.
           spec.type = DataType::kFloat4;
           spec.write_path = shape.mode == ShaderMode::kCompute
                                 ? WritePath::kGlobal
                                 : WritePath::kStream;
           const il::Kernel kernel = GenerateGeneric(spec);
           const auto sweep = Quick<SweepOptions>(opts);
           const sim::LaunchConfig launch = sweep.Launch(
               opts.quick ? Domain{256, 256} : Domain{1024, 1024},
               shape.mode, shape.block);
           SweepResult r;
           SweepPoints(
               kPenalties.size(),
               [](std::size_t i) { return static_cast<double>(kPenalties[i]); },
               [&](std::size_t i, unsigned attempt) {
                 GpuArch arch = MakeRV770();
                 arch.dram.row_switch_cycles = kPenalties[i];
                 // No point name: faults and profiles are keyed on the
                 // kernel's name.
                 return Runner(arch).Measure(kernel, launch, {"", attempt});
               },
               [](std::size_t i) {
                 return "row_penalty_" + std::to_string(kPenalties[i]);
               },
               sweep, r);
           Plot(fig.set.Get(shape.name), r);
           Note(fig, opts, shape.name, r);
           if (r.points.empty()) return;
           fig.findings.push_back(
               {report::FindingKind::kRatio, shape.name,
                "row_penalty_slowdown",
                r.points.back().m.seconds / r.points.front().m.seconds, "x",
                "time at penalty 64 over penalty 0"});
         }});
  }
  return def;
}

// Figs. 7 and 16 crossed: the register-ladder kernel's bottleneck over
// the ALU:Fetch ratio x ladder-step plane on the 4870, refined by
// quadrant (adapt::RefineGrid). The lowest ratio leaves every ladder
// row an ALU budget that PlanUsage accepts.
FigureDef MakeFrontier() {
  FigureDef def;
  def.slug = "frontier_alu_fetch_x_gpr";
  def.id = "Frontier ALU:Fetch x GPR";
  def.title = "Bottleneck Frontier Map (4870 Pixel)";
  def.x_label = "ALU:Fetch Ratio";
  def.y_label = "Register Ladder Step";
  def.paper_claim =
      "The ALU-bound region should grow toward lower ratios as the "
      "register ladder frees GPRs and occupancy rises (Figs. 7 and 16 "
      "crossed)";
  def.what = "2D bottleneck map, ALU:Fetch ratio x register-ladder step";
  const std::string curve = "ALU-bound boundary";
  def.curves.push_back(
      {curve, [curve](report::Figure& fig, const RunOptions& opts) {
         static constexpr double kRatioMin = 0.75;
         static constexpr double kRatioMax = 8.0;
         const std::size_t nx = opts.quick ? 5 : 9;
         const std::size_t ny = opts.quick ? 4 : 8;
         RegisterUsageConfig config = Quick<RegisterUsageConfig>(opts);
         config.repetitions = opts.quick ? 50 : 100;
         const sim::LaunchConfig launch = config.Launch(
             opts.quick ? Domain{128, 128} : Domain{256, 256},
             ShaderMode::kPixel, config.block);
         const Runner runner(MakeRV770());
         const auto ratio_of = [nx](std::size_t ix) {
           return kRatioMin + (kRatioMax - kRatioMin) *
                                  static_cast<double>(ix) /
                                  static_cast<double>(nx - 1);
         };
         // Each measured node's Measurement, grid-indexed (y outermost).
         // Waves touch distinct nodes, so the slot writes never race.
         std::vector<std::optional<Measurement>> slots(nx * ny);
         adapt::FrontierResult refined = adapt::RefineGrid(
             nx, ny, ratio_of,
             [](std::size_t iy) { return static_cast<double>(iy); },
             [&](std::size_t ix, std::size_t iy, unsigned attempt) {
               RegisterUsageConfig node = config;
               node.alu_fetch_ratio = ratio_of(ix);
               // The point name keys faults and degradation text.
               Measurement m = runner.Measure(
                   RegisterUsageKernel(node, ShaderMode::kPixel,
                                       DataType::kFloat,
                                       static_cast<unsigned>(iy)),
                   launch,
                   {"frontier_x" + std::to_string(ix) + "_y" +
                        std::to_string(iy),
                    attempt});
               std::string label(sim::ToString(m.stats.bottleneck));
               slots[iy * nx + ix] = std::move(m);
               return label;
             },
             config.adaptive, config.executor, config.retry, config.cancel);
         refined.frontier.x_label = "ALU:Fetch Ratio";
         refined.frontier.y_label = "Register Ladder Step";

         // The boundary curve: per ladder step, the first ratio classified
         // ALU-bound (rows with no flip contribute no point).
         const std::string alu_label(sim::ToString(sim::Bottleneck::kAlu));
         Series& boundary = fig.set.Get(curve);
         for (std::size_t iy = 0; iy < ny; ++iy) {
           std::vector<adapt::Sample> row;
           for (std::size_t ix = 0; ix < nx; ++ix) {
             const std::string& label = refined.frontier.cells[iy * nx + ix];
             if (!label.empty()) row.push_back({ratio_of(ix), label});
           }
           if (const auto t = adapt::FirstTransitionTo(row, alu_label)) {
             boundary.Add(t->upper_x, static_cast<double>(iy));
             fig.findings.push_back(
                 {report::FindingKind::kCrossover, curve,
                  "row_crossover_step" + std::to_string(iy), t->upper_x,
                  "ratio", std::string(adapt::ToString(t->kind))});
           }
         }
         fig.findings.push_back(
             {report::FindingKind::kEvent, curve, "frontier_points",
              static_cast<double>(refined.frontier.points_measured),
              "points",
              "of " + std::to_string(refined.frontier.points_dense) +
                  " dense nodes"});
         // Note reads each node's measurement; x stays 0 on a 2D grid.
         SweepResult nodes;
         nodes.report = std::move(refined.report);
         for (std::size_t i = 0; i < slots.size(); ++i) {
           if (slots[i]) {
             nodes.points.push_back({.index = i, .m = std::move(*slots[i])});
           }
         }
         Note(fig, opts, curve, nodes);
         fig.frontier = std::move(refined.frontier);
       }});
  return def;
}

}  // namespace

const std::vector<FigureDef>& Supplements() {
  static const std::vector<FigureDef> supplements = {
      MakeTableI(),
      MakeBlockSizeExplorer(),
      MakeClauseUsageControl(),
      MakeCacheIndexAblation(),
      MakeOccupancyAblation(),
      MakeRowLocalityAblation(),
      MakeFrontier(),
  };
  return supplements;
}

}  // namespace amdmb::suite::figures
