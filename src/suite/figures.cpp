// The figure registry: every numbered paper figure as data + code, plus
// Build and the helpers the supplements share (supplements.cpp).
//
// Each Make* function below keeps the former bench binary's curve
// order, config shapes and findings, so a registry build is
// byte-identical (through BenchJson) to what the standalone binary
// wrote. Quick scale comes from RunOptions instead of the AMDMB_QUICK
// snapshot so the serve daemon can honor a request's quick flag without
// re-exec'ing.
#include "suite/figures.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "suite/suite.hpp"

namespace amdmb::suite::figures {

namespace {

// One config per figure variant, shared by the figure's curves and
// CrossCheckPoints, so its read path, write path and block shape are
// stated once.
AluFetchConfig QuickAluFetch(const RunOptions& opts) {
  AluFetchConfig config = Quick<AluFetchConfig>(opts);
  if (opts.quick) config.ratio_step = 1.0;
  return config;
}

AluFetchConfig Fig8Config(const RunOptions& opts) {
  AluFetchConfig config = QuickAluFetch(opts);
  config.block = BlockShape{4, 16};
  return config;
}

AluFetchConfig Fig9Config(const RunOptions& opts) {
  AluFetchConfig config = QuickAluFetch(opts);
  config.read_path = ReadPath::kGlobal;
  config.write_path = WritePath::kStream;
  return config;
}

AluFetchConfig Fig10Config(const RunOptions& opts) {
  AluFetchConfig config = Fig9Config(opts);
  config.write_path = WritePath::kGlobal;
  return config;
}

ReadLatencyConfig Fig12Config(const RunOptions& opts) {
  ReadLatencyConfig config = Quick<ReadLatencyConfig>(opts);
  config.read_path = ReadPath::kGlobal;
  return config;
}

WriteLatencyConfig Fig13Config(const RunOptions& opts) {
  WriteLatencyConfig config = Quick<WriteLatencyConfig>(opts);
  config.write_path = WritePath::kStream;
  return config;
}

WriteLatencyConfig Fig14Config(const RunOptions& opts) {
  WriteLatencyConfig config = Quick<WriteLatencyConfig>(opts);
  config.write_path = WritePath::kGlobal;
  return config;
}

DomainSizeConfig Fig15Config(const RunOptions& opts) {
  DomainSizeConfig config = Quick<DomainSizeConfig>(opts);
  if (opts.quick) {
    config.max_size = 512;
    config.pixel_increment = 64;
  }
  return config;
}

RegisterUsageConfig Fig17Config(const RunOptions& opts) {
  RegisterUsageConfig config = Quick<RegisterUsageConfig>(opts);
  config.block = BlockShape{4, 16};
  return config;
}

FigureDef MakeFig7() {
  FigureDef def;
  def.slug = "fig_7";
  def.id = "Fig. 7 — ALU:Fetch Ratio for 16 Inputs";
  def.title = "ALU:Fetch Ratio";
  def.x_label = "ALU:Fetch Ratio";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Pixel float goes ALU-bound at ~1.25, pixel float4 at ~5.0 "
      "(RV670/RV770) and ~9 on RV870; naive 64x1 compute crosses later "
      "(float) and much later (float4); float/float4 converge once "
      "ALU-bound.";
  def.what = "ALU:fetch ratio sweep, texture reads, 64x1 blocks";
  for (const CurveKey& key : PaperCurves()) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const AluFetchResult r =
               RunAluFetch(runner, key.mode, key.type, QuickAluFetch(opts));
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : r.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           Note(fig, key.Name(), r);
           if (r.points.empty()) return;
           Append(fig, Findings(r, key.Name()));
         }});
  }
  return def;
}

FigureDef MakeFig8() {
  FigureDef def;
  def.slug = "fig_8";
  def.id = "Fig. 8 — ALU:Fetch Ratio for 16 Inputs with Block Size of 4x16";
  def.title = "ALU:Fetch Ratio (4x16 blocks)";
  def.x_label = "ALU:Fetch Ratio";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "The 2-D 4x16 block significantly improves compute mode over the "
      "naive 64x1: ~3x on RV770 and ~4x on RV870 for float4; crossovers "
      "move close to pixel mode's.";
  def.what = "ALU:fetch ratio sweep, 4x16 compute blocks";
  for (const CurveKey& key : PaperCurves(/*include_pixel=*/false)) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const AluFetchResult blocked =
               RunAluFetch(runner, key.mode, key.type, Fig8Config(opts));
           const AluFetchResult naive =
               RunAluFetch(runner, key.mode, key.type, QuickAluFetch(opts));
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : blocked.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           Note(fig, key.Name() + " 4x16", blocked);
           Note(fig, key.Name() + " 64x1", naive);
           if (blocked.points.empty() || naive.points.empty()) return;
           Append(fig, Findings(blocked, key.Name()));
           fig.findings.push_back(
               {report::FindingKind::kRatio, key.Name(), "block_4x16_speedup",
                naive.points.front().m.seconds /
                    blocked.points.front().m.seconds,
                "x", "4x16 over 64x1 in the fetch-bound region"});
         }});
  }
  return def;
}

FigureDef MakeFig9() {
  FigureDef def;
  def.slug = "fig_9";
  def.id = "Fig. 9 — ALU:Fetch Ratio for 16 Inputs using Global Read";
  def.title = "ALU:Fetch Ratio (global read, stream write)";
  def.x_label = "ALU:Fetch Ratio";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "RV670's global-memory reads are very slow relative to its texture "
      "path; RV770/RV870 read global memory at or slightly above their "
      "naive compute texture-fetch speed.";
  def.what = "ALU:fetch ratio sweep, global reads, stream writes";
  for (const CurveKey& key : PaperCurves(/*include_pixel=*/true,
                                         /*include_compute=*/false)) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const AluFetchResult r =
               RunAluFetch(runner, key.mode, key.type, Fig9Config(opts));
           // Texture-read counterpart for the paper's comparison.
           const AluFetchResult t =
               RunAluFetch(runner, key.mode, key.type, QuickAluFetch(opts));
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : r.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           Note(fig, key.Name() + " global", r);
           Note(fig, key.Name() + " texture", t);
           if (r.points.empty() || t.points.empty()) return;
           Append(fig, Findings(r, key.Name()));
           fig.findings.push_back(
               {report::FindingKind::kRatio, key.Name(),
                "global_vs_texture_ratio",
                r.points.front().m.seconds / t.points.front().m.seconds, "x",
                "global-read over texture-read flat-region time"});
         }});
  }
  return def;
}

FigureDef MakeFig10() {
  FigureDef def;
  def.slug = "fig_10";
  def.id =
      "Fig. 10 — ALU:Fetch Ratio for 16 Inputs using Global Read and Write";
  def.title = "ALU:Fetch Ratio (global read + global write)";
  def.x_label = "ALU:Fetch Ratio";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Little difference from Fig. 9 for RV770/RV870: with a single small "
      "output, streaming store vs global write is negligible.";
  def.what = "ALU:fetch ratio sweep, global reads and writes";
  const std::vector<GpuArch> archs = {MakeRV770(), MakeRV870()};
  for (const CurveKey& key : PaperCurves(true, true, archs)) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const AluFetchResult global =
               RunAluFetch(runner, key.mode, key.type, Fig10Config(opts));
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : global.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           Note(fig, key.Name(), global);
           if (global.points.empty()) return;
           Append(fig, Findings(global, key.Name()));
           if (key.mode == ShaderMode::kPixel) {
             // Stream-write counterpart (Fig. 9's config).
             const AluFetchResult stream =
                 RunAluFetch(runner, key.mode, key.type, Fig9Config(opts));
             Note(fig, key.Name() + " stream", stream);
             if (!stream.points.empty()) {
               fig.findings.push_back(
                   {report::FindingKind::kRatio, key.Name(),
                    "global_vs_stream_write_ratio",
                    global.points.front().m.seconds /
                        stream.points.front().m.seconds,
                    "x",
                    "global-write over stream-write in the fetch-bound "
                    "region (paper: negligible difference)"});
             }
           }
         }});
  }
  return def;
}

void ReadLatencyCurve(report::Figure& fig, const CurveKey& key,
                      const ReadLatencyConfig& config) {
  const ReadLatencyResult r =
      RunReadLatency(Runner(key.arch), key.mode, key.type, config);
  Series& series = fig.set.Get(key.Name());
  for (const ReadLatencyPoint& p : r.points) {
    series.Add(p.inputs, p.m.seconds);
  }
  Note(fig, key.Name(), r);
  if (r.points.empty()) return;
  Append(fig, Findings(r, key.Name()));
}

FigureDef MakeFig11() {
  FigureDef def;
  def.slug = "fig_11";
  def.id = "Fig. 11 — Texture Fetch Latency";
  def.title = "Texture Fetch Latency";
  def.x_label = "Number of Inputs";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Latency is linear in the input count; n float4 fetches cost about "
      "the same as 4n float fetches; fetch times shrink with each "
      "generation; RV870 shows a cache-driven jump as inputs grow.";
  def.what = "texture-fetch read latency vs input count";
  for (const CurveKey& key : PaperCurves()) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           ReadLatencyCurve(fig, key, Quick<ReadLatencyConfig>(opts));
         }});
  }
  return def;
}

FigureDef MakeFig12() {
  FigureDef def;
  def.slug = "fig_12";
  def.id = "Fig. 12 — Global Read Latency";
  def.title = "Global Read Latency";
  def.x_label = "Number of Inputs";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Linear; dramatic improvement from RV670 to RV770/RV870; roughly the "
      "same for float and float4 and for pixel vs compute mode — the GPU "
      "is becoming more generalized with each generation.";
  def.what = "global-read latency vs input count";
  for (const CurveKey& key : PaperCurves()) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           ReadLatencyCurve(fig, key, Fig12Config(opts));
         }});
  }
  return def;
}

FigureDef MakeFig13() {
  FigureDef def;
  def.slug = "fig_13";
  def.id = "Fig. 13 — Streaming Store Latency";
  def.title = "Streaming Store Latency";
  def.x_label = "Number of Outputs";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Linear in the output count with a flat fetch-bound region at small "
      "outputs; output vectorization yields the same or better performance "
      "(bursts absorb the extra bytes).";
  def.what = "stream-store write latency vs output count";
  for (const CurveKey& key : PaperCurves(/*include_pixel=*/true,
                                         /*include_compute=*/false)) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const WriteLatencyResult r =
               RunWriteLatency(runner, key.mode, key.type, Fig13Config(opts));
           Series& series = fig.set.Get(key.Name());
           for (const WriteLatencyPoint& p : r.points) {
             series.Add(p.outputs, p.m.seconds);
           }
           Note(fig, key.Name(), r);
           if (r.points.empty()) return;
           std::vector<report::Finding> findings = Findings(r, key.Name());
           findings.front().detail =
               "first point bottleneck " +
               std::string(
                   sim::ToString(r.points.front().m.stats.bottleneck));
           Append(fig, std::move(findings));
         }});
  }
  return def;
}

FigureDef MakeFig14() {
  FigureDef def;
  def.slug = "fig_14";
  def.id = "Fig. 14 — Global Write Latency";
  def.title = "Global Write Latency";
  def.x_label = "Number of Outputs";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Each 32-bit element writes at a constant rate: float4 takes ~4x the "
      "float time; small output counts stay fetch-bound (flat region).";
  def.what = "global-write latency vs output count";
  for (const CurveKey& key : PaperCurves()) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const WriteLatencyResult r =
               RunWriteLatency(runner, key.mode, key.type, Fig14Config(opts));
           Series& series = fig.set.Get(key.Name());
           for (const WriteLatencyPoint& p : r.points) {
             series.Add(p.outputs, p.m.seconds);
           }
           Note(fig, key.Name(), r);
           if (r.points.empty()) return;
           std::vector<report::Finding> findings = Findings(r, key.Name());
           findings.front().detail =
               "last point bottleneck " +
               std::string(
                   sim::ToString(r.points.back().m.stats.bottleneck));
           Append(fig, std::move(findings));
         }});
  }
  return def;
}

std::pair<FigureDef, FigureDef> MakeFig15() {
  FigureDef pixel;
  pixel.slug = "fig_15a";
  pixel.id = "Fig. 15a — Domain Size, Pixel Shader";
  pixel.title = "Domain Size Pixel Shader";
  pixel.x_label = "Domain Size";
  pixel.y_label = "Time in seconds";
  pixel.paper_claim =
      "Time grows overall-linearly in the thread count with small local "
      "wobble (wavefront imbalance across SIMDs); a large thread count is "
      "needed to keep the GPU busy; float == float4 when ALU-bound.";
  pixel.what = "domain-size sweep, ALU-bound kernel, pixel shader";

  FigureDef compute;
  compute.slug = "fig_15b";
  compute.id = "Fig. 15b — Domain Size, Compute Shader";
  compute.title = "Domain Size Compute Shader";
  compute.x_label = "Domain Size";
  compute.y_label = "Time in seconds";
  compute.paper_claim =
      "Same shape as pixel mode; compute elements pad to multiples of 64.";
  compute.what = "domain-size sweep, ALU-bound kernel, compute shader";

  for (const ShaderMode mode : {ShaderMode::kPixel, ShaderMode::kCompute}) {
    FigureDef& def = mode == ShaderMode::kPixel ? pixel : compute;
    for (const GpuArch& arch : AllArchs()) {
      if (mode == ShaderMode::kCompute && !arch.supports_compute) continue;
      const CurveKey key{arch, mode, DataType::kFloat};
      const std::string label = key.Name().substr(0, key.Name().find(' '));
      def.curves.push_back(
          {std::string(ToString(mode)) + "/" + label,
           [key, label](report::Figure& fig, const RunOptions& opts) {
             const DomainSizeConfig config = Fig15Config(opts);
             Runner runner(key.arch);
             const DomainSizeResult f =
                 RunDomainSize(runner, key.mode, DataType::kFloat, config);
             const DomainSizeResult f4 =
                 RunDomainSize(runner, key.mode, DataType::kFloat4, config);
             Series& series = fig.set.Get(label);
             for (const DomainSizePoint& p : f.points) {
               series.Add(p.size, p.m.seconds);
             }
             Note(fig, label + " float", f);
             Note(fig, label + " float4", f4);
             if (f.points.empty() || f4.points.empty()) return;
             Append(fig, Findings(f, label));
             fig.findings.push_back(
                 {report::FindingKind::kRatio, label,
                  "float4_float_max_domain_ratio",
                  f4.points.back().m.seconds / f.points.back().m.seconds,
                  "x", "ALU-bound => ~1.0"});
           }});
    }
  }
  return {std::move(pixel), std::move(compute)};
}

FigureDef MakeFig16() {
  FigureDef def;
  def.slug = "fig_16";
  def.id = "Fig. 16 — Impact of Register Usage";
  def.title = "Register Pressure Effect";
  def.x_label = "Global Purpose Registers";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "Fewer GPRs -> more simultaneous wavefronts -> fetch latency hidden "
      "-> faster, levelling off once the kernel goes ALU-bound; RV870 "
      "benefits less (smaller cache).";
  def.what = "register-usage sweep";
  for (const CurveKey& key : PaperCurves()) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const RegisterUsageResult r = RunRegisterUsage(
               runner, key.mode, key.type, Quick<RegisterUsageConfig>(opts));
           Series& series = fig.set.Get(key.Name());
           for (const RegisterUsagePoint& p : r.points) {
             series.Add(p.gpr_count, p.m.seconds);
           }
           Note(fig, key.Name(), r);
           if (r.points.empty()) return;
           std::vector<report::Finding> findings = Findings(r, key.Name());
           findings.back().detail =
               "final bottleneck " +
               std::string(
                   sim::ToString(r.points.back().m.stats.bottleneck));
           Append(fig, std::move(findings));
         }});
  }
  return def;
}

FigureDef MakeFig17() {
  FigureDef def;
  def.slug = "fig_17";
  def.id = "Fig. 17 — Impact of Register Usage with Block Size of 4x16";
  def.title = "Register Pressure Effect for 4x16 Block Size";
  def.x_label = "Global Purpose Registers";
  def.y_label = "Time in seconds";
  def.paper_claim =
      "With 4x16 blocks the sweep sits below its 64x1 counterpart at every "
      "register count (better cache behaviour), even where added "
      "wavefronts erode some of the gain.";
  def.what = "register-usage sweep, 4x16 compute blocks";
  for (const CurveKey& key : PaperCurves(/*include_pixel=*/false)) {
    def.curves.push_back(
        {key.Name(), [key](report::Figure& fig, const RunOptions& opts) {
           Runner runner(key.arch);
           const RegisterUsageResult blocked =
               RunRegisterUsage(runner, key.mode, key.type, Fig17Config(opts));
           const RegisterUsageResult naive = RunRegisterUsage(
               runner, key.mode, key.type, Quick<RegisterUsageConfig>(opts));
           Series& series = fig.set.Get(key.Name());
           Note(fig, key.Name() + " 4x16", blocked);
           Note(fig, key.Name() + " 64x1", naive);
           double worst_gain = 1e9;
           const std::size_t paired =
               std::min(blocked.points.size(), naive.points.size());
           for (std::size_t i = 0; i < blocked.points.size(); ++i) {
             series.Add(blocked.points[i].gpr_count,
                        blocked.points[i].m.seconds);
           }
           for (std::size_t i = 0; i < paired; ++i) {
             worst_gain =
                 std::min(worst_gain, naive.points[i].m.seconds /
                                          blocked.points[i].m.seconds);
           }
           if (blocked.points.empty()) return;
           Append(fig, Findings(blocked, key.Name()));
           if (paired > 0) {
             fig.findings.push_back(
                 {report::FindingKind::kRatio, key.Name(),
                  "block_4x16_min_gain", worst_gain, "x",
                  "minimum 64x1/4x16 time ratio across the sweep"});
           }
         }});
  }
  return def;
}

std::vector<FigureDef> MakeRegistry() {
  std::vector<FigureDef> defs;
  defs.push_back(MakeFig7());
  defs.push_back(MakeFig8());
  defs.push_back(MakeFig9());
  defs.push_back(MakeFig10());
  defs.push_back(MakeFig11());
  defs.push_back(MakeFig12());
  defs.push_back(MakeFig13());
  defs.push_back(MakeFig14());
  auto [fig15a, fig15b] = MakeFig15();
  defs.push_back(std::move(fig15a));
  defs.push_back(std::move(fig15b));
  defs.push_back(MakeFig16());
  defs.push_back(MakeFig17());
  return defs;
}

}  // namespace

const std::vector<FigureDef>& Registry() {
  static const std::vector<FigureDef> registry = MakeRegistry();
  return registry;
}

std::string NormalizeSlug(std::string_view name) {
  std::string out;
  bool in_digits = false;
  bool digit_run_significant = false;
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isdigit(uc)) {
      if (!in_digits) {
        in_digits = true;
        digit_run_significant = false;
      }
      if (c == '0' && !digit_run_significant) continue;  // Leading zero.
      digit_run_significant = true;
      out.push_back(c);
    } else {
      if (in_digits && !digit_run_significant) {
        out.push_back('0');  // The run was all zeros: keep one.
      }
      in_digits = false;
      if (std::isalnum(uc)) {
        out.push_back(
            static_cast<char>(std::tolower(uc)));
      }
    }
  }
  if (in_digits && !digit_run_significant) out.push_back('0');
  return out;
}

const FigureDef* Find(std::string_view name,
                      const std::vector<FigureDef>& registry) {
  const std::string key = NormalizeSlug(name);
  for (const FigureDef& def : registry) {
    if (NormalizeSlug(def.slug) == key) return &def;
  }
  return nullptr;
}

report::Figure Build(const FigureDef& def, const RunOptions& opts,
                     const CurveCallback& on_curve) {
  report::Figure figure(def.id, def.title, def.x_label, def.y_label,
                        def.paper_claim);
  for (std::size_t i = 0; i < def.curves.size(); ++i) {
    if (opts.cancel != nullptr && opts.cancel->Cancelled()) break;
    def.curves[i].run(figure, opts);
    if (on_curve) {
      on_curve(i, def.curves.size(), def.curves[i].name, figure);
    }
  }
  report::FinalizeMeta(figure);
  // Meta records the scale the figure actually ran at (the request's
  // quick flag), which for the bench binaries equals AMDMB_QUICK.
  figure.meta.quick = opts.quick;
  figure.meta.adaptive = opts.adaptive != nullptr;
  return figure;
}

void Append(report::Figure& figure, std::vector<report::Finding> findings) {
  for (report::Finding& f : findings) {
    figure.findings.push_back(std::move(f));
  }
}

namespace {

/// The (arch, mode) combinations a cross-check family runs as. Compute
/// mode is skipped on non-compute archs, mirroring PaperCurves.
std::vector<CurveKey> CrossCheckCurves(const std::vector<GpuArch>& archs,
                                       bool pixel, bool compute) {
  std::vector<CurveKey> curves;
  for (const GpuArch& arch : archs) {
    if (pixel) curves.push_back({arch, ShaderMode::kPixel, DataType::kFloat});
    if (compute && arch.supports_compute) {
      curves.push_back({arch, ShaderMode::kCompute, DataType::kFloat});
    }
  }
  return curves;
}

}  // namespace

std::vector<CrossCheckPoint> CrossCheckPoints() {
  std::vector<CrossCheckPoint> points;
  const std::vector<GpuArch> all = AllArchs();
  const std::vector<GpuArch> ten_series = {MakeRV770(), MakeRV870()};
  RunOptions quick;
  quick.quick = true;

  // Every point is profiled at the quick domain with its figure's quick
  // config, and labelled like the sweep's point: the kernel's name,
  // except in the domain sweep, whose one kernel serves every domain.
  const auto add = [&](const std::string& figure, const CurveKey& key,
                       il::Kernel kernel, auto config,
                       std::string point = "") {
    if (point.empty()) point = kernel.name;
    config.profile = true;
    points.push_back({figure, key.Name(), std::move(point), std::move(kernel),
                      key.arch,
                      config.Launch(Domain{256, 256}, key.mode, config.block)});
  };

  // ALU:fetch families (Figs. 7-10): the two ends of the paper grid, one
  // firmly fetch-bound and one firmly ALU-bound.
  const auto alu_fetch = [&](const std::string& figure,
                             const std::vector<CurveKey>& curves,
                             const AluFetchConfig& config) {
    for (const CurveKey& key : curves) {
      for (const double ratio : {0.25, 8.0}) {
        add(figure, key, AluFetchKernel(config, key.mode, key.type, ratio),
            config);
      }
    }
  };
  alu_fetch("fig_7", CrossCheckCurves(all, true, true), QuickAluFetch(quick));
  alu_fetch("fig_8", CrossCheckCurves(all, false, true), Fig8Config(quick));
  alu_fetch("fig_9", CrossCheckCurves(all, true, false), Fig9Config(quick));
  alu_fetch("fig_10", CrossCheckCurves(ten_series, true, true),
            Fig10Config(quick));

  // Read-latency families (Figs. 11-12) at the paper's 16-input point.
  const auto read_latency = [&](const std::string& figure,
                                const ReadLatencyConfig& config) {
    for (const CurveKey& key : CrossCheckCurves(all, true, true)) {
      add(figure, key, ReadLatencyKernel(config, key.mode, key.type, 16),
          config);
    }
  };
  read_latency("fig_11", Quick<ReadLatencyConfig>(quick));
  read_latency("fig_12", Fig12Config(quick));

  // Write-latency families (Figs. 13-14) at the 8-output point.
  const auto write_latency = [&](const std::string& figure,
                                 const std::vector<CurveKey>& curves,
                                 const WriteLatencyConfig& config) {
    for (const CurveKey& key : curves) {
      add(figure, key, WriteLatencyKernel(config, key.mode, key.type, 8),
          config);
    }
  };
  write_latency("fig_13", CrossCheckCurves(all, true, false),
                Fig13Config(quick));
  write_latency("fig_14", CrossCheckCurves(all, true, true),
                Fig14Config(quick));

  // Domain-size family (Fig. 15) at the 256x256 point.
  const DomainSizeConfig domain = Fig15Config(quick);
  for (const CurveKey& key : CrossCheckCurves(all, true, true)) {
    add(key.mode == ShaderMode::kPixel ? "fig_15a" : "fig_15b", key,
        DomainSizeKernel(domain, key.mode, key.type), domain, "domain_256");
  }

  // Register-usage families (Figs. 16-17) at the sweep's first and a
  // late step.
  const auto register_usage = [&](const std::string& figure,
                                  const std::vector<CurveKey>& curves,
                                  const RegisterUsageConfig& config) {
    for (const CurveKey& key : curves) {
      for (const unsigned step : {0u, 6u}) {
        add(figure, key, RegisterUsageKernel(config, key.mode, key.type, step),
            config);
      }
    }
  };
  register_usage("fig_16", CrossCheckCurves(all, true, true),
                 Quick<RegisterUsageConfig>(quick));
  register_usage("fig_17", CrossCheckCurves(all, false, true),
                 Fig17Config(quick));

  return points;
}

}  // namespace amdmb::suite::figures
