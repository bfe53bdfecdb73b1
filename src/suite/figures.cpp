// The figure registry: every numbered paper figure as data + code, plus
// Build and the helpers the supplements share (supplements.cpp).
//
// Each Make* function below is the former bench binary's Register()
// body, lifted verbatim: same curve order, same config shapes, same
// findings — so a registry build is byte-identical (through BenchJson)
// to what the standalone binary writes. Quick scale comes from
// RunOptions instead of the AMDMB_QUICK snapshot so the serve daemon
// can honor a request's quick flag without re-exec'ing.
#include "suite/figures.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/table.hpp"
#include "suite/suite.hpp"

namespace amdmb::suite::figures {

namespace {

AluFetchConfig QuickAluFetch(const RunOptions& opts) {
  AluFetchConfig config;
  if (opts.quick) {
    config.domain = Domain{256, 256};
    config.ratio_step = 1.0;
  }
  config.executor = opts.executor;
  config.cancel = opts.cancel;
  config.adaptive = opts.adaptive;
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
           const AluFetchConfig config = QuickAluFetch(opts);
           Runner runner(key.arch);
           const AluFetchResult r =
               RunAluFetch(runner, key.mode, key.type, config);
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : r.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           NoteFaults(fig, key.Name(), r.report);
           NoteProfiles(fig, key.Name(), r.points);
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
           AluFetchConfig blocked_config = QuickAluFetch(opts);
           blocked_config.block = BlockShape{4, 16};
           AluFetchConfig naive_config = QuickAluFetch(opts);
           naive_config.block = BlockShape{64, 1};
           Runner runner(key.arch);
           const AluFetchResult blocked =
               RunAluFetch(runner, key.mode, key.type, blocked_config);
           const AluFetchResult naive =
               RunAluFetch(runner, key.mode, key.type, naive_config);
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : blocked.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           NoteFaults(fig, key.Name() + " 4x16", blocked.report);
           NoteProfiles(fig, key.Name() + " 4x16", blocked.points);
           NoteFaults(fig, key.Name() + " 64x1", naive.report);
           NoteProfiles(fig, key.Name() + " 64x1", naive.points);
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
           AluFetchConfig config = QuickAluFetch(opts);
           config.read_path = ReadPath::kGlobal;
           config.write_path = WritePath::kStream;
           Runner runner(key.arch);
           const AluFetchResult r =
               RunAluFetch(runner, key.mode, key.type, config);
           // Texture-read counterpart for the paper's comparison.
           AluFetchConfig tex = config;
           tex.read_path = ReadPath::kTexture;
           const AluFetchResult t =
               RunAluFetch(runner, key.mode, key.type, tex);
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : r.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           NoteFaults(fig, key.Name() + " global", r.report);
           NoteProfiles(fig, key.Name() + " global", r.points);
           NoteFaults(fig, key.Name() + " texture", t.report);
           NoteProfiles(fig, key.Name() + " texture", t.points);
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
           AluFetchConfig global_config = QuickAluFetch(opts);
           global_config.read_path = ReadPath::kGlobal;
           global_config.write_path = WritePath::kGlobal;
           Runner runner(key.arch);
           const AluFetchResult global =
               RunAluFetch(runner, key.mode, key.type, global_config);
           Series& series = fig.set.Get(key.Name());
           for (const AluFetchPoint& p : global.points) {
             series.Add(p.ratio, p.m.seconds);
           }
           NoteFaults(fig, key.Name(), global.report);
           NoteProfiles(fig, key.Name(), global.points);
           if (global.points.empty()) return;
           Append(fig, Findings(global, key.Name()));
           if (key.mode == ShaderMode::kPixel) {
             AluFetchConfig stream_config = global_config;
             stream_config.write_path = WritePath::kStream;
             const AluFetchResult stream =
                 RunAluFetch(runner, key.mode, key.type, stream_config);
             NoteFaults(fig, key.Name() + " stream", stream.report);
             NoteProfiles(fig, key.Name() + " stream", stream.points);
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

template <typename Result>
void ReadLatencyCurve(report::Figure& fig, const CurveKey& key,
                      const Result& r) {
  Series& series = fig.set.Get(key.Name());
  for (const ReadLatencyPoint& p : r.points) {
    series.Add(p.inputs, p.m.seconds);
  }
  NoteFaults(fig, key.Name(), r.report);
  NoteProfiles(fig, key.Name(), r.points);
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
           Runner runner(key.arch);
           ReadLatencyCurve(fig, key,
                            RunReadLatency(runner, key.mode, key.type,
                                           QuickReadLatency(opts)));
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
           ReadLatencyConfig config = QuickReadLatency(opts);
           config.read_path = ReadPath::kGlobal;
           Runner runner(key.arch);
           ReadLatencyCurve(
               fig, key, RunReadLatency(runner, key.mode, key.type, config));
         }});
  }
  return def;
}

WriteLatencyConfig QuickWriteLatency(const RunOptions& opts) {
  WriteLatencyConfig config;
  if (opts.quick) config.domain = Domain{256, 256};
  config.executor = opts.executor;
  config.cancel = opts.cancel;
  config.adaptive = opts.adaptive;
  return config;
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
           WriteLatencyConfig config = QuickWriteLatency(opts);
           config.write_path = WritePath::kStream;
           Runner runner(key.arch);
           const WriteLatencyResult r =
               RunWriteLatency(runner, key.mode, key.type, config);
           Series& series = fig.set.Get(key.Name());
           for (const WriteLatencyPoint& p : r.points) {
             series.Add(p.outputs, p.m.seconds);
           }
           NoteFaults(fig, key.Name(), r.report);
           NoteProfiles(fig, key.Name(), r.points);
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
           WriteLatencyConfig config = QuickWriteLatency(opts);
           config.write_path = WritePath::kGlobal;
           Runner runner(key.arch);
           const WriteLatencyResult r =
               RunWriteLatency(runner, key.mode, key.type, config);
           Series& series = fig.set.Get(key.Name());
           for (const WriteLatencyPoint& p : r.points) {
             series.Add(p.outputs, p.m.seconds);
           }
           NoteFaults(fig, key.Name(), r.report);
           NoteProfiles(fig, key.Name(), r.points);
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
             DomainSizeConfig config;
             if (opts.quick) {
               config.max_size = 512;
               config.pixel_increment = 64;
             }
             config.executor = opts.executor;
             config.cancel = opts.cancel;
             config.adaptive = opts.adaptive;
             Runner runner(key.arch);
             const DomainSizeResult f =
                 RunDomainSize(runner, key.mode, DataType::kFloat, config);
             const DomainSizeResult f4 =
                 RunDomainSize(runner, key.mode, DataType::kFloat4, config);
             Series& series = fig.set.Get(label);
             for (const DomainSizePoint& p : f.points) {
               series.Add(p.size, p.m.seconds);
             }
             NoteFaults(fig, label + " float", f.report);
             NoteProfiles(fig, label + " float", f.points);
             NoteFaults(fig, label + " float4", f4.report);
             NoteProfiles(fig, label + " float4", f4.points);
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
               runner, key.mode, key.type, QuickRegisterUsage(opts));
           Series& series = fig.set.Get(key.Name());
           for (const RegisterUsagePoint& p : r.points) {
             series.Add(p.gpr_count, p.m.seconds);
           }
           NoteFaults(fig, key.Name(), r.report);
           NoteProfiles(fig, key.Name(), r.points);
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
           RegisterUsageConfig blocked_config = QuickRegisterUsage(opts);
           blocked_config.block = BlockShape{4, 16};
           RegisterUsageConfig naive_config = QuickRegisterUsage(opts);
           naive_config.block = BlockShape{64, 1};
           Runner runner(key.arch);
           const RegisterUsageResult blocked = RunRegisterUsage(
               runner, key.mode, key.type, blocked_config);
           const RegisterUsageResult naive =
               RunRegisterUsage(runner, key.mode, key.type, naive_config);
           Series& series = fig.set.Get(key.Name());
           NoteFaults(fig, key.Name() + " 4x16", blocked.report);
           NoteProfiles(fig, key.Name() + " 4x16", blocked.points);
           NoteFaults(fig, key.Name() + " 64x1", naive.report);
           NoteProfiles(fig, key.Name() + " 64x1", naive.points);
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

void NoteFaults(report::Figure& figure, const std::string& curve,
                const exec::RunReport& run) {
  for (report::Degradation& d : report::DegradationsFrom(run, curve)) {
    figure.degradations.push_back(std::move(d));
  }
}

void Append(report::Figure& figure, std::vector<report::Finding> findings) {
  for (report::Finding& f : findings) {
    figure.findings.push_back(std::move(f));
  }
}

ReadLatencyConfig QuickReadLatency(const RunOptions& opts) {
  ReadLatencyConfig config;
  if (opts.quick) config.domain = Domain{256, 256};
  config.executor = opts.executor;
  config.cancel = opts.cancel;
  config.adaptive = opts.adaptive;
  return config;
}

RegisterUsageConfig QuickRegisterUsage(const RunOptions& opts) {
  RegisterUsageConfig config;
  if (opts.quick) config.domain = Domain{256, 256};
  config.executor = opts.executor;
  config.cancel = opts.cancel;
  config.adaptive = opts.adaptive;
  return config;
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

sim::LaunchConfig CrossCheckLaunch(ShaderMode mode, BlockShape block) {
  sim::LaunchConfig launch;
  launch.domain = Domain{256, 256};  // The registry's quick scale.
  launch.mode = mode;
  launch.block = block;
  launch.repetitions = kPaperRepetitions;
  launch.profile = true;
  return launch;
}

}  // namespace

std::vector<CrossCheckPoint> CrossCheckPoints() {
  std::vector<CrossCheckPoint> points;
  const std::vector<GpuArch> all = AllArchs();
  const std::vector<GpuArch> ten_series = {MakeRV770(), MakeRV870()};

  const auto add = [&](const std::string& figure, const CurveKey& key,
                       const std::string& label, il::Kernel kernel,
                       BlockShape block) {
    points.push_back({figure, key.Name(), label, std::move(kernel), key.arch,
                      CrossCheckLaunch(key.mode, block)});
  };

  // ALU:fetch families (Figs. 7-10): the two sweep extremes, one firmly
  // fetch-bound and one firmly ALU-bound. Each replicates the family's
  // spec construction in alu_fetch.cpp exactly.
  const auto alu_fetch = [&](const std::string& figure,
                             const std::vector<CurveKey>& curves,
                             ReadPath read, WritePath pixel_write,
                             BlockShape block) {
    for (const CurveKey& key : curves) {
      for (const double ratio : {0.25, 8.0}) {
        GenericSpec spec;
        spec.inputs = 16;
        spec.outputs = 1;
        spec.alu_ops = AluOpsForRatio(ratio, spec.inputs);
        spec.type = key.type;
        spec.read_path = read;
        spec.write_path = key.mode == ShaderMode::kCompute
                              ? WritePath::kGlobal
                              : pixel_write;
        spec.name = "alufetch_r" + FormatDouble(ratio, 2);
        add(figure, key, spec.name, GenerateGeneric(spec), block);
      }
    }
  };
  alu_fetch("fig_7", CrossCheckCurves(all, true, true), ReadPath::kTexture,
            WritePath::kStream, BlockShape{64, 1});
  alu_fetch("fig_8", CrossCheckCurves(all, false, true), ReadPath::kTexture,
            WritePath::kStream, BlockShape{4, 16});
  alu_fetch("fig_9", CrossCheckCurves(all, true, false), ReadPath::kGlobal,
            WritePath::kStream, BlockShape{64, 1});
  alu_fetch("fig_10", CrossCheckCurves(ten_series, true, true),
            ReadPath::kGlobal, WritePath::kGlobal, BlockShape{64, 1});

  // Read-latency families (Figs. 11-12) at the paper's 16-input point;
  // construction mirrors read_latency.cpp (alu_ops = inputs - 1).
  const auto read_latency = [&](const std::string& figure,
                                const std::vector<CurveKey>& curves,
                                ReadPath read) {
    for (const CurveKey& key : curves) {
      GenericSpec spec;
      spec.inputs = 16;
      spec.outputs = 1;
      spec.alu_ops = spec.inputs - 1;
      spec.type = key.type;
      spec.read_path = read;
      spec.write_path = key.mode == ShaderMode::kCompute
                            ? WritePath::kGlobal
                            : WritePath::kStream;
      spec.name = "readlat_in" + std::to_string(spec.inputs);
      add(figure, key, spec.name, GenerateGeneric(spec), BlockShape{64, 1});
    }
  };
  read_latency("fig_11", CrossCheckCurves(all, true, true),
               ReadPath::kTexture);
  read_latency("fig_12", CrossCheckCurves(all, true, true),
               ReadPath::kGlobal);

  // Write-latency families (Figs. 13-14) at the 8-output point;
  // construction mirrors write_latency.cpp.
  const auto write_latency = [&](const std::string& figure,
                                 const std::vector<CurveKey>& curves,
                                 WritePath pixel_write) {
    for (const CurveKey& key : curves) {
      GenericSpec spec;
      spec.inputs = 8;
      spec.outputs = 8;
      spec.alu_ops = 16;
      spec.type = key.type;
      spec.read_path = ReadPath::kTexture;
      spec.write_path = key.mode == ShaderMode::kCompute
                            ? WritePath::kGlobal
                            : pixel_write;
      spec.name = "writelat_out" + std::to_string(spec.outputs);
      add(figure, key, spec.name, GenerateGeneric(spec), BlockShape{64, 1});
    }
  };
  write_latency("fig_13", CrossCheckCurves(all, true, false),
                WritePath::kStream);
  write_latency("fig_14", CrossCheckCurves(all, true, true),
                WritePath::kGlobal);

  // Domain-size family (Fig. 15) at the 256x256 point; construction
  // mirrors domain_size.cpp (one kernel, per-point launch domains).
  for (const CurveKey& key : CrossCheckCurves(all, true, true)) {
    GenericSpec spec;
    spec.inputs = 8;
    spec.outputs = 1;
    spec.alu_ops = AluOpsForRatio(10.0, spec.inputs);
    spec.type = key.type;
    spec.read_path = ReadPath::kTexture;
    spec.write_path = key.mode == ShaderMode::kCompute ? WritePath::kGlobal
                                                       : WritePath::kStream;
    spec.name = "domain_sweep";
    const std::string figure = key.mode == ShaderMode::kPixel ? "fig_15a"
                                                              : "fig_15b";
    add(figure, key, "domain_256", GenerateGeneric(spec), BlockShape{64, 1});
  }

  // Register-usage families (Figs. 16-17) at the sweep's first and a
  // late step; construction mirrors register_usage.cpp.
  const auto register_usage = [&](const std::string& figure,
                                  const std::vector<CurveKey>& curves,
                                  BlockShape block) {
    for (const CurveKey& key : curves) {
      for (const unsigned step : {0u, 6u}) {
        RegisterUsageSpec spec;
        spec.inputs = 64;
        spec.space = 8;
        spec.step = step;
        spec.alu_fetch_ratio = 4.0;
        spec.type = key.type;
        spec.read_path = ReadPath::kTexture;
        spec.write_path = key.mode == ShaderMode::kCompute
                              ? WritePath::kGlobal
                              : WritePath::kStream;
        spec.name = "regusage_s" + std::to_string(step);
        add(figure, key, spec.name, GenerateRegisterUsage(spec), block);
      }
    }
  };
  register_usage("fig_16", CrossCheckCurves(all, true, true),
                 BlockShape{64, 1});
  register_usage("fig_17", CrossCheckCurves(all, false, true),
                 BlockShape{4, 16});

  return points;
}

}  // namespace amdmb::suite::figures
