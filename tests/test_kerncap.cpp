// Tests for the kerncap subsystem: the untrusted-input intake taxonomy,
// golden Table I occupancy numbers, characterization determinism across
// executor widths, and cross-validation of the intake->MeasureAt path
// against the figure registry's own generated kernels.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/gpu_arch.hpp"
#include "arch/occupancy.hpp"
#include "exec/sweep_executor.hpp"
#include "fault/fault.hpp"
#include "il/printer.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "kerncap/static_analysis.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"
#include "suite/microbench.hpp"

namespace amdmb {
namespace {

// A minimal pixel-shader kernel that passes every intake stage.
constexpr char kValidPixelIl[] =
    "il_ps_2_0 ; intake_probe\n"
    "; type=Float read=Texture write=Stream\n"
    "dcl_input i0\n"
    "dcl_output o0\n"
    "  sample    r0, i0\n"
    "  mov       r1, r0\n"
    "  export    o0, r1\n"
    "end\n";

// A Global/Global kernel, eligible for both shader modes.
constexpr char kValidGlobalIl[] =
    "il_cs_2_0 ; global_probe\n"
    "; type=Float read=Global write=Global\n"
    "dcl_input i0..i1\n"
    "dcl_cb cb0[1]\n"
    "dcl_output o0\n"
    "  uav_load  r0, i0\n"
    "  uav_load  r1, i1\n"
    "  mad       r2, r0, cb0[0], r1\n"
    "  uav_store o0, r2\n"
    "end\n";

TEST(KerncapOccupancy, GoldenTableIValues) {
  // Hand-computed from Table I: 256 GPRs per thread, at most 24
  // resident wavefronts per SIMD, theoretical = max(1, 256 / GPRs).
  const struct {
    unsigned gpr;
    unsigned theoretical;
    unsigned resident;
  } golden[] = {{1, 256, 24}, {5, 51, 24},  {10, 25, 24}, {16, 16, 16},
                {64, 4, 4},   {200, 1, 1},  {300, 1, 1}};
  for (const GpuArch& arch : AllArchs()) {
    ASSERT_EQ(arch.gpr_budget_per_thread, 256u) << arch.name;
    ASSERT_EQ(arch.max_wavefronts_per_simd, 24u) << arch.name;
    for (const auto& g : golden) {
      EXPECT_EQ(TheoreticalWavefronts(arch, g.gpr), g.theoretical)
          << arch.name << " gpr=" << g.gpr;
      EXPECT_EQ(WavefrontsPerSimd(arch, g.gpr), g.resident)
          << arch.name << " gpr=" << g.gpr;
    }
  }
}

TEST(KerncapOccupancy, StaticsAgreeWithOccupancyMath) {
  const kerncap::AnalyzeResult result = kerncap::Analyze(kValidPixelIl);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.prepared->statics.size(), AllArchs().size());
  for (const kerncap::ArchStatic& s : result.prepared->statics) {
    ASSERT_GT(s.ska.gpr_count, 0u);
    EXPECT_EQ(s.ska.theoretical_wavefronts,
              TheoreticalWavefronts(s.arch, s.ska.gpr_count));
    EXPECT_EQ(s.ska.resident_wavefronts,
              WavefrontsPerSimd(s.arch, s.ska.gpr_count));
  }
}

TEST(KerncapIntake, AcceptsValidKernel) {
  const kerncap::AnalyzeResult result = kerncap::Analyze(kValidPixelIl);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.prepared->kernel.name, "intake_probe");
  EXPECT_EQ(result.prepared->hash, result.hash);
  EXPECT_EQ(result.hash, kerncap::ContentHash(kValidPixelIl));
}

TEST(KerncapIntake, ContentHashIsStable) {
  const std::string a = kerncap::ContentHash(kValidPixelIl);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, kerncap::ContentHash(kValidPixelIl));
  EXPECT_NE(a, kerncap::ContentHash(kValidGlobalIl));
  EXPECT_EQ(a.find_first_not_of("0123456789abcdef"), std::string::npos);
  // Pinned: slugs, figure ids and fleet routing all derive from it.
  EXPECT_EQ(a, "cefaee159a1bea3a");
}

void ExpectRejected(const kerncap::AnalyzeResult& result,
                    kerncap::RejectReason reason) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.rejection->reason, reason)
      << kerncap::ToString(result.rejection->reason) << ": "
      << result.rejection->detail;
  EXPECT_FALSE(result.rejection->detail.empty());
  EXPECT_FALSE(result.prepared.has_value());
}

TEST(KerncapIntake, RejectsOversizedPayload) {
  kerncap::IntakeLimits limits;
  limits.max_bytes = 8;
  ExpectRejected(kerncap::Analyze(kValidPixelIl, limits),
                 kerncap::RejectReason::kPayloadTooLarge);
}

TEST(KerncapIntake, RejectsTooManyLines) {
  kerncap::IntakeLimits limits;
  limits.max_lines = 3;
  ExpectRejected(kerncap::Analyze(kValidPixelIl, limits),
                 kerncap::RejectReason::kTooManyLines);
}

TEST(KerncapIntake, RejectsTooManyInstructions) {
  kerncap::IntakeLimits limits;
  limits.max_instructions = 2;  // The probe kernel has three.
  ExpectRejected(kerncap::Analyze(kValidPixelIl, limits),
                 kerncap::RejectReason::kTooManyInstructions);
}

TEST(KerncapIntake, RejectsResourceLimit) {
  kerncap::IntakeLimits limits;
  limits.max_inputs = 1;  // The Global probe declares two inputs.
  ExpectRejected(kerncap::Analyze(kValidGlobalIl, limits),
                 kerncap::RejectReason::kResourceLimit);
}

TEST(KerncapIntake, RejectsParseError) {
  ExpectRejected(kerncap::Analyze("this is not IL\n"),
                 kerncap::RejectReason::kParseError);
}

TEST(KerncapIntake, RejectsVerifyError) {
  // Grammatically valid, but i0 is declared and never fetched.
  ExpectRejected(kerncap::Analyze(
                     "il_ps_2_0 ; verify_probe\n"
                     "; type=Float read=Texture write=Stream\n"
                     "dcl_input i0\n"
                     "dcl_output o0\n"
                     "  mov       r0, l(1.0)\n"
                     "  export    o0, r0\n"
                     "end\n"),
                 kerncap::RejectReason::kVerifyError);
}

TEST(KerncapIntake, ReasonCodesAreStableWireStrings) {
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kPayloadTooLarge),
            "payload_too_large");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kTooManyLines),
            "too_many_lines");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kTooManyInstructions),
            "too_many_instructions");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kResourceLimit),
            "resource_limit");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kParseError),
            "parse_error");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kVerifyError),
            "verify_error");
  EXPECT_EQ(kerncap::ToString(kerncap::RejectReason::kCompileError),
            "compile_error");
}

TEST(KerncapCharacterize, EligibleCurvesRespectModeRules) {
  const kerncap::AnalyzeResult pixel = kerncap::Analyze(kValidPixelIl);
  ASSERT_TRUE(pixel.ok());
  // Stream writers are pixel-only: one curve per architecture.
  EXPECT_EQ(kerncap::EligibleCurves(pixel.prepared->kernel).size(),
            AllArchs().size());

  const kerncap::AnalyzeResult global = kerncap::Analyze(kValidGlobalIl);
  ASSERT_TRUE(global.ok());
  // Global writers add a compute curve per compute-capable arch.
  std::size_t expected = 0;
  for (const GpuArch& arch : AllArchs()) {
    expected += arch.supports_compute ? 2 : 1;
  }
  EXPECT_EQ(kerncap::EligibleCurves(global.prepared->kernel).size(),
            expected);
}

TEST(KerncapCharacterize, FigureIdentityCarriesNameAndHash) {
  const kerncap::AnalyzeResult result = kerncap::Analyze(kValidPixelIl);
  ASSERT_TRUE(result.ok());
  const kerncap::Prepared& prepared = *result.prepared;
  EXPECT_EQ(kerncap::FigureId(prepared),
            "Kerncap — intake_probe " + prepared.hash);
  const std::string slug = kerncap::Slug(prepared);
  EXPECT_EQ(slug.rfind("kerncap_", 0), 0u) << slug;
  EXPECT_NE(slug.find(prepared.hash), std::string::npos) << slug;
}

TEST(KerncapCharacterize, DeterministicAcrossExecutorWidths) {
  const kerncap::AnalyzeResult result = kerncap::Analyze(kValidGlobalIl);
  ASSERT_TRUE(result.ok());
  kerncap::CharacterizeOptions options;
  options.quick = true;

  const exec::SweepExecutor one(1);
  options.executor = &one;
  const std::string serial =
      report::BenchJson(kerncap::Characterize(*result.prepared, options));

  const exec::SweepExecutor wide(8);
  options.executor = &wide;
  const std::string parallel =
      report::BenchJson(kerncap::Characterize(*result.prepared, options));

  EXPECT_EQ(serial, parallel);
}

// The dense ladder runs under the pinned retry policy: a transient
// launch fault on a rung is retried and recorded as a degradation, and
// the document still completes, byte-identical at any executor width.
// Fault keys are "<point>#<attempt>", so this seed fails domain_128's
// first attempt and the operating rung domain_256's first two on every
// curve.
TEST(KerncapCharacterize, DenseLadderRetriesTransientFaults) {
  const kerncap::AnalyzeResult result = kerncap::Analyze(kValidGlobalIl);
  ASSERT_TRUE(result.ok());
  const fault::ScopedFaultInjector faults("launch:0.3,seed=2");
  kerncap::CharacterizeOptions options;
  options.quick = true;

  const exec::SweepExecutor one(1);
  options.executor = &one;
  const report::Figure figure =
      kerncap::Characterize(*result.prepared, options);
  const std::size_t curves =
      kerncap::EligibleCurves(result.prepared->kernel).size();
  ASSERT_EQ(figure.degradations.size(), 2 * curves);
  for (const report::Degradation& d : figure.degradations) {
    EXPECT_EQ(d.status, "retried") << d.Render();
    EXPECT_EQ(d.attempts, d.point == "domain_256" ? 3u : 2u) << d.Render();
    EXPECT_TRUE(d.point == "domain_128" || d.point == "domain_256")
        << d.Render();
  }
  for (const Series& curve : figure.set.All()) {
    EXPECT_EQ(curve.Points().size(), kerncap::SweepDomains(true).size())
        << curve.Name();
  }
  ASSERT_NE(report::FindFinding(figure.findings, "operating_point_seconds"),
            nullptr);

  const exec::SweepExecutor four(4);
  options.executor = &four;
  const report::Figure wide =
      kerncap::Characterize(*result.prepared, options);
  EXPECT_EQ(report::BenchJson(figure), report::BenchJson(wide));
}

// Every registry figure family, cross-validated: print the generated
// kernel's IL, push the text back through the untrusted-input intake,
// and measure at the figure's own operating point. The result must be
// bit-identical to measuring the in-memory kernel directly — same
// stats, same seconds, same bottleneck verdict, same counter-based
// attribution.
TEST(KerncapCrossValidation, ReproducesRegistryOperatingPoints) {
  const std::vector<suite::figures::CrossCheckPoint> points =
      suite::figures::CrossCheckPoints();
  ASSERT_GT(points.size(), 30u);
  std::map<std::string, kerncap::Prepared> prepared_by_il;
  for (const suite::figures::CrossCheckPoint& p : points) {
    SCOPED_TRACE(p.figure + " / " + p.curve + " / " + p.point);
    const std::string il = il::Print(p.kernel);
    auto it = prepared_by_il.find(il);
    if (it == prepared_by_il.end()) {
      kerncap::AnalyzeResult analysis = kerncap::Analyze(il);
      ASSERT_TRUE(analysis.ok())
          << kerncap::ToString(analysis.rejection->reason) << ": "
          << analysis.rejection->detail << "\n"
          << il;
      it = prepared_by_il.emplace(il, std::move(*analysis.prepared)).first;
    }

    const suite::Runner runner(p.arch);
    const suite::Measurement direct =
        runner.Measure(p.kernel, p.config, {p.point, 1});
    const suite::Measurement via =
        kerncap::MeasureAt(it->second, p.arch, p.config, p.point, 1);

    EXPECT_EQ(direct.seconds, via.seconds);
    EXPECT_TRUE(direct.stats == via.stats);
    EXPECT_EQ(sim::ToString(direct.stats.bottleneck),
              sim::ToString(via.stats.bottleneck));
    ASSERT_NE(direct.profile, nullptr);
    ASSERT_NE(via.profile, nullptr);
    EXPECT_EQ(sim::ToString(direct.profile->attribution.bottleneck),
              sim::ToString(via.profile->attribution.bottleneck));
  }
}

}  // namespace
}  // namespace amdmb
