// Clause-event tests: the profiler's collector captures every executed
// clause, caps its event stream, renders the per-clause-type summary,
// and starts from zero on every launch.
#include <gtest/gtest.h>

#include "cal/cal.hpp"
#include "compiler/compiler.hpp"
#include "prof/collector.hpp"
#include "sim/gpu.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::sim {
namespace {

constexpr std::size_t kCapacity = 1u << 20;

il::Kernel SmallKernel() {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 70;  // > one interleave chunk: multiple ALU events/wave.
  return suite::GenerateGeneric(spec);
}

isa::Program SmallProgram(const GpuArch& arch) {
  return compiler::Compile(SmallKernel(), arch);
}

TEST(TraceTest, CapturesEveryClauseOfEveryWavefront) {
  const GpuArch arch = MakeRV770();
  Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  prof::Collector collector(kCapacity);
  LaunchConfig config;
  config.domain = Domain{64, 64};  // 64 wavefronts.
  gpu.Execute(p, config, &collector);
  const prof::Profile profile = collector.Take();

  const std::uint64_t waves = 64 * 64 / arch.wavefront_size;
  unsigned tex_events = 0, alu_events = 0, write_events = 0;
  for (const TraceEvent& e : profile.events) {
    EXPECT_LE(e.issue, e.start);
    EXPECT_LE(e.start, e.complete);
    EXPECT_LT(e.simd, arch.simd_engines);
    EXPECT_LT(e.wave, waves);
    switch (e.type) {
      case isa::ClauseType::kTex: ++tex_events; break;
      case isa::ClauseType::kAlu: ++alu_events; break;
      case isa::ClauseType::kExport: ++write_events; break;
      default: break;
    }
  }
  EXPECT_EQ(tex_events, waves);    // One TEX clause per wavefront.
  EXPECT_EQ(write_events, waves);  // One export clause per wavefront.
  // 70 bundles chunked at 32 -> 3 ALU events per wavefront.
  EXPECT_EQ(alu_events, waves * 3);
  EXPECT_EQ(profile.dropped_events, 0u);
}

TEST(TraceTest, CapsCapacityAndCountsDrops) {
  const GpuArch arch = MakeRV770();
  Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  prof::Collector collector(/*event_capacity=*/10);
  LaunchConfig config;
  config.domain = Domain{64, 64};
  gpu.Execute(p, config, &collector);
  const prof::Profile profile = collector.Take();
  EXPECT_EQ(profile.events.size(), 10u);
  EXPECT_GT(profile.dropped_events, 0u);
}

TEST(TraceTest, RendersSummaryAndTimeline) {
  const GpuArch arch = MakeRV870();
  Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  prof::Collector collector(kCapacity);
  LaunchConfig config;
  config.domain = Domain{64, 64};
  gpu.Execute(p, config, &collector);

  const std::string summary = collector.Take().Render();
  EXPECT_NE(summary.find("queueing vs service per clause type"),
            std::string::npos);
  EXPECT_NE(summary.find("TEX"), std::string::npos);
  EXPECT_NE(summary.find("ALU"), std::string::npos);
  EXPECT_NE(summary.find("EXP_DONE"), std::string::npos);
}

TEST(TraceTest, TracingDoesNotPerturbTiming) {
  const GpuArch arch = MakeRV770();
  Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  LaunchConfig config;
  config.domain = Domain{128, 128};
  prof::Collector collector(kCapacity);
  const KernelStats with = gpu.Execute(p, config, &collector);
  const KernelStats without = gpu.Execute(p, config);
  EXPECT_EQ(with.cycles, without.cycles);
  EXPECT_FALSE(collector.Current().events.empty());
}

TEST(TraceTest, ClearResets) {
  // Every profiled launch records into its own collector: a second run
  // of the same module records the same events again, never their sum.
  cal::Context ctx(cal::Device::Open("4870"));
  const cal::Module module = ctx.Compile(SmallKernel());
  LaunchConfig config;
  config.domain = Domain{64, 64};
  config.profile = true;
  const cal::RunEvent first = ctx.Run(module, config);
  const cal::RunEvent second = ctx.Run(module, config);
  ASSERT_NE(first.profile, nullptr);
  ASSERT_NE(second.profile, nullptr);
  const std::uint64_t waves = 64 * 64 / ctx.Arch().wavefront_size;
  EXPECT_EQ(first.profile->events.size(), waves * 5);
  EXPECT_EQ(second.profile->events.size(), first.profile->events.size());
  EXPECT_EQ(second.profile->dropped_events, 0u);
}

}  // namespace
}  // namespace amdmb::sim
