// CAL runtime facade tests: device lookup, module compilation, launches.
#include <gtest/gtest.h>

#include <tuple>

#include "cal/cal.hpp"
#include "common/status.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"

namespace amdmb::cal {
namespace {

il::Kernel SimpleKernel(DataType type = DataType::kFloat) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 32;
  spec.type = type;
  return suite::GenerateGeneric(spec);
}

TEST(DeviceTest, OpenByName) {
  EXPECT_EQ(Device::Open("4870").Info().name, "RV770");
  EXPECT_EQ(Device::Open("RV870").Info().name, "RV870");
  EXPECT_FALSE(Device::Open("3870").SupportsComputeShader());
  EXPECT_TRUE(Device::Open("5870").SupportsComputeShader());
  EXPECT_THROW(Device::Open("tesla"), ConfigError);
}

TEST(ContextTest, CompileProducesModuleWithSka) {
  const Device device = Device::Open("4870");
  Context ctx(device);
  const Module module = ctx.Compile(SimpleKernel());
  EXPECT_EQ(module.Ska().alu_ops, 32u);
  EXPECT_EQ(module.Ska().fetch_ops, 4u);
  EXPECT_DOUBLE_EQ(module.Ska().alu_fetch_ratio, 2.0);
  EXPECT_NE(module.Disassemble().find("END_OF_PROGRAM"), std::string::npos);
}

TEST(ContextTest, CompileRejectsInvalidKernel) {
  Context ctx(Device::Open("4870"));
  il::Kernel bad;
  bad.sig.inputs = 0;
  bad.sig.outputs = 0;
  EXPECT_THROW(ctx.Compile(bad), ConfigError);
}

TEST(ContextTest, RunReturnsTimerAndStats) {
  Context ctx(Device::Open("4870"));
  const Module module = ctx.Compile(SimpleKernel());
  sim::LaunchConfig config;
  config.domain = Domain{256, 256};
  const RunEvent ev = ctx.Run(module, config);
  EXPECT_GT(ev.seconds, 0.0);
  EXPECT_EQ(ev.seconds, ev.stats.seconds);
  EXPECT_GT(ev.stats.cycles, 0u);
  EXPECT_EQ(ev.stats.gpr_count, module.Program().gpr_count);
}

TEST(ContextTest, PixelAndComputeLaunchesDiffer) {
  Context ctx(Device::Open("5870"));
  suite::GenericSpec spec;
  spec.inputs = 8;
  spec.alu_ops = 8;  // Fetch-bound, so cache behaviour shows.
  spec.write_path = WritePath::kGlobal;
  const Module module = ctx.Compile(suite::GenerateGeneric(spec));
  sim::LaunchConfig config;
  config.domain = Domain{256, 256};
  config.mode = ShaderMode::kPixel;
  const RunEvent pixel = ctx.Run(module, config);
  config.mode = ShaderMode::kCompute;
  config.block = BlockShape{64, 1};
  const RunEvent compute = ctx.Run(module, config);
  // The naive 64x1 compute dispatch must not beat the rasterizer's tiled
  // order (paper Sec. IV-A).
  EXPECT_GE(compute.seconds, pixel.seconds * 0.95);
}

TEST(ContextTest, RunAgreesWithRunnerMeasure) {
  // Context::Run and suite::Runner::Measure are two front doors to one
  // launch: the same kernel, arch, launch and point give the same stats
  // and the same profile.
  const Device device = Device::Open("4870");
  Context ctx(device);
  const suite::Runner runner(device.Info(), /*cache=*/nullptr);
  const il::Kernel kernel = SimpleKernel(DataType::kFloat4);
  sim::LaunchConfig config;
  config.domain = Domain{128, 128};
  config.profile = true;
  const CallContext call{"agree_point", 2};
  const RunEvent ev = ctx.Run(ctx.Compile(kernel, call), config, call);
  const suite::Measurement m = runner.Measure(kernel, config, call);
  EXPECT_EQ(ev.stats, m.stats);
  EXPECT_EQ(ev.seconds, m.seconds);
  ASSERT_NE(ev.profile, nullptr);
  ASSERT_NE(m.profile, nullptr);
  const prof::Profile& a = *ev.profile;
  const prof::Profile& b = *m.profile;
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.clauses, b.clauses);
  EXPECT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  const auto fields = [](const sim::TraceEvent& e) {
    return std::tie(e.issue, e.start, e.complete, e.wave, e.simd, e.clause,
                    e.type);
  };
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(fields(a.events[i]), fields(b.events[i])) << "event " << i;
  }
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.point, "agree_point");
  EXPECT_EQ(b.point, "agree_point");
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.attempt, 2u);
  EXPECT_EQ(b.attempt, 2u);
}

}  // namespace
}  // namespace amdmb::cal
