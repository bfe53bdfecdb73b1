// Unit tests for src/sim dispatch and resource layouts.
#include <gtest/gtest.h>

#include <set>

#include "arch/gpu_arch.hpp"
#include "common/status.hpp"
#include "sim/dispatch.hpp"
#include "sim/wavefront.hpp"

namespace amdmb::sim {
namespace {

TEST(DispatchTest, PixelModeWalksEightByEightTiles) {
  const auto waves = DispatchPixel(Domain{32, 16}, 64);
  ASSERT_EQ(waves.size(), 8u);  // 4x2 tiles.
  EXPECT_EQ(waves[0], (WaveRect{0, 0, 8, 8}));
  EXPECT_EQ(waves[1], (WaveRect{8, 0, 8, 8}));   // Row-major tile order.
  EXPECT_EQ(waves[4], (WaveRect{0, 8, 8, 8}));
  for (const WaveRect& w : waves) EXPECT_EQ(w.ThreadCount(), 64u);
}

TEST(DispatchTest, PixelModeRejectsUnalignedDomain) {
  EXPECT_THROW(DispatchPixel(Domain{30, 16}, 64), ConfigError);
  EXPECT_THROW(DispatchPixel(Domain{32, 12}, 64), ConfigError);
}

TEST(DispatchTest, Compute64x1StripsAreLinear) {
  const auto waves = DispatchCompute(Domain{128, 2}, BlockShape{64, 1}, 64);
  ASSERT_EQ(waves.size(), 4u);
  EXPECT_EQ(waves[0], (WaveRect{0, 0, 64, 1}));
  EXPECT_EQ(waves[1], (WaveRect{64, 0, 64, 1}));
  EXPECT_EQ(waves[2], (WaveRect{0, 1, 64, 1}));
}

TEST(DispatchTest, Compute4x16Blocks) {
  const auto waves = DispatchCompute(Domain{8, 32}, BlockShape{4, 16}, 64);
  ASSERT_EQ(waves.size(), 4u);
  EXPECT_EQ(waves[0], (WaveRect{0, 0, 4, 16}));
  EXPECT_EQ(waves[1], (WaveRect{4, 0, 4, 16}));
  EXPECT_EQ(waves[2], (WaveRect{0, 16, 4, 16}));
}

TEST(DispatchTest, ComputeRejectsBadBlocks) {
  // Block must hold exactly one wavefront.
  EXPECT_THROW(DispatchCompute(Domain{64, 64}, BlockShape{32, 1}, 64),
               ConfigError);
  // Domain must divide by the block (pad-to-64 rule).
  EXPECT_THROW(DispatchCompute(Domain{96, 1}, BlockShape{64, 1}, 64),
               ConfigError);
}

TEST(DispatchTest, EveryDomainElementCoveredExactlyOnce) {
  for (const auto& [mode, block] :
       std::vector<std::pair<ShaderMode, BlockShape>>{
           {ShaderMode::kPixel, {64, 1}},
           {ShaderMode::kCompute, {64, 1}},
           {ShaderMode::kCompute, {4, 16}}}) {
    const Domain domain{64, 32};
    const auto waves = BuildDispatch(domain, mode, block, 64);
    std::set<std::pair<unsigned, unsigned>> seen;
    for (const WaveRect& w : waves) {
      for (unsigned dy = 0; dy < w.height; ++dy) {
        for (unsigned dx = 0; dx < w.width; ++dx) {
          EXPECT_TRUE(seen.emplace(w.x + dx, w.y + dy).second);
        }
      }
    }
    EXPECT_EQ(seen.size(), domain.ThreadCount());
  }
}

TEST(ResourceLayoutsTest, LinesForCoverRectFootprint) {
  const GpuArch arch = MakeRV770();  // 64B lines: float tiles are 4x4.
  il::Signature sig;
  sig.inputs = 2;
  sig.outputs = 1;
  sig.type = DataType::kFloat;
  const ResourceLayouts layouts(arch, sig, Domain{64, 64});

  std::vector<mem::LineId> lines;
  layouts.TileLinesFor(WaveRect{0, 0, 8, 8}, lines);
  EXPECT_EQ(lines.size(), 4u);  // 8x8 texels over 4x4 tiles.
  lines.clear();
  layouts.TileLinesFor(WaveRect{0, 0, 64, 1}, lines);
  EXPECT_EQ(lines.size(), 16u);  // 64x1 strip: 16 partially-used tiles.
  lines.clear();
  layouts.TileLinesFor(WaveRect{0, 0, 4, 16}, lines);
  EXPECT_EQ(lines.size(), 4u);  // 4x16 block: 4 fully-used tiles.
  // The footprint is shared; only the base tells the inputs apart, and
  // a resource outside the signature is caught.
  EXPECT_NE(layouts.TextureBase(0), layouts.TextureBase(1));
  EXPECT_THROW(layouts.TextureBase(2), SimError);
}

TEST(ResourceLayoutsTest, Float4FootprintsAreLarger) {
  const GpuArch arch = MakeRV770();  // float4 tiles are 2x2.
  il::Signature sig;
  sig.inputs = 1;
  sig.outputs = 1;
  sig.type = DataType::kFloat4;
  const ResourceLayouts layouts(arch, sig, Domain{64, 64});
  std::vector<mem::LineId> lines;
  layouts.TileLinesFor(WaveRect{0, 0, 8, 8}, lines);
  EXPECT_EQ(lines.size(), 16u);  // 8x8 texels over 2x2 tiles.
  EXPECT_EQ(layouts.BytesFor(WaveRect{0, 0, 8, 8}), 64u * 16);
}

TEST(ResourceLayoutsTest, DistinctResourcesDoNotShareLines) {
  const GpuArch arch = MakeRV770();
  il::Signature sig;
  sig.inputs = 3;
  sig.outputs = 2;
  sig.type = DataType::kFloat;
  const ResourceLayouts layouts(arch, sig, Domain{64, 64});
  std::set<std::uint64_t> addrs;
  std::vector<mem::LineId> lines;
  layouts.TileLinesFor(WaveRect{0, 0, 64, 64}, lines);
  for (unsigned r = 0; r < 3; ++r) {
    for (const mem::LineId& l : lines) {
      EXPECT_TRUE(addrs.insert(layouts.TextureBase(r) + l.address).second)
          << "resource " << r;
    }
  }
  // Outputs get their own regions too.
  EXPECT_NE(layouts.GlobalAddress(0, true, WaveRect{0, 0, 64, 1}),
            layouts.GlobalAddress(1, true, WaveRect{0, 0, 64, 1}));
}

TEST(ResourceLayoutsTest, GlobalAddressesAreRowMajor) {
  const GpuArch arch = MakeRV770();
  il::Signature sig;
  sig.inputs = 1;
  sig.outputs = 1;
  sig.type = DataType::kFloat;
  const ResourceLayouts layouts(arch, sig, Domain{128, 8});
  const auto a0 = layouts.GlobalAddress(0, false, WaveRect{0, 0, 64, 1});
  const auto a1 = layouts.GlobalAddress(0, false, WaveRect{64, 0, 64, 1});
  EXPECT_EQ(a1 - a0, 64u * 4);
  const auto row1 = layouts.GlobalAddress(0, false, WaveRect{0, 1, 64, 1});
  EXPECT_EQ(row1 - a0, 128u * 4);
}

}  // namespace
}  // namespace amdmb::sim
