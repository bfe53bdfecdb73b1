#include "suite/block_size.hpp"

#include <cmath>

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

std::vector<BlockShape> WavefrontBlockShapes(unsigned wavefront_size) {
  Require(wavefront_size > 0 &&
              (wavefront_size & (wavefront_size - 1)) == 0,
          "WavefrontBlockShapes: wavefront size must be a power of two");
  std::vector<BlockShape> shapes;
  for (unsigned width = wavefront_size; width >= 1; width /= 2) {
    shapes.push_back(BlockShape{width, wavefront_size / width});
  }
  return shapes;
}

BlockSizeResult RunBlockSizeExplorer(const Runner& runner,
                                     const BlockSizeConfig& config) {
  Require(runner.Arch().supports_compute,
          "block-size explorer requires compute shader mode");
  GenericSpec spec;
  spec.inputs = config.inputs;
  spec.alu_ops = AluOpsForRatio(config.alu_fetch_ratio, config.inputs);
  spec.type = config.type;
  spec.read_path = ReadPath::kTexture;
  spec.write_path = WritePath::kGlobal;
  spec.name = "block_explorer";
  const il::Kernel kernel = GenerateGeneric(spec);

  // Every shape must divide the domain.
  std::vector<BlockShape> shapes;
  for (const BlockShape& block :
       WavefrontBlockShapes(runner.Arch().wavefront_size)) {
    if (config.domain.width % block.x == 0 &&
        config.domain.height % block.y == 0) {
      shapes.push_back(block);
    }
  }
  Check(!shapes.empty(), "block explorer: no dividing shapes");

  const auto name_of = [&](std::size_t i) {
    return "block_" + std::to_string(shapes[i].x) + "x" +
           std::to_string(shapes[i].y);
  };
  // The explorer has no adaptive mode: it measures every shape.
  SweepOptions dense = config;
  dense.adaptive = nullptr;
  BlockSizeResult result;
  SweepPoints(
      shapes.size(),
      [&](std::size_t i) {
        return std::log2(static_cast<double>(shapes[i].x));
      },
      [&](std::size_t i, unsigned attempt) {
        return runner.Measure(
            kernel, config.Launch(config.domain, ShaderMode::kCompute,
                                  shapes[i]),
            {name_of(i), attempt});
      },
      name_of, dense, result);

  double naive_seconds = 0.0;
  bool first = true;
  for (const SweepPoint& point : result.points) {
    if (first || point.m.seconds < result.best_seconds) {
      result.best = shapes[point.index];
      result.best_seconds = point.m.seconds;
      first = false;
    }
    if (shapes[point.index].y == 1) naive_seconds = point.m.seconds;
  }
  result.naive_penalty = naive_seconds > 0.0 && result.best_seconds > 0.0
                             ? naive_seconds / result.best_seconds
                             : 1.0;
  return result;
}

std::vector<report::Finding> Findings(const BlockSizeResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  findings.push_back({report::FindingKind::kPlateau, curve, "best_seconds",
                      result.best_seconds, "s",
                      "best block " + std::to_string(result.best.x) + "x" +
                          std::to_string(result.best.y)});
  findings.push_back({report::FindingKind::kRatio, curve, "naive_penalty",
                      result.naive_penalty, "x", ""});
  return findings;
}

}  // namespace amdmb::suite
