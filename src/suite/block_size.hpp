// Block-size explorer — the extension the paper proposes in Sec. IV
// ("it is possible that one can achieve greater performance by using
// different block sizes (4x16 for example). It is also possible that
// certain applications may perform better than others when using
// different block sizes") and in its future work ("more explicitly
// isolate parameters").
//
// Sweeps every rectangular one-wavefront block shape (64x1 .. 1x64) for
// a given kernel in compute mode and reports the per-shape measurement,
// the best shape, and the penalty of the naive 64x1 choice.
#pragma once

#include <vector>

#include "report/record.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct BlockSizeConfig : SweepOptions {
  unsigned inputs = 16;
  double alu_fetch_ratio = 0.25;  ///< Fetch-bound, so block shape matters.
  DataType type = DataType::kFloat4;
  Domain domain{1024, 1024};
};

struct BlockSizePoint {
  BlockShape block;
  Measurement m;
};

/// Points run wide to tall; the explorer always sweeps densely, so
/// `adaptive` stays empty.
struct BlockSizeResult : SweepResult<BlockSizePoint> {
  BlockShape best;
  double best_seconds = 0.0;
  /// Slowdown of the naive 64x1 shape relative to the best.
  double naive_penalty = 1.0;
};

/// All one-wavefront rectangular block shapes for the wavefront size
/// (64x1, 32x2, 16x4, 8x8, 4x16, 2x32, 1x64 for 64-thread wavefronts).
std::vector<BlockShape> WavefrontBlockShapes(unsigned wavefront_size);

BlockSizeResult RunBlockSizeExplorer(const Runner& runner,
                                     const BlockSizeConfig& config);

/// Typed findings of one exploration, attributed to `curve`:
/// "best_seconds" (detail names the winning WxH shape) and
/// "naive_penalty" (64x1 slowdown over the best shape). Empty when the
/// exploration produced no points.
std::vector<report::Finding> Findings(const BlockSizeResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
