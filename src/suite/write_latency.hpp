// Streaming-store / global-write latency micro-benchmark
// (paper Sec. III-C, Figs. 13-14).
//
// Sweeps the number of outputs with the input size fixed at eight —
// which pins the GPR count to the input size and keeps occupancy
// constant across the sweep — and a low constant ALU budget, so larger
// output counts become memory-bound while the smallest stay fetch-bound
// (the flat left end of Fig. 13).
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "report/record.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite {

struct WriteLatencyConfig : SweepOptions {
  unsigned inputs = 8;
  unsigned min_outputs = 1;
  unsigned max_outputs = 8;
  unsigned alu_ops = 16;  ///< "relatively low constant value" (Sec. III-C).
  Domain domain{1024, 1024};
  BlockShape block{64, 1};
  WritePath write_path = WritePath::kStream;  ///< kGlobal for Fig. 14.
};

/// Points are at x = the output count.
struct WriteLatencyResult : SweepResult {
  LineFit fit;  ///< seconds vs outputs, over the measured points only.
};

/// The kernel the sweep measures at `outputs`, named
/// "writelat_out<outputs>". Compute mode writes globally whatever
/// `config.write_path` says.
il::Kernel WriteLatencyKernel(const WriteLatencyConfig& config,
                              ShaderMode mode, DataType type,
                              unsigned outputs);

WriteLatencyResult RunWriteLatency(const Runner& runner, ShaderMode mode,
                                   DataType type,
                                   const WriteLatencyConfig& config);

/// Typed findings of one sweep, attributed to `curve`: the fitted
/// "seconds_per_output" slope and its "fit_r2" quality. Emitted even
/// for an empty sweep (zeros), so faulted runs stay deterministic.
std::vector<report::Finding> Findings(const WriteLatencyResult& result,
                                      const std::string& curve);

}  // namespace amdmb::suite
