// Fig. 7: ALU:Fetch ratio for 16 inputs, all ten paper curves (three
// GPUs x pixel/compute x float/float4; RV670 has no compute mode).
// Texture reads, streaming stores (global writes in compute mode),
// 1024x1024 domain, naive 64x1 compute blocks, ratios 0.25..8.0.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_7"});
}
