// Fig. 8: ALU:Fetch ratio for 16 inputs with a 4x16 compute block.
// Compute-shader curves for RV770/RV870 only (the paper's legend), to be
// compared against the naive 64x1 compute curves of Fig. 7.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_8"});
}
