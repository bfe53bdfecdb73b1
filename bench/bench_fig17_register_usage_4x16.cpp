// Fig. 17: impact of register usage with a 4x16 compute block —
// RV770/RV870 compute curves, to be compared against Fig. 16's naive
// 64x1 compute curves.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_17"});
}
