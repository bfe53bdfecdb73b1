// Fig. 10: ALU:Fetch ratio for 16 inputs using global read AND global
// write — RV770/RV870 in both modes (the paper's legend). With one
// small output, this should be near-identical to Fig. 9.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_10"});
}
