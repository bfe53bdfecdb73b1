// Fig. 9: ALU:Fetch ratio for 16 inputs read from global memory with
// streaming stores — pixel-shader curves for all three GPUs (the
// paper's legend shows the six pixel curves).
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_9"});
}
