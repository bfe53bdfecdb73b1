// Fig. 13: streaming store latency — time vs number of outputs (1..8)
// with eight inputs (pinning GPR usage) and a low constant ALU budget;
// pixel-shader curves only (color buffers do not exist in compute mode).
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_13"});
}
