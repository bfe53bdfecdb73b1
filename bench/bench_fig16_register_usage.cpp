// Fig. 16: impact of register usage — the Fig. 6 kernel with 64 inputs,
// space 8, step 0..7 (GPRs ~64 down to ~9), ALU:Fetch ratio 4.0, all ten
// paper curves. X axis is the compiled GPR count, descending as in the
// paper.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_16"});
}
