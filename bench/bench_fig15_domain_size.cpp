// Fig. 15: impact of domain size — ALU-bound kernel (ratio 10, eight
// inputs, one output) over 256x256..1024x1024 domains.
// (a) pixel shader, 8x8 increments; (b) compute shader, 64x64 increments.
// The figure definitions live in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweeps.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_15a", "fig_15b"});
}
