// Fig. 12: global read latency — time vs number of inputs (2..18) with
// inputs read from uncached global memory, all ten paper curves.
// The figure definition lives in the suite registry (suite/figures.hpp)
// so the amdmb_serve daemon runs the identical sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"fig_12"});
}
