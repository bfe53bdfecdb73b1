// Extension bench: the block-size explorer (paper Sec. IV / future
// work). Sweeps every one-wavefront rectangular compute block shape for
// a fetch-bound kernel on RV770 and RV870 and reports the optimum and
// the naive 64x1 penalty.
// The definition lives in suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv,
                            {"extension_compute_block_size_explorer"});
}
