// Table I: GPU hardware features, rendered from the machine
// descriptions, plus derived execution-model identities the paper quotes
// (800 ALUs = 10 SIMDs x 16 TPs x 5 lanes; 256 GPRs per thread; 51
// wavefronts at 5 GPRs). The findings document lives in
// suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"table_i"},
                            amdmb::RenderHardwareTable() + "\n");
}
