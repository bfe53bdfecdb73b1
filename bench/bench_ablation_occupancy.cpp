// Ablation: the scheduler's wavefront-residency cap. The paper never
// states the hardware cap; this sweep shows how the Fig. 16 register
// effect depends on it — with a tiny cap the register sweep cannot
// convert freed GPRs into occupancy and flattens out.
// The definition lives in suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"ablation_wavefront_residency_cap"});
}
