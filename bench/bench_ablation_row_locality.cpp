// Ablation: DRAM row-activation cost on texture-line fills. By default
// activations fully overlap with other banks' transfers (penalty 0); the
// knob shows how sensitive each dispatch shape's fill stream is to row
// locality — the naive 64x1 block touches more distinct rows per
// wavefront under Morton tiling and degrades fastest, matching the
// paper's remark that 64x1 also worsens "memory bank conflicts".
// The definition lives in suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv,
                            {"ablation_dram_row_activation_penalty_on_fills"});
}
