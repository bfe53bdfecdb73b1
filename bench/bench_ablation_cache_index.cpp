// Ablation: the 2-D texture-cache set indexing. The paper attributes the
// 64x1 compute penalty partly to "only half the cache is used" because
// the cache is organised in two dimensions. Disabling the 2-D index
// isolates how much of the naive-block penalty that organisation causes
// versus plain partial-line waste.
// The definition lives in suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv, {"ablation_2_d_cache_set_indexing"});
}
