// Ablation (paper Fig. 5 control): the clause-usage kernel keeps the
// register-usage kernel's exact ALU segmentation (forced clause breaks)
// but samples every input up front, pinning GPR usage. The paper uses it
// to prove Fig. 16's speedup comes from register pressure, not from
// moving ALU ops across clauses.
// The definition lives in suite::figures::Supplements().
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return amdmb::bench::Main(argc, argv,
                            {"ablation_clause_usage_control_paper_fig_5"});
}
