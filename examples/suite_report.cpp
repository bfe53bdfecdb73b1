// Builds every document of the suite — the paper's numbered figures,
// then Table I, the block-size extension, the Fig. 5 control, the
// ablations and the frontier map — and prints each one as a text
// report: the curve columns plus the measured findings next to the
// paper's claim.
//
// Run:  ./example_suite_report [--quick]
#include <cstring>
#include <iostream>

#include "amdmb.hpp"
#include "report/output.hpp"

int main(int argc, char** argv) {
  namespace figures = amdmb::suite::figures;
  figures::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::cerr << "usage: " << argv[0] << " [--quick]\n";
      return 1;
    }
    opts.quick = true;
  }
  try {
    for (const auto* list : {&figures::Registry(), &figures::Supplements()}) {
      for (const figures::FigureDef& def : *list) {
        amdmb::report::WriteText(std::cout, figures::Build(def, opts));
      }
    }
  } catch (const amdmb::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
