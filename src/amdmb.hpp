// amdmb — public umbrella header.
//
// A reproduction of "A Micro-benchmark Suite for AMD GPUs" (Taylor & Li,
// ICPP Workshops 2010): an IL->clause-VLIW compiler, a timing simulator
// of the RV670/RV770/RV870 execution model, a CAL-style runtime, and the
// paper's micro-benchmark suite on top.
//
// Typical use (see examples/quickstart.cpp):
//   cal::Device device = cal::Device::Open("4870");
//   cal::Context ctx(device);
//   il::Kernel kernel = suite::GenerateGeneric({...});
//   cal::Module module = ctx.Compile(kernel);
//   cal::RunEvent ev = ctx.Run(module, {.domain = {1024, 1024}});
//   // ev.seconds, ev.stats.bottleneck, ...
#pragma once

#include "arch/gpu_arch.hpp"      // IWYU pragma: export
#include "arch/occupancy.hpp"     // IWYU pragma: export
#include "cal/cal.hpp"            // IWYU pragma: export
#include "cal/interp.hpp"         // IWYU pragma: export
#include "common/stats.hpp"       // IWYU pragma: export
#include "common/status.hpp"      // IWYU pragma: export
#include "common/table.hpp"       // IWYU pragma: export
#include "common/types.hpp"       // IWYU pragma: export
#include "compiler/compiler.hpp"  // IWYU pragma: export
#include "compiler/ska.hpp"       // IWYU pragma: export
#include "il/builder.hpp"         // IWYU pragma: export
#include "il/parser.hpp"          // IWYU pragma: export
#include "il/printer.hpp"         // IWYU pragma: export
#include "il/verifier.hpp"        // IWYU pragma: export
#include "report/record.hpp"      // IWYU pragma: export
#include "report/series.hpp"      // IWYU pragma: export
#include "sim/gpu.hpp"            // IWYU pragma: export
#include "suite/suite.hpp"        // IWYU pragma: export
