// Umbrella header for the micro-benchmark suite — the paper's
// contribution — and the figure definitions built from it.
#pragma once

#include "suite/alu_fetch.hpp"
#include "suite/block_size.hpp"
#include "suite/bottleneck.hpp"
#include "suite/domain_size.hpp"
#include "suite/figures.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"
#include "suite/read_latency.hpp"
#include "suite/register_usage.hpp"
#include "suite/write_latency.hpp"
