// Every output of one figure record.
//
// WriteText prints the human-readable report block; WriteFiles writes
// the gnuplot, BENCH JSON and CSV files. Each format is a projection
// of the same typed Figure, never a hand-formatted side channel.
// bench::Main and `amdmb_adapt frontier` call both.
#pragma once

#include <filesystem>
#include <optional>
#include <ostream>

#include "report/record.hpp"

namespace amdmb::report {

/// The stdout report block: figure banner, paper claim, the
/// "x  y1  y2 ..." column grid, a "Measured:" list rendered from the
/// typed findings and, only when present, a "Fault annotations" list
/// and a "Profiled points" list.
void WriteText(std::ostream& os, const Figure& figure);

/// Writes the figure's files and logs `<kind>: <path>` to `log` for
/// each once it is written. Under `dump_dir`: `<slug>.dat/.gp` when
/// the figure has curves and `<slug>_frontier.dat/.gp` when it has a
/// frontier ("Gnuplot script"). Under `json_dir`: `BENCH_<slug>.json`
/// when it has curves, findings or degradations ("JSON results"; Table
/// I has only findings), then `<slug>.csv` when it has curves ("CSV
/// results"). The directories must exist (EnsureOutputDirectories).
/// Throws ConfigError on I/O failure.
void WriteFiles(const Figure& figure,
                const std::optional<std::filesystem::path>& dump_dir,
                const std::optional<std::filesystem::path>& json_dir,
                std::ostream& log);

}  // namespace amdmb::report
