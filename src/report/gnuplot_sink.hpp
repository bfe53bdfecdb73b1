// Gnuplot emission for reproduced figures.
//
// The paper's plots are classic gnuplot line charts; given a SeriesSet
// this module writes the `.dat` column file plus a ready-to-run `.gp`
// script so `gnuplot fig07.gp` regenerates the figure as SVG.
// report::WriteFiles calls it when AMDMB_DUMP_DIR is set.
#pragma once

#include <filesystem>
#include <string>

#include "report/record.hpp"

namespace amdmb {

/// Writes `<stem>.dat` and `<stem>.gp` under the existing `directory`
/// and returns the script path. Throws ConfigError on I/O failure.
std::filesystem::path WriteGnuplot(const SeriesSet& set,
                                   const std::filesystem::path& directory,
                                   const std::string& stem);

/// The script text alone (for tests and embedding).
std::string GnuplotScript(const SeriesSet& set, const std::string& dat_file,
                          const std::string& output_file);

/// Writes a 2D frontier map as `<stem>_frontier.dat` (x y code rows,
/// one blank line per grid row; the label-to-code legend rides in
/// comments) plus the pm3d heatmap script `<stem>_frontier.gp`, and
/// returns the script path. Codes are assigned to labels in sorted
/// order, so the emission is deterministic. Throws ConfigError on I/O
/// failure.
std::filesystem::path WriteFrontierGnuplot(
    const report::Frontier& frontier, const std::filesystem::path& directory,
    const std::string& stem);

}  // namespace amdmb
