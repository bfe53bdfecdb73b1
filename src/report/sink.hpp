// The output-directory check a program makes once, before any sweep,
// for the directories its writers (report/output.hpp) and profiled
// launches (prof/chrome_trace.hpp) write to.
#pragma once

#include <filesystem>
#include <string_view>

namespace amdmb::report {

/// Validates that `directory` exists (creating it if needed) and is
/// writable by actually creating and removing a probe file in it.
/// Throws ConfigError naming `label` (e.g. "AMDMB_JSON_DIR") with the
/// OS error detail — a bad output directory must fail loudly up front,
/// not silently drop results at the end of a long run.
void EnsureWritableDirectory(const std::filesystem::path& directory,
                             std::string_view label);

/// EnsureWritableDirectory on each output directory the environment
/// sets, labelled with its variable: AMDMB_DUMP_DIR and AMDMB_JSON_DIR
/// when the program writes figure files (report::WriteFiles), then
/// AMDMB_TRACE_DIR, where profiled launches write their traces.
void EnsureOutputDirectories(bool figure_files);

}  // namespace amdmb::report
