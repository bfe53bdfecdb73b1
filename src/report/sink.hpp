// The output-directory check every file writer of the report layer
// shares (report/output.hpp, json_sink.hpp, gnuplot_sink.hpp).
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

}  // namespace amdmb::report
