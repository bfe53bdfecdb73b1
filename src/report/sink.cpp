#include "report/sink.hpp"

#include <fstream>

#include "common/env.hpp"
#include "common/status.hpp"

namespace amdmb::report {

void EnsureWritableDirectory(const std::filesystem::path& directory,
                             std::string_view label) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    throw ConfigError(std::string(label) + ": cannot create directory '" +
                      directory.string() + "': " + ec.message());
  }
  // create_directories succeeds on an existing path even when it is not
  // a directory or not writable — probe with a real file.
  const std::filesystem::path probe =
      directory / ".amdmb_write_probe.tmp";
  {
    std::ofstream out(probe);
    if (!out.good()) {
      throw ConfigError(std::string(label) + ": directory '" +
                        directory.string() +
                        "' is not writable (cannot create files in it)");
    }
  }
  std::filesystem::remove(probe, ec);  // Best effort; the probe is empty.
}

void EnsureOutputDirectories(bool figure_files) {
  const env::Options& options = env::Get();
  if (figure_files && options.dump_dir) {
    EnsureWritableDirectory(*options.dump_dir, "AMDMB_DUMP_DIR");
  }
  if (figure_files && options.json_dir) {
    EnsureWritableDirectory(*options.json_dir, "AMDMB_JSON_DIR");
  }
  if (options.trace_dir) {
    EnsureWritableDirectory(*options.trace_dir, "AMDMB_TRACE_DIR");
  }
}

}  // namespace amdmb::report
