// Reading BENCH_<figure>.json documents back into Figure records.
//
// The inverse of report/json_sink.hpp, used by the amdmb_report
// aggregator: parse one document (or every BENCH_*.json in a results
// directory) into the same report::Figure the writer took, so
// cross-figure summaries and paper-expectation checks work on typed
// data — no regex scraping. Only schema v2 loads: its one v1 key
// without a typed home, "notes", is rendered from the findings, so the
// record carries it already. BenchJson(LoadFigureJson(BenchJson(f)))
// equals BenchJson(f).
#pragma once

#include <filesystem>
#include <string_view>
#include <vector>

#include "report/record.hpp"

namespace amdmb::report {

/// Parses one document: its curves land in `figure.set` (the x and y
/// axis labels, which the document does not carry, stay empty). Throws
/// ConfigError on malformed JSON, a document missing the "figure" key,
/// a "schema_version" other than 2, or an integer field out of range.
/// Findings with a kind this reader does not know are skipped (forward
/// compatibility).
Figure LoadFigureJson(std::string_view text);

/// Loads every BENCH_*.json in `directory`, sorted by filename for
/// deterministic aggregation order. When `slug` is non-empty only
/// `BENCH_<slug>.json` is loaded (the amdmb_report --figure filter).
/// Throws ConfigError, naming the file, when the directory does not
/// exist or any document fails to load.
std::vector<Figure> LoadFigureDirectory(
    const std::filesystem::path& directory, std::string_view slug = {});

}  // namespace amdmb::report
