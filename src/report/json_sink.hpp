// Machine-readable figure records: the BENCH_<figure>.json writer.
//
// Mirrors the HPC-benchmark report layout referenced in SNIPPETS.md:
// every figure dumps one JSON document with its provenance (schema
// version + meta block), each curve's raw sweep points (x, simulated
// seconds), per-curve summary statistics, and the typed findings and
// degradations of the run. report::WriteFiles writes
// `BENCH_<figure>.json` when AMDMB_JSON_DIR is set; report/load.hpp
// reads the documents back into Figure records for the amdmb_report
// aggregator.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "report/record.hpp"

namespace amdmb::report {

/// Filesystem-safe stem derived from a figure id. Lower-cases
/// alphanumerics, collapses every other character run to one underscore,
/// and stops at the em-dash separating a *numbered* id from its title —
/// so "Fig. 7 — ALU:Fetch" -> "fig_7" and "Figs. 11-12 — Read latency"
/// -> "figs_11_12", while unnumbered ids keep their full text
/// ("Ablation — Clause Usage Control" ->
/// "ablation_clause_usage_control") so distinct figures never share a
/// slug.
std::string FigureSlug(std::string_view id);

/// The figure record as schema-v2 JSON text. Keys of the v1 layout
/// (figure, title, paper_claim, notes, curves) keep their shape;
/// schema_version, meta, and findings are additive, and the typed
/// "degradations" array is only emitted when at least one point
/// degraded — so fault-free documents only gain the new keys.
std::string BenchJson(const Figure& figure);

/// Writes `BENCH_<slug>.json` under the existing `directory` and
/// returns the file path. Throws ConfigError on I/O failure.
std::filesystem::path WriteBenchJson(const Figure& figure,
                                     const std::filesystem::path& directory);

}  // namespace amdmb::report
