#include "prof/chrome_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/status.hpp"
#include "report/json.hpp"

namespace amdmb::prof {

namespace {

/// One "X" (complete) slice per clause event: track = SIMD engine,
/// duration = service time, with the queueing delay kept in args so the
/// wait is inspectable without a second slice per event.
void AppendClauseSlice(std::ostringstream& os, const sim::TraceEvent& event,
                       bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << isa::ToString(event.type)
     << R"(","cat":"clause","ph":"X","pid":0,"tid":)" << event.simd
     << R"(,"ts":)" << event.start << R"(,"dur":)"
     << (event.complete - event.start) << R"(,"args":{"wave":)" << event.wave
     << R"(,"clause":)" << event.clause << R"(,"queue_cycles":)"
     << (event.start - event.issue) << "}}";
}

void AppendOccupancyCounter(std::ostringstream& os,
                            const OccupancySample& sample, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"occupancy","ph":"C","pid":0,"tid":)" << sample.simd
     << R"(,"ts":)" << sample.t << R"(,"args":{"resident_wavefronts":)"
     << sample.resident << "}}";
}

void AppendThreadName(std::ostringstream& os, std::size_t simd,
                      bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << simd
     << R"(,"args":{"name":"SIMD )" << simd << R"("}})";
}

void AppendSanitized(std::string& out, std::string_view part) {
  if (part.empty()) return;
  if (!out.empty()) out.push_back('_');
  for (const char c : part) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) != 0
                      ? static_cast<char>(std::tolower(uc))
                      : '_');
  }
}

}  // namespace

std::string ChromeTraceJson(const Profile& profile) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Name every track that appears in either stream.
  std::size_t simd_count = profile.per_simd.size();
  for (const sim::TraceEvent& event : profile.events) {
    simd_count = std::max<std::size_t>(simd_count, event.simd + 1u);
  }
  for (std::size_t simd = 0; simd < simd_count; ++simd) {
    AppendThreadName(os, simd, first);
  }
  for (const sim::TraceEvent& event : profile.events) {
    AppendClauseSlice(os, event, first);
  }
  for (const OccupancySample& sample : profile.occupancy) {
    AppendOccupancyCounter(os, sample, first);
  }
  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
     << R"("kernel":")" << report::JsonEscape(profile.kernel)
     << R"(","point":")" << report::JsonEscape(profile.point)
     << R"(","arch":")" << report::JsonEscape(profile.arch)
     << R"(","mode":")" << report::JsonEscape(profile.mode)
     << R"(","type":")" << report::JsonEscape(profile.type)
     << R"(","attempt":)" << profile.attempt << R"(,"dropped_events":)"
     << profile.dropped_events << R"(,"bottleneck":")"
     << sim::ToString(profile.attribution.bottleneck) << "\"}}\n";
  return os.str();
}

std::string TraceFileName(const Profile& profile) {
  std::string stem;
  AppendSanitized(stem, profile.arch);
  AppendSanitized(stem, profile.mode);
  AppendSanitized(stem, profile.type);
  AppendSanitized(stem, profile.point.empty() ? profile.kernel
                                              : profile.point);
  if (stem.empty()) stem = "launch";
  if (profile.attempt > 1) {
    stem += "_a" + std::to_string(profile.attempt);
  }
  return stem + ".trace.json";
}

std::string WriteChromeTrace(const Profile& profile,
                             const std::string& dir) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path += TraceFileName(profile);
  // Written under a private name, then renamed: concurrent curves that
  // launch under the same name (the ablations keep the arch's name)
  // each leave a whole file, never an interleaved one.
  static std::atomic<std::uint64_t> next_private{0};
  const std::string written = path + ".tmp" + std::to_string(::getpid()) +
                              "_" + std::to_string(next_private++);
  {
    std::ofstream out(written, std::ios::binary | std::ios::trunc);
    Require(out.good(),
            "AMDMB_TRACE_DIR: cannot open '" + path + "' for writing");
    out << ChromeTraceJson(profile);
    out.flush();
    Require(out.good(), "AMDMB_TRACE_DIR: short write to '" + path + "'");
  }
  Require(std::rename(written.c_str(), path.c_str()) == 0,
          "AMDMB_TRACE_DIR: cannot rename to '" + path + "'");
  return path;
}

}  // namespace amdmb::prof
