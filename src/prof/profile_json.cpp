#include "prof/profile_json.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "arch/gpu_arch.hpp"
#include "common/status.hpp"
#include "report/json.hpp"

namespace amdmb::prof {

namespace {

/// Counter values are exact integers; JsonNumber would round-trip them
/// through double. 64-bit counters stay within 2^53 for any simulated
/// launch this suite runs, but emit them as integer literals anyway so
/// the documents read naturally.
std::string U64(std::uint64_t v) { return std::to_string(v); }

/// The most texture-cache sets of any modelled chip (RV770: 320). It
/// bounds `cache_sets.total`, which sizes an allocation.
std::uint64_t MaxCacheSets() {
  std::uint64_t most = 0;
  for (const GpuArch& arch : AllArchs()) {
    most = std::max<std::uint64_t>(
        most, arch.TotalTexCacheBytes() /
                  (arch.l1.line_bytes * arch.l1.associativity));
  }
  return most;
}

sim::Bottleneck BottleneckFromString(std::string_view name) {
  if (name == "ALU") return sim::Bottleneck::kAlu;
  if (name == "FETCH") return sim::Bottleneck::kFetch;
  if (name == "MEMORY") return sim::Bottleneck::kMemory;
  Require(false, "profile JSON: unknown bottleneck '" + std::string(name) +
                     "'");
  return sim::Bottleneck::kAlu;
}

isa::ClauseType ClauseTypeFromString(std::string_view name) {
  for (std::size_t i = 0; i < kClauseTypeCount; ++i) {
    const auto type = static_cast<isa::ClauseType>(i);
    if (isa::ToString(type) == name) return type;
  }
  Require(false,
          "profile JSON: unknown clause type '" + std::string(name) + "'");
  return isa::ClauseType::kAlu;
}

}  // namespace

std::string CounterSetJson(const CounterSet& counters) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto id = static_cast<CounterId>(i);
    os << (i ? ", " : "") << "\"" << ToString(id)
       << "\": " << U64(counters.Get(id));
  }
  os << "}";
  return os.str();
}

CounterSet CounterSetFromJson(const report::JsonValue& value) {
  CounterSet counters;
  for (const auto& [key, v] : value.AsObject()) {
    if (const auto id = CounterIdFromString(key)) {
      counters.Set(*id, report::AsU64(v, key));
    }
  }
  return counters;
}

std::string ProfileJson(const Profile& profile) {
  using report::JsonEscape;
  using report::JsonNumber;
  std::ostringstream os;
  os << "{\n";
  os << "  \"kernel\": \"" << JsonEscape(profile.kernel) << "\",\n";
  os << "  \"point\": \"" << JsonEscape(profile.point) << "\",\n";
  os << "  \"arch\": \"" << JsonEscape(profile.arch) << "\",\n";
  os << "  \"mode\": \"" << JsonEscape(profile.mode) << "\",\n";
  os << "  \"type\": \"" << JsonEscape(profile.type) << "\",\n";
  os << "  \"attempt\": " << profile.attempt << ",\n";
  os << "  \"counters\": " << CounterSetJson(profile.counters) << ",\n";
  os << "  \"clauses\": [";
  bool first = true;
  for (std::size_t i = 0; i < kClauseTypeCount; ++i) {
    const ClauseAgg& agg = profile.clauses[i];
    if (agg.events == 0) continue;
    os << (first ? "" : ",") << "\n    {\"type\": \""
       << isa::ToString(static_cast<isa::ClauseType>(i))
       << "\", \"events\": " << U64(agg.events)
       << ", \"queue_cycles\": " << U64(agg.queue_cycles)
       << ", \"service_cycles\": " << U64(agg.service_cycles) << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << ",\n";
  os << "  \"per_simd\": [";
  for (std::size_t i = 0; i < profile.per_simd.size(); ++i) {
    os << (i ? ", " : "") << "{\"alu_cycles\": "
       << U64(profile.per_simd[i].alu_cycles)
       << ", \"tex_cycles\": " << U64(profile.per_simd[i].tex_cycles)
       << "}";
  }
  os << "],\n";
  os << "  \"row_switches_per_bank\": [";
  for (std::size_t i = 0; i < profile.row_switches_per_bank.size(); ++i) {
    os << (i ? ", " : "") << U64(profile.row_switches_per_bank[i]);
  }
  os << "],\n";
  // Only touched sets, indexed: RV770 models 320 sets and most launches
  // touch a handful, so a dense dump would be noise.
  os << "  \"cache_sets\": {\"total\": " << profile.per_cache_set.size()
     << ", \"touched\": [";
  first = true;
  for (std::size_t set = 0; set < profile.per_cache_set.size(); ++set) {
    const CacheSetStats& stats = profile.per_cache_set[set];
    if (stats.hits + stats.misses == 0) continue;
    os << (first ? "" : ",") << "\n    {\"set\": " << set
       << ", \"hits\": " << U64(stats.hits)
       << ", \"misses\": " << U64(stats.misses) << "}";
    first = false;
  }
  os << (first ? "]}" : "\n  ]}") << ",\n";
  os << "  \"dropped_events\": " << U64(profile.dropped_events) << ",\n";
  os << "  \"attribution\": {\"bottleneck\": \""
     << sim::ToString(profile.attribution.bottleneck)
     << "\", \"alu_score\": " << JsonNumber(profile.attribution.alu_score)
     << ", \"fetch_score\": "
     << JsonNumber(profile.attribution.fetch_score)
     << ", \"memory_score\": "
     << JsonNumber(profile.attribution.memory_score) << "}\n";
  os << "}\n";
  return os.str();
}

Profile ParseProfileJson(const std::string& text) {
  using report::AsU64;
  using report::U64Or;
  const report::JsonValue value = report::JsonValue::Parse(text);
  Profile profile;
  profile.kernel = value.StringOr("kernel", "");
  profile.point = value.StringOr("point", "");
  profile.arch = value.StringOr("arch", "");
  profile.mode = value.StringOr("mode", "");
  profile.type = value.StringOr("type", "");
  if (const auto* attempt = value.Find("attempt")) {
    profile.attempt = static_cast<unsigned>(
        AsU64(*attempt, "attempt", std::numeric_limits<unsigned>::max()));
  }
  if (const auto* counters = value.Find("counters")) {
    profile.counters = CounterSetFromJson(*counters);
  }
  if (const auto* clauses = value.Find("clauses")) {
    for (const report::JsonValue& entry : clauses->AsArray()) {
      const isa::ClauseType type =
          ClauseTypeFromString(entry.StringOr("type", ""));
      ClauseAgg& agg =
          profile.clauses[static_cast<std::size_t>(type)];
      agg.events = U64Or(entry, "events", 0);
      agg.queue_cycles = U64Or(entry, "queue_cycles", 0);
      agg.service_cycles = U64Or(entry, "service_cycles", 0);
    }
  }
  if (const auto* per_simd = value.Find("per_simd")) {
    for (const report::JsonValue& entry : per_simd->AsArray()) {
      profile.per_simd.push_back(SimdBusy{U64Or(entry, "alu_cycles", 0),
                                          U64Or(entry, "tex_cycles", 0)});
    }
  }
  if (const auto* banks = value.Find("row_switches_per_bank")) {
    for (const report::JsonValue& entry : banks->AsArray()) {
      profile.row_switches_per_bank.push_back(
          AsU64(entry, "row_switches_per_bank"));
    }
  }
  if (const auto* cache = value.Find("cache_sets")) {
    if (const auto* total = cache->Find("total")) {
      profile.per_cache_set.resize(
          AsU64(*total, "cache_sets.total", MaxCacheSets()));
    }
    if (const auto* touched = cache->Find("touched")) {
      for (const report::JsonValue& entry : touched->AsArray()) {
        const std::uint64_t set = U64Or(entry, "set", 0);
        Require(set < profile.per_cache_set.size(),
                "profile JSON: touched set " + std::to_string(set) +
                    " is not below cache_sets.total " +
                    std::to_string(profile.per_cache_set.size()));
        profile.per_cache_set[set] = CacheSetStats{
            U64Or(entry, "hits", 0), U64Or(entry, "misses", 0)};
      }
    }
  }
  profile.dropped_events = U64Or(value, "dropped_events", 0);
  if (const auto* attribution = value.Find("attribution")) {
    profile.attribution.bottleneck =
        BottleneckFromString(attribution->StringOr("bottleneck", "ALU"));
    profile.attribution.alu_score = attribution->NumberOr("alu_score", 0);
    profile.attribution.fetch_score =
        attribution->NumberOr("fetch_score", 0);
    profile.attribution.memory_score =
        attribution->NumberOr("memory_score", 0);
  }
  return profile;
}

}  // namespace amdmb::prof
