// JSON round-trip for prof::Profile and prof::CounterSet, built on the
// report layer's dependency-free JSON utilities. Used by the
// amdmb_prof CLI (--json output, --diff input), by report::BenchJson
// for the additive "profile" block, and by the round-trip tests.
//
// The document carries the sampled aggregates (counters, per-clause
// queue/service, per-bank row switches, touched cache sets,
// attribution) but not the raw event or occupancy streams — those
// export as a Chrome trace instead (prof/chrome_trace.hpp).
#pragma once

#include <string>

#include "prof/profile.hpp"

namespace amdmb::report {
class JsonValue;
}  // namespace amdmb::report

namespace amdmb::prof {

/// `{"cycles": 1234, "wavefronts": 64, ...}` — every counter by its
/// snake_case registry name, zero or not, so diffs line up key-for-key.
std::string CounterSetJson(const CounterSet& counters);

/// Inverse of CounterSetJson. Unknown keys are ignored (forward
/// compat); missing counters stay zero. Throws ConfigError, naming the
/// key, when a value is not an integer in [0, 2^53], or when `value` is
/// not an object.
CounterSet CounterSetFromJson(const report::JsonValue& value);

/// The full profile document, one JSON object.
std::string ProfileJson(const Profile& profile);

/// Parses a ProfileJson document back into a Profile (without the
/// event/occupancy streams, which the document intentionally omits).
/// Throws ConfigError on malformed JSON, on shape errors, and, naming
/// the key, on a count that is not an integer in [0, 2^53], a
/// `cache_sets.total` above the most sets any modelled chip has, or a
/// touched set not below `total`.
Profile ParseProfileJson(const std::string& text);

}  // namespace amdmb::prof
