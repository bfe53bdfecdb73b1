#include "fault/fault.hpp"

#include <mutex>

#include "common/env.hpp"
#include "common/status.hpp"

namespace amdmb::fault {

namespace {

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
constexpr std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a over the key bytes; order-independent of everything else.
constexpr std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

double ParseProbability(std::string_view token, std::string_view value) {
  char* end = nullptr;
  const std::string text(value);
  const double p = std::strtod(text.c_str(), &end);
  Require(end == text.c_str() + text.size() && !text.empty(),
          "AMDMB_FAULTS: '" + std::string(token) +
              "' has a non-numeric probability");
  Require(p >= 0.0 && p <= 1.0,
          "AMDMB_FAULTS: probability in '" + std::string(token) +
              "' must lie in [0, 1]");
  return p;
}

const FaultInjector* g_override = nullptr;
bool g_override_active = false;

}  // namespace

std::string_view ToString(FaultSite site) {
  switch (site) {
    case FaultSite::kCompile: return "compile";
    case FaultSite::kLaunch: return "launch";
    case FaultSite::kHang: return "hang";
    case FaultSite::kReadback: return "readback";
    case FaultSite::kWorkerCrash: return "worker_crash";
    case FaultSite::kWorkerHang: return "worker_hang";
  }
  throw SimError("ToString(FaultSite): unknown value");
}

double FaultSpec::Probability(FaultSite site) const {
  switch (site) {
    case FaultSite::kCompile: return compile;
    case FaultSite::kLaunch: return launch;
    case FaultSite::kHang: return hang;
    case FaultSite::kReadback: return readback;
    case FaultSite::kWorkerCrash: return worker_crash;
    case FaultSite::kWorkerHang: return worker_hang;
  }
  throw SimError("FaultSpec::Probability: unknown site");
}

FaultSpec FaultSpec::Parse(std::string_view text) {
  Require(!text.empty(), "AMDMB_FAULTS: empty fault spec");
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view token = text.substr(pos, comma - pos);
    pos = comma + 1;
    Require(!token.empty(),
            "AMDMB_FAULTS: empty token (stray comma) in fault spec");
    // "site:value" or "key=value"; both separators accepted.
    const std::size_t sep = token.find_first_of(":=");
    Require(sep != std::string_view::npos && sep + 1 <= token.size(),
            "AMDMB_FAULTS: expected 'site:probability' or 'seed=N', got '" +
                std::string(token) + "'");
    const std::string_view name = token.substr(0, sep);
    const std::string_view value = token.substr(sep + 1);
    if (name == "compile") {
      spec.compile = ParseProbability(token, value);
    } else if (name == "launch") {
      spec.launch = ParseProbability(token, value);
    } else if (name == "hang") {
      spec.hang = ParseProbability(token, value);
    } else if (name == "readback") {
      spec.readback = ParseProbability(token, value);
    } else if (name == "worker_crash") {
      spec.worker_crash = ParseProbability(token, value);
    } else if (name == "worker_hang") {
      spec.worker_hang = ParseProbability(token, value);
    } else if (name == "seed") {
      char* end = nullptr;
      const std::string seed_text(value);
      const unsigned long long seed =
          std::strtoull(seed_text.c_str(), &end, 10);
      Require(end == seed_text.c_str() + seed_text.size() &&
                  !seed_text.empty(),
              "AMDMB_FAULTS: seed must be a non-negative integer, got '" +
                  std::string(value) + "'");
      spec.seed = seed;
    } else {
      Require(false, "AMDMB_FAULTS: unknown fault site '" +
                         std::string(name) +
                         "' (expected compile, launch, hang, readback, "
                         "worker_crash, worker_hang, or seed)");
    }
    if (comma == text.size()) break;
  }
  return spec;
}

bool FaultInjector::ShouldFail(FaultSite site, std::string_view key) const {
  const double p = spec_.Probability(site);
  if (p <= 0.0) return false;
  // Decision = pure hash of (seed, site, key) mapped to [0, 1).
  const std::uint64_t h =
      Mix(spec_.seed ^ Mix(HashKey(key) + static_cast<std::uint64_t>(site)));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < p;
}

const FaultInjector* GlobalInjector() {
  if (g_override_active) return g_override;
  static const FaultInjector* env_injector = []() -> const FaultInjector* {
    const auto& spec = env::Get().faults;
    if (!spec) return nullptr;
    static const FaultInjector injector{FaultSpec::Parse(*spec)};
    return &injector;
  }();
  return env_injector;
}

ScopedFaultInjector::ScopedFaultInjector(const FaultSpec& spec)
    : injector_(spec), previous_(g_override_active ? g_override : nullptr) {
  g_override = &injector_;
  g_override_active = true;
}

ScopedFaultInjector::ScopedFaultInjector(std::string_view spec)
    : ScopedFaultInjector(FaultSpec::Parse(spec)) {}

ScopedFaultInjector::~ScopedFaultInjector() {
  if (previous_ != nullptr) {
    g_override = previous_;
  } else {
    g_override = nullptr;
    g_override_active = false;
  }
}

}  // namespace amdmb::fault
