#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/status.hpp"
#include "prof/collector.hpp"

namespace amdmb::mem {

namespace {

unsigned SetCountOf(const CacheConfig& config) {
  Require(config.line_bytes > 0 && config.associativity > 0,
          "TextureCache: line size and associativity must be positive");
  const auto lines = config.size_bytes / config.line_bytes;
  Require(lines >= config.associativity,
          "TextureCache: capacity below one full set");
  const auto sets = static_cast<unsigned>(lines / config.associativity);
  Require(!config.two_d_index || (sets >= 2 && sets % 2 == 0),
          "TextureCache: 2-D indexing needs an even set count");
  return sets;
}

}  // namespace

TextureCache::TextureCache(const CacheConfig& config)
    : config_(config),
      set_count_(SetCountOf(config)),
      group_sets_(config.two_d_index ? set_count_ / 2 : set_count_),
      set_in_group_(group_sets_) {
  if (std::has_single_bit(config.line_bytes)) {
    line_shift_ = std::countr_zero(config.line_bytes);
  }
  tags_.assign(static_cast<std::size_t>(set_count_) * config.associativity,
               kInvalid);
}

// Inline so that ProbeLines, the per-fetch loop, runs without a call
// per line.
inline bool TextureCache::ProbeAt(std::uint64_t address,
                                  std::uint32_t tile_row) {
  const std::uint64_t tag = LineNumber(address);
  const unsigned set = SetIndex(tag, tile_row);
  std::uint64_t* const ways =
      &tags_[static_cast<std::size_t>(set) * config_.associativity];
  // Recency order makes LRU a shift: a hit moves its tag to the front; a
  // miss drops the last tag (a never-filled way while one is left, else
  // the least recently used) and puts the new one in front. One pass
  // does both: each way takes the tag before it until the probed tag
  // turns up.
  bool hit = false;
  std::uint64_t carry = tag;
  for (unsigned w = 0; w < config_.associativity; ++w) {
    const std::uint64_t resident = ways[w];
    ways[w] = carry;
    if (resident == tag) {
      hit = true;
      break;
    }
    carry = resident;
  }
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  if (collector_ != nullptr) collector_->OnCacheProbe(set, hit);
  return hit;
}

bool TextureCache::Probe(const LineId& line) {
  return ProbeAt(line.address, line.tile_row);
}

unsigned TextureCache::ProbeLines(std::uint64_t base,
                                  std::span<const LineId> lines,
                                  std::vector<std::uint64_t>& misses) {
  unsigned hits = 0;
  for (const LineId& line : lines) {
    const std::uint64_t address = base + line.address;
    if (ProbeAt(address, line.tile_row)) {
      ++hits;
    } else {
      misses.push_back(address);
    }
  }
  return hits;
}

void TextureCache::Reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalid);
  stats_ = CacheStats{};
}

}  // namespace amdmb::mem
