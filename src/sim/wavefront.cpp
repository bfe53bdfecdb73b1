#include "sim/wavefront.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace amdmb::sim {

namespace {

/// Region stride between consecutive resources: large enough to cover
/// the sparse Morton footprint of the tile grid (the Z-order index of
/// the last tile of a WxH grid spans the square power-of-two envelope,
/// not just W*H entries), plus a 13-line stagger so equal-sized inputs
/// land in different cache sets.
std::uint64_t RegionStride(const Domain& domain, const mem::TileShape& tile,
                           Bytes line_bytes) {
  const std::uint64_t cols = (domain.width + tile.width - 1) / tile.width;
  const std::uint64_t rows = (domain.height + tile.height - 1) / tile.height;
  std::uint64_t envelope = 1;
  while (envelope < std::max(cols, rows)) envelope *= 2;
  return (envelope * envelope + 13) * line_bytes;
}

}  // namespace

ResourceLayouts::ResourceLayouts(const GpuArch& arch, const il::Signature& sig,
                                 const Domain& domain)
    : type_(sig.type),
      tiled_(mem::TileFor(arch.l1.line_bytes, ElementBytes(sig.type)),
             arch.l1.line_bytes),
      width_(domain.width) {
  Require(domain.width > 0 && domain.height > 0,
          "ResourceLayouts: empty domain");
  const std::uint64_t stride =
      RegionStride(domain, tiled_.Tile(), arch.l1.line_bytes);
  // Inputs first, then outputs, in one address space.
  constexpr std::uint64_t kInputBase = 0x1000'0000ull;
  for (unsigned i = 0; i < sig.inputs; ++i) {
    input_bases_.push_back(kInputBase + i * stride);
  }
  const std::uint64_t output_base = kInputBase + sig.inputs * stride;
  for (unsigned o = 0; o < sig.outputs; ++o) {
    output_bases_.push_back(output_base + o * stride);
  }
}

std::uint64_t ResourceLayouts::TextureBase(unsigned resource) const {
  Check(resource < input_bases_.size(),
        "ResourceLayouts::TextureBase: resource out of range");
  return input_bases_[resource];
}

std::uint64_t ResourceLayouts::GlobalAddress(unsigned resource, bool is_output,
                                             const WaveRect& rect) const {
  const auto& bases = is_output ? output_bases_ : input_bases_;
  Check(resource < bases.size(),
        "ResourceLayouts::GlobalAddress: resource out of range");
  return mem::LinearAddress(bases[resource], width_, rect.x, rect.y,
                            ElementBytes(type_));
}

}  // namespace amdmb::sim
