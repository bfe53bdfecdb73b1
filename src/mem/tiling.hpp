// Texture memory tiling.
//
// AMD GPUs store textures in a tiled layout: one cache line covers a 2-D
// block of texels, which is why the texture cache behaves "in two
// dimensions" (paper Sec. IV-A) and why block shape matters so much in
// compute mode. This module maps texel coordinates to cache-line ids.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace amdmb::mem {

/// Geometry of the 2-D texel block covered by one cache line.
struct TileShape {
  unsigned width = 4;   ///< Texels in x.
  unsigned height = 4;  ///< Texels in y.
};

/// Near-square tile covering `line_bytes / element_bytes` texels, wider
/// than tall when not square (e.g. 64B line, 4B texel -> 4x4; 64B line,
/// 16B texel -> 2x2; 128B line, 4B texel -> 8x4).
TileShape TileFor(Bytes line_bytes, Bytes element_bytes);

/// Identifies one cache line of one texture resource.
struct LineId {
  std::uint64_t address = 0;  ///< Line-aligned byte address (global).
  std::uint32_t tile_row = 0; ///< Tile row (for 2-D cache set indexing).

  bool operator==(const LineId&) const = default;
};

/// Maps texel coordinates to the cache lines of a tiled texture at base
/// address 0. Every texture of a launch shares one tile geometry, so a
/// texture at base B holds line {B + line.address, line.tile_row}.
class TiledLayout {
 public:
  TiledLayout(TileShape tile, Bytes line_bytes);

  /// Appends the distinct lines of the texel rectangle at (x, y) of the
  /// given size, in row-major tile order.
  void AppendLines(unsigned x, unsigned y, unsigned width, unsigned height,
                   std::vector<LineId>& out) const;

  const TileShape& Tile() const { return tile_; }

 private:
  TileShape tile_;
  Bytes line_bytes_;
};

/// Row-major linear address of element (x, y) in a W-wide global buffer.
std::uint64_t LinearAddress(std::uint64_t base, unsigned width,
                            unsigned x, unsigned y, Bytes element_bytes);

}  // namespace amdmb::mem
