#include "mem/tiling.hpp"

#include "common/status.hpp"

namespace amdmb::mem {

TileShape TileFor(Bytes line_bytes, Bytes element_bytes) {
  Require(line_bytes % element_bytes == 0 && line_bytes >= element_bytes,
          "TileFor: line size must be a multiple of the element size");
  const auto texels = static_cast<unsigned>(line_bytes / element_bytes);
  // Largest power-of-two height with height <= width and width*height ==
  // texels (texel counts are powers of two for 4/16-byte elements and
  // power-of-two lines).
  unsigned height = 1;
  while ((height * 2) * (height * 2) <= texels) height *= 2;
  if (height * height > texels) height /= 2;
  const unsigned width = texels / height;
  Check(width * height == texels, "TileFor: non power-of-two texel count");
  return TileShape{width, height};
}

TiledLayout::TiledLayout(TileShape tile, Bytes line_bytes)
    : tile_(tile), line_bytes_(line_bytes) {
  Require(tile.width > 0 && tile.height > 0, "TiledLayout: empty tile");
}

namespace {

/// Interleaves the low 16 bits of a coordinate with zeros (Morton order).
constexpr std::uint64_t SpreadBits(std::uint64_t v) {
  v &= 0xFFFFull;
  v = (v | (v << 8)) & 0x00FF00FFull;
  v = (v | (v << 4)) & 0x0F0F0F0Full;
  v = (v | (v << 2)) & 0x33333333ull;
  v = (v | (v << 1)) & 0x55555555ull;
  return v;
}

/// Line of the tile at (tile_col, tile_row). Tiles are laid out in
/// Morton (Z-) order, the standard GPU texture tiling: 2-D locality in
/// texel space maps to 1-D locality in the address space, which keeps a
/// wavefront's line fills within few DRAM rows regardless of its block
/// shape.
LineId TileLine(unsigned tile_col, unsigned tile_row, Bytes line_bytes) {
  const std::uint64_t tile_index =
      SpreadBits(tile_col) | (SpreadBits(tile_row) << 1);
  return LineId{tile_index * line_bytes, tile_row};
}

}  // namespace

void TiledLayout::AppendLines(unsigned x, unsigned y, unsigned width,
                              unsigned height,
                              std::vector<LineId>& out) const {
  const unsigned x1 = x + width - 1;
  const unsigned y1 = y + height - 1;
  for (unsigned ty = y / tile_.height; ty <= y1 / tile_.height; ++ty) {
    for (unsigned tx = x / tile_.width; tx <= x1 / tile_.width; ++tx) {
      out.push_back(TileLine(tx, ty, line_bytes_));
    }
  }
}

std::uint64_t LinearAddress(std::uint64_t base, unsigned width, unsigned x,
                            unsigned y, Bytes element_bytes) {
  return base + (static_cast<std::uint64_t>(y) * width + x) * element_bytes;
}

}  // namespace amdmb::mem
