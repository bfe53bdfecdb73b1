// Launch-time resource geometry: where each input/output stream lives in
// simulated memory and which cache lines / burst ranges a wavefront's
// rectangle touches.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "common/types.hpp"
#include "il/il.hpp"
#include "mem/tiling.hpp"
#include "sim/dispatch.hpp"

namespace amdmb::sim {

/// Byte addresses of all declared streams of one launch. Inputs bound to
/// the texture path get a tiled layout; global-path streams are linear.
/// Bases are staggered by a few lines so that equally-sized inputs do not
/// alias pathologically in the texture-cache index.
class ResourceLayouts {
 public:
  ResourceLayouts(const GpuArch& arch, const il::Signature& sig,
                  const Domain& domain);

  /// Appends the distinct cache lines a wavefront covering `rect` reads
  /// from a texture at base address 0. Every texture input shares this
  /// footprint; input i's lines are offset by TextureBase(i).
  void TileLinesFor(const WaveRect& rect,
                    std::vector<mem::LineId>& out) const {
    tiled_.AppendLines(rect.x, rect.y, rect.width, rect.height, out);
  }

  /// Base address of input `resource` (texture path only).
  std::uint64_t TextureBase(unsigned resource) const;

  /// Burst start address for a global read/write of `resource` by `rect`.
  std::uint64_t GlobalAddress(unsigned resource, bool is_output,
                              const WaveRect& rect) const;

  /// Bytes one wavefront instruction moves for `rect`.
  Bytes BytesFor(const WaveRect& rect) const {
    return static_cast<Bytes>(rect.ThreadCount()) * ElementBytes(type_);
  }

  DataType type() const { return type_; }

 private:
  DataType type_;
  mem::TiledLayout tiled_;
  std::vector<std::uint64_t> input_bases_;
  std::vector<std::uint64_t> output_bases_;
  unsigned width_;
};

}  // namespace amdmb::sim
