// Shared off-chip memory controller.
//
// One controller serves the whole GPU: texture-cache line fills, uncached
// global reads, global writes, and streaming (color-buffer) stores. Each
// request batch (one wavefront-instruction's worth of traffic) occupies
// the controller for `overhead + bytes / bandwidth` cycles; line fills
// additionally pay a row-activate penalty whenever they land in a DRAM
// bank whose open row differs — which is how interleaving many wavefront
// streams degrades effective bandwidth at high occupancy (the effect the
// paper sees in Figs. 16/17).
#pragma once

#include <cstdint>
#include <span>

#include "arch/gpu_arch.hpp"
#include "common/types.hpp"

namespace amdmb::prof {
class Collector;
enum class DramOp : unsigned;
}  // namespace amdmb::prof

namespace amdmb::mem {

/// Timing of one served batch.
struct BatchResult {
  Cycles start = 0;  ///< When the controller began the batch.
  Cycles end = 0;    ///< When the last byte transferred.
};

struct DramStats {
  Bytes read_bytes = 0;
  Bytes write_bytes = 0;
  std::uint64_t row_switches = 0;
  std::uint64_t batches = 0;
  Cycles busy_cycles = 0;
  /// Share of busy_cycles spent filling texture-cache lines (the rest is
  /// uncached global reads/writes and streaming stores).
  Cycles fill_busy_cycles = 0;

  bool operator==(const DramStats&) const = default;
};

class MemoryController {
 public:
  explicit MemoryController(const GpuArch& arch);

  /// Fills texture-cache lines at the given line addresses (one batch).
  BatchResult FillLines(Cycles now, std::span<const std::uint64_t> line_addrs,
                        Bytes line_bytes);

  /// Uncached global read of `bytes` starting near `addr` (one wavefront
  /// instruction, already coalesced). Completion excludes the read
  /// latency, which the caller adds.
  BatchResult GlobalRead(Cycles now, std::uint64_t addr, Bytes bytes);

  /// Uncached global write (paper Fig. 14: constant per-32-bit-element
  /// rate, so cost scales with bytes).
  BatchResult GlobalWrite(Cycles now, std::uint64_t addr, Bytes bytes);

  /// Streaming store through the color-buffer back-ends: burst-combined,
  /// near-peak bandwidth with a small per-instruction overhead.
  BatchResult StreamStore(Cycles now, std::uint64_t addr, Bytes bytes);

  /// Earliest cycle at which a new batch could start.
  Cycles FreeAt() const { return free_at_; }

  const DramStats& Stats() const { return stats_; }
  void Reset();

  /// Attaches the profiler's per-launch collector (nullptr detaches).
  /// Pure observation: batch timing and DramStats are identical with or
  /// without one attached.
  void SetCollector(prof::Collector* collector) { collector_ = collector; }

 private:
  BatchResult Serve(Cycles now, double bytes_per_cycle, Cycles overhead,
                    Bytes bytes, Cycles extra, prof::DramOp op);
  Cycles RowPenalty(std::span<const std::uint64_t> addrs);
  /// DRAM row of `addr` and the bank that row maps to: a shift and a
  /// mask when row_bytes and banks are powers of two (they are on every
  /// part), else a division.
  std::uint64_t RowOf(std::uint64_t addr) const {
    return row_shift_ >= 0 ? addr >> row_shift_ : addr / arch_->dram.row_bytes;
  }
  std::size_t BankOf(std::uint64_t row) const {
    return static_cast<std::size_t>(bank_mask_ != 0 ? row & bank_mask_
                                                    : row % arch_->dram.banks);
  }

  const GpuArch* arch_;
  int row_shift_ = -1;          ///< log2(row_bytes), or -1.
  std::uint64_t bank_mask_ = 0; ///< banks - 1 for power-of-two banks > 1, else 0.
  Cycles free_at_ = 0;
  std::vector<std::uint64_t> open_rows_;
  DramStats stats_;
  prof::Collector* collector_ = nullptr;
};

}  // namespace amdmb::mem
