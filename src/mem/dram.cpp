#include "mem/dram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/status.hpp"
#include "prof/collector.hpp"

namespace amdmb::mem {

MemoryController::MemoryController(const GpuArch& arch) : arch_(&arch) {
  Require(arch.dram.banks > 0 && arch.dram.row_bytes > 0,
          "MemoryController: bank/row geometry must be positive");
  if (std::has_single_bit(arch.dram.row_bytes)) {
    row_shift_ = std::countr_zero(arch.dram.row_bytes);
  }
  if (std::has_single_bit(arch.dram.banks)) bank_mask_ = arch.dram.banks - 1;
  open_rows_.assign(arch.dram.banks, ~0ull);
}

void MemoryController::Reset() {
  free_at_ = 0;
  std::fill(open_rows_.begin(), open_rows_.end(), ~0ull);
  stats_ = DramStats{};
}

Cycles MemoryController::RowPenalty(std::span<const std::uint64_t> addrs) {
  Cycles penalty = 0;
  std::uint64_t prev_row = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::uint64_t row = RowOf(addrs[i]);
    // The previous address left this row open in its bank.
    if (i > 0 && row == prev_row) continue;
    prev_row = row;
    const std::size_t bank = BankOf(row);
    if (open_rows_[bank] != row) {
      open_rows_[bank] = row;
      penalty += arch_->dram.row_switch_cycles;
      ++stats_.row_switches;
      if (collector_ != nullptr) {
        collector_->OnRowSwitch(static_cast<unsigned>(bank));
      }
    }
  }
  return penalty;
}

BatchResult MemoryController::Serve(Cycles now, double bytes_per_cycle,
                                    Cycles overhead, Bytes bytes,
                                    Cycles extra, prof::DramOp op) {
  Check(bytes_per_cycle > 0.0, "MemoryController: zero bandwidth");
  const auto transfer = static_cast<Cycles>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle));
  const Cycles start = std::max(now, free_at_);
  const Cycles cost = overhead + transfer + extra;
  free_at_ = start + cost;
  stats_.busy_cycles += cost;
  ++stats_.batches;
  if (collector_ != nullptr) {
    collector_->OnDramBatch(op, /*queue=*/start - now, transfer, cost,
                            bytes);
  }
  return BatchResult{start, free_at_};
}

BatchResult MemoryController::FillLines(
    Cycles now, std::span<const std::uint64_t> line_addrs, Bytes line_bytes) {
  if (line_addrs.empty()) return BatchResult{now, now};
  const Cycles penalty = RowPenalty(line_addrs);
  const Bytes bytes = line_addrs.size() * line_bytes;
  stats_.read_bytes += bytes;
  const BatchResult r = Serve(now, arch_->dram.fill_bytes_per_cycle,
                              /*overhead=*/0, bytes, penalty,
                              prof::DramOp::kFill);
  stats_.fill_busy_cycles += r.end - r.start;
  return r;
}

BatchResult MemoryController::GlobalRead(Cycles now, std::uint64_t addr,
                                         Bytes bytes) {
  (void)addr;  // Coalesced wavefront reads burst; no per-row modelling.
  stats_.read_bytes += bytes;
  return Serve(now, arch_->dram.read_bytes_per_cycle,
               arch_->global_read_instr_overhead, bytes, /*extra=*/0,
               prof::DramOp::kRead);
}

BatchResult MemoryController::GlobalWrite(Cycles now, std::uint64_t addr,
                                          Bytes bytes) {
  (void)addr;
  stats_.write_bytes += bytes;
  return Serve(now, arch_->dram.write_bytes_per_cycle,
               arch_->global_write_instr_overhead, bytes, /*extra=*/0,
               prof::DramOp::kWrite);
}

BatchResult MemoryController::StreamStore(Cycles now, std::uint64_t addr,
                                          Bytes bytes) {
  (void)addr;
  stats_.write_bytes += bytes;
  return Serve(now, arch_->stream_store_bytes_per_cycle,
               arch_->stream_store_instr_overhead, bytes, /*extra=*/0,
               prof::DramOp::kStream);
}

}  // namespace amdmb::mem
