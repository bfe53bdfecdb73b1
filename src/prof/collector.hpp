// The instrumentation hook surface: one Collector rides along one
// Gpu::Execute launch and accumulates the Profile.
//
// Attachment is by nullable pointer — sim/gpu wires the collector into
// the per-launch cache / memory-controller / SIMD-engine objects, each
// of which guards its hook calls with a single null check. With no
// collector attached (AMDMB_PROF unset) the hooks compile down to an
// untaken branch, which is how profiling stays free when disabled and
// keeps bench stdout byte-identical.
//
// Determinism: every hook argument derives from simulated state (event
// clock, counts, addresses), never from wall time, so a Collector's
// final Profile is bit-identical across runs and AMDMB_THREADS widths.
// cal::Launch builds a fresh Collector per attempt, so a retried point
// never double-counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "prof/attribution.hpp"
#include "prof/profile.hpp"

namespace amdmb::prof {

/// Which memory-controller path served a batch (mirrors the four public
/// entry points of mem::MemoryController).
enum class DramOp : unsigned { kFill, kRead, kWrite, kStream };

class Collector {
 public:
  /// `event_capacity` bounds the Chrome-trace event list (and the
  /// occupancy timeline); drops are counted, never silent.
  explicit Collector(std::size_t event_capacity)
      : capacity_(event_capacity) {}

  // ---- sim/gpu hooks ----------------------------------------------------
  /// Every executed clause (ALU clauses per interleave chunk), with its
  /// queueing/service timeline — feeds the Chrome trace and the
  /// per-clause-type aggregates.
  void OnClause(const sim::TraceEvent& event) {
    ClauseAgg& agg =
        profile_.clauses[static_cast<std::size_t>(event.type)];
    ++agg.events;
    agg.queue_cycles += event.start - event.issue;
    agg.service_cycles += event.complete - event.start;
    if (profile_.events.size() < capacity_) {
      profile_.events.push_back(event);
    } else {
      ++profile_.dropped_events;
    }
  }

  void OnClauseSwitch() {
    profile_.counters.Add(CounterId::kClauseSwitches, 1);
  }

  /// VLIW slot issue of one ALU chunk (`used` of `total` slots across
  /// `bundles` bundles).
  void OnAluSlots(std::uint64_t bundles, std::uint64_t used,
                  std::uint64_t total) {
    profile_.counters.Add(CounterId::kAluBundles, bundles);
    profile_.counters.Add(CounterId::kAluSlotsUsed, used);
    profile_.counters.Add(CounterId::kAluSlotsTotal, total);
  }

  /// Wavefront time spent inside a fetch clause (TEX or global read).
  void OnFetchWait(Cycles wait) {
    profile_.counters.Add(CounterId::kFetchWaitCycles, wait);
  }

  /// Resident-wavefront count of `simd` changed at event time `t`.
  void OnOccupancy(Cycles t, unsigned simd, unsigned resident) {
    if (profile_.occupancy.size() < capacity_) {
      profile_.occupancy.push_back(OccupancySample{
          t, static_cast<std::uint16_t>(simd), resident});
    }
  }

  // ---- sim/simd_engine hook ---------------------------------------------
  void OnAluChunk(unsigned simd, Cycles busy) {
    profile_.counters.Add(CounterId::kAluClauses, 1);
    GrowSimd(simd).alu_cycles += busy;
  }

  // ---- mem/texture_unit hook --------------------------------------------
  void OnTexClause(unsigned simd, Cycles service, unsigned miss_instrs) {
    profile_.counters.Add(CounterId::kTexClauses, 1);
    profile_.counters.Add(CounterId::kTexMissStallInstrs, miss_instrs);
    GrowSimd(simd).tex_cycles += service;
  }

  // ---- mem/cache hook ---------------------------------------------------
  void OnCacheProbe(unsigned set, bool hit) {
    if (profile_.per_cache_set.size() <= set) {
      profile_.per_cache_set.resize(set + 1);
    }
    CacheSetStats& stats = profile_.per_cache_set[set];
    if (hit) {
      ++stats.hits;
      profile_.counters.Add(CounterId::kTexCacheHits, 1);
    } else {
      ++stats.misses;
      profile_.counters.Add(CounterId::kTexCacheMisses, 1);
    }
  }

  // ---- mem/dram hooks ---------------------------------------------------
  void OnDramBatch(DramOp op, Cycles queue, Cycles transfer, Cycles busy,
                   Bytes bytes) {
    CounterSet& c = profile_.counters;
    c.Add(CounterId::kDramBatches, 1);
    c.Add(CounterId::kDramQueueCycles, queue);
    c.Add(CounterId::kDramTransferCycles, transfer);
    c.Add(CounterId::kDramBusyCycles, busy);
    if (op == DramOp::kFill) {
      c.Add(CounterId::kDramFillBusyCycles, busy);
    }
    if (op == DramOp::kRead || op == DramOp::kFill) {
      c.Add(CounterId::kDramReadBytes, bytes);
    } else {
      c.Add(CounterId::kDramWriteBytes, bytes);
    }
  }

  void OnRowSwitch(unsigned bank) {
    profile_.counters.Add(CounterId::kDramRowSwitches, 1);
    if (profile_.row_switches_per_bank.size() <= bank) {
      profile_.row_switches_per_bank.resize(bank + 1, 0);
    }
    ++profile_.row_switches_per_bank[bank];
  }

  // ---- finalisation (sim/gpu, end of Execute) ---------------------------
  /// Seals the launch-shape counters, folds the per-SIMD busy maxima,
  /// and runs the counter-based attribution.
  void Finish(Cycles t_end, std::uint64_t wavefronts,
              unsigned resident_wavefronts, unsigned simd_engines) {
    CounterSet& c = profile_.counters;
    c.Set(CounterId::kCycles, t_end);
    c.Set(CounterId::kWavefronts, wavefronts);
    c.Set(CounterId::kResidentWavefronts, resident_wavefronts);
    c.Set(CounterId::kSimdEngines, simd_engines);
    std::uint64_t alu_max = 0;
    std::uint64_t tex_max = 0;
    for (const SimdBusy& simd : profile_.per_simd) {
      alu_max = std::max(alu_max, simd.alu_cycles);
      tex_max = std::max(tex_max, simd.tex_cycles);
    }
    c.Set(CounterId::kAluBusyCyclesMax, alu_max);
    c.Set(CounterId::kTexBusyCyclesMax, tex_max);
    profile_.attribution = Attribute(c);
  }

  const Profile& Current() const { return profile_; }

  /// Moves the finished profile out; the collector is spent afterwards.
  Profile Take() { return std::move(profile_); }

 private:
  SimdBusy& GrowSimd(unsigned simd) {
    if (profile_.per_simd.size() <= simd) {
      profile_.per_simd.resize(simd + 1);
    }
    return profile_.per_simd[simd];
  }

  std::size_t capacity_;
  Profile profile_;
};

}  // namespace amdmb::prof
