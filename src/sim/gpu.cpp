#include "sim/gpu.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "arch/occupancy.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "prof/collector.hpp"
#include "sim/simd_engine.hpp"
#include "sim/wavefront.hpp"

namespace amdmb::sim {

std::string_view ToString(Bottleneck b) {
  switch (b) {
    case Bottleneck::kAlu: return "ALU";
    case Bottleneck::kFetch: return "FETCH";
    case Bottleneck::kMemory: return "MEMORY";
  }
  throw SimError("ToString(Bottleneck): unknown value");
}

WatchdogTimeout::WatchdogTimeout(Cycles budget, Cycles reached)
    : TransientError("watchdog: launch exceeded its cycle budget of " +
                     std::to_string(budget) + " (event clock at " +
                     std::to_string(reached) + ")"),
      budget_(budget),
      reached_(reached) {}

Cycles DefaultWatchdogCycles() {
  return Cycles{env::Get().watchdog_cycles};
}

Gpu::Gpu(GpuArch arch)
    : arch_(std::move(arch)),
      tex_cache_config_(mem::CacheConfig{
          .size_bytes = arch_.TotalTexCacheBytes(),
          .line_bytes = arch_.l1.line_bytes,
          .associativity = arch_.l1.associativity,
          .two_d_index = arch_.l1.two_d_index,
      }) {}

namespace {

struct Event {
  Cycles t = 0;
  unsigned simd = 0;
  std::uint32_t wave = 0;
  unsigned clause = 0;
  /// VLIW bundles of this ALU clause already executed (chunked
  /// interleaving; zero for non-ALU clauses).
  unsigned bundles_done = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.simd != b.simd) return a.simd > b.simd;
    return a.wave > b.wave;
  }
};

void ValidateLaunch(const GpuArch& arch, const isa::Program& program,
                    const LaunchConfig& config) {
  if (config.mode == ShaderMode::kCompute) {
    Require(arch.supports_compute,
            arch.name + " does not support compute shader mode");
    Require(program.sig.write_path == WritePath::kGlobal,
            "compute shader mode cannot write color buffers; outputs must "
            "use the global write path (paper Sec. IV-C)");
  }
  Require(config.repetitions > 0, "launch needs at least one repetition");
}

}  // namespace

KernelStats Gpu::Execute(const isa::Program& program,
                         const LaunchConfig& config,
                         prof::Collector* collector) const {
  ValidateLaunch(arch_, program, config);

  const std::vector<WaveRect> waves =
      BuildDispatch(config.domain, config.mode, config.block,
                    arch_.wavefront_size);
  const auto wave_count = static_cast<std::uint32_t>(waves.size());
  const ResourceLayouts layouts(arch_, program.sig, config.domain);
  const unsigned occupancy = WavefrontsPerSimd(arch_, program.gpr_count);
  const unsigned simd_count = arch_.simd_engines;

  mem::TextureCache cache(tex_cache_config_);
  mem::MemoryController controller(arch_);
  std::vector<SimdEngine> simds;
  simds.reserve(simd_count);
  for (unsigned s = 0; s < simd_count; ++s) {
    simds.emplace_back(arch_, cache, controller);
  }
  if (collector != nullptr) {
    cache.SetCollector(collector);
    controller.SetCollector(collector);
    for (unsigned s = 0; s < simd_count; ++s) {
      simds[s].SetCollector(collector, s);
    }
  }

  // Wavefront w runs on SIMD w % simd_count; each SIMD admits its waves
  // in order, keeping at most `occupancy` resident. Every wavefront owns
  // exactly one in-flight event, so the queue never outgrows the
  // resident set — reserve its backing vector up front.
  std::vector<std::uint32_t> next_batch(simd_count, occupancy);
  // Per-SIMD resident-wavefront counts for the occupancy timeline;
  // maintained only while a collector observes the launch.
  std::vector<unsigned> resident(collector != nullptr ? simd_count : 0, 0);
  std::vector<Event> event_storage;
  event_storage.reserve(std::min<std::uint64_t>(
      wave_count, static_cast<std::uint64_t>(simd_count) * occupancy + 1));
  std::priority_queue<Event, std::vector<Event>, EventAfter> events(
      EventAfter{}, std::move(event_storage));
  for (unsigned s = 0; s < simd_count; ++s) {
    for (unsigned k = 0; k < occupancy; ++k) {
      const std::uint64_t w =
          static_cast<std::uint64_t>(k) * simd_count + s;
      if (w < wave_count) {
        // Tiny stagger keeps the initial interleave deterministic without
        // every wavefront's first clause colliding at cycle 0.
        events.push(Event{k, s, static_cast<std::uint32_t>(w), 0});
        if (collector != nullptr) ++resident[s];
      }
    }
  }
  if (collector != nullptr) {
    for (unsigned s = 0; s < simd_count; ++s) {
      collector->OnOccupancy(0, s, resident[s]);
    }
  }

  // Scratch for one TEX clause: the wavefront's tile footprint, shared
  // by every fetch, and each fetch's texture base. clear() keeps the
  // capacity, so the steady state allocates nothing per clause.
  std::vector<mem::LineId> tile_lines;
  std::vector<std::uint64_t> fetch_bases;
  Cycles t_end = 0;
  Cycles fetch_wait = 0;  // Wavefront time spent inside fetch clauses.

  while (!events.empty()) {
    const Event e = events.top();
    events.pop();
    if (config.watchdog_cycles > 0 && e.t > config.watchdog_cycles) {
      throw WatchdogTimeout(config.watchdog_cycles, e.t);
    }
    Check(e.clause < program.clauses.size(), "Gpu::Execute: bad clause id");
    const isa::Clause& clause = program.clauses[e.clause];
    const WaveRect& rect = waves[e.wave];
    SimdEngine& simd = simds[e.simd];
    Cycles done = e.t;
    Cycles served_at = e.t;

    switch (clause.type) {
      case isa::ClauseType::kAlu: {
        const auto total = static_cast<unsigned>(clause.bundles.size());
        const unsigned chunk =
            std::min(kAluInterleaveBundles, total - e.bundles_done);
        const SimdEngine::AluRun run = simd.RunAluClause(e.t, chunk, occupancy);
        served_at = run.start;
        done = run.end;
        if (collector != nullptr) {
          collector->OnClause(TraceEvent{e.t, served_at, done, e.wave,
                                         static_cast<std::uint16_t>(e.simd),
                                         static_cast<std::uint16_t>(e.clause),
                                         clause.type});
          std::uint64_t used = 0;
          for (unsigned b = 0; b < chunk; ++b) {
            used += clause.bundles[e.bundles_done + b].SlotCount();
          }
          collector->OnAluSlots(
              chunk, used,
              static_cast<std::uint64_t>(chunk) * arch_.vliw_width);
        }
        if (e.bundles_done + chunk < total) {
          // Yield the pipe to other resident wavefronts between chunks.
          events.push(Event{done, e.simd, e.wave, e.clause,
                            e.bundles_done + chunk});
          continue;
        }
        break;
      }
      case isa::ClauseType::kTex: {
        tile_lines.clear();
        layouts.TileLinesFor(rect, tile_lines);
        fetch_bases.clear();
        for (const isa::FetchInst& f : clause.fetches) {
          fetch_bases.push_back(layouts.TextureBase(f.resource));
        }
        const mem::TexClauseTiming timing = simd.TextureUnits().ServeClause(
            e.t, program.sig.type, rect.ThreadCount(), tile_lines,
            fetch_bases);
        served_at = timing.start;
        done = timing.complete;
        fetch_wait += done - e.t;
        if (collector != nullptr) collector->OnFetchWait(done - e.t);
        break;
      }
      case isa::ClauseType::kMemRead: {
        Cycles last_end = e.t;
        bool first_batch = true;
        for (const isa::FetchInst& f : clause.fetches) {
          const mem::BatchResult batch = controller.GlobalRead(
              e.t, layouts.GlobalAddress(f.resource, /*is_output=*/false, rect),
              layouts.BytesFor(rect));
          if (first_batch) {
            served_at = batch.start;
            first_batch = false;
          }
          last_end = std::max(last_end, batch.end);
        }
        done = last_end + arch_.dram.read_latency;
        fetch_wait += done - e.t;
        if (collector != nullptr) collector->OnFetchWait(done - e.t);
        break;
      }
      case isa::ClauseType::kExport:
      case isa::ClauseType::kMemWrite: {
        Cycles last_end = e.t;
        bool first_batch = true;
        for (const isa::WriteInst& w : clause.writes) {
          const std::uint64_t addr =
              layouts.GlobalAddress(w.resource, /*is_output=*/true, rect);
          const mem::BatchResult batch =
              clause.type == isa::ClauseType::kExport
                  ? controller.StreamStore(e.t, addr, layouts.BytesFor(rect))
                  : controller.GlobalWrite(e.t, addr, layouts.BytesFor(rect));
          if (first_batch) {
            served_at = batch.start;
            first_batch = false;
          }
          last_end = std::max(last_end, batch.end);
        }
        done = last_end;
        break;
      }
    }

    if (collector != nullptr && clause.type != isa::ClauseType::kAlu) {
      collector->OnClause(TraceEvent{e.t, served_at, done, e.wave,
                                     static_cast<std::uint16_t>(e.simd),
                                     static_cast<std::uint16_t>(e.clause),
                                     clause.type});
    }
    t_end = std::max(t_end, done);
    if (e.clause + 1 < program.clauses.size()) {
      if (collector != nullptr) collector->OnClauseSwitch();
      events.push(Event{done + arch_.clause_switch_cycles, e.simd, e.wave,
                        e.clause + 1});
    } else {
      // Wavefront retired; admit this SIMD's next wavefront, if any.
      const std::uint64_t w =
          static_cast<std::uint64_t>(next_batch[e.simd]) * simd_count + e.simd;
      if (w < wave_count) {
        ++next_batch[e.simd];
        if (collector != nullptr) collector->OnClauseSwitch();
        events.push(Event{done + arch_.clause_switch_cycles, e.simd,
                          static_cast<std::uint32_t>(w), 0});
      } else if (collector != nullptr) {
        // Retired without replacement: this SIMD's resident count drops.
        --resident[e.simd];
        collector->OnOccupancy(done, e.simd, resident[e.simd]);
      }
    }
  }
  t_end = std::max(t_end, controller.FreeAt());
  Check(t_end > 0, "Gpu::Execute: empty execution");
  if (collector != nullptr) {
    collector->Finish(t_end, wave_count, occupancy, simd_count);
  }

  KernelStats stats;
  stats.cycles = t_end;
  stats.seconds = arch_.CyclesToSeconds(static_cast<double>(t_end)) *
                  config.repetitions;
  const auto total = static_cast<double>(t_end);
  for (const SimdEngine& s : simds) {
    stats.alu_utilization = std::max(
        stats.alu_utilization, static_cast<double>(s.AluBusyCycles()) / total);
    stats.fetch_utilization =
        std::max(stats.fetch_utilization,
                 static_cast<double>(s.TexBusyCycles()) / total);
  }
  const mem::DramStats& dram = controller.Stats();
  stats.memory_utilization = static_cast<double>(dram.busy_cycles) / total;
  stats.cache = cache.Stats();
  stats.dram = dram;
  stats.gpr_count = program.gpr_count;
  stats.resident_wavefronts = occupancy;
  stats.wavefront_count = wave_count;

  // Bottleneck classification (paper Sec. II-A). The fetch score covers
  // both the texture-unit pipeline and latency exposure (stalled
  // wavefront slots waiting on fetches); memory covers the controller
  // minus texture-line fills, which belong to the fetch path.
  const double slot_time =
      total * simd_count * std::max(1u, occupancy);
  const double stall_share = static_cast<double>(fetch_wait) / slot_time;
  const double fill_share = static_cast<double>(dram.fill_busy_cycles) / total;
  const double fetch_score =
      std::max({stats.fetch_utilization, stall_share, fill_share});
  const double mem_score =
      static_cast<double>(dram.busy_cycles - dram.fill_busy_cycles) / total;
  if (stats.alu_utilization >= fetch_score &&
      stats.alu_utilization >= mem_score) {
    stats.bottleneck = Bottleneck::kAlu;
  } else if (fetch_score >= mem_score) {
    stats.bottleneck = Bottleneck::kFetch;
  } else {
    stats.bottleneck = Bottleneck::kMemory;
  }
  return stats;
}

std::string KernelStats::Render() const {
  std::ostringstream os;
  os << "cycles/launch:  " << cycles << "\n"
     << "seconds (all reps): " << FormatDouble(seconds, 3) << "\n"
     << "ALU util:       " << FormatDouble(alu_utilization, 3) << "\n"
     << "fetch util:     " << FormatDouble(fetch_utilization, 3) << "\n"
     << "memory util:    " << FormatDouble(memory_utilization, 3) << "\n"
     << "bottleneck:     " << ToString(bottleneck) << "\n"
     << "GPRs:           " << gpr_count << "\n"
     << "wavefronts/SIMD:" << resident_wavefronts << "\n"
     << "cache hit rate: " << FormatDouble(cache.HitRate(), 3) << "\n";
  return os.str();
}

}  // namespace amdmb::sim
