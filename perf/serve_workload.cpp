// serve_mix: amdmb_serve --workers 2 (AMDMB_THREADS=2 per worker) driven
// closed-loop over two connections by a seeded plan of dense quick
// submits, paper-scale characterizes of freshly generated kernels (each
// an intake plus a kernel-cache miss), malformed IL that must come back
// as a typed rejection, and stats. It is the only workload that crosses
// the socket, the NDJSON protocol, supervisor forwarding, the scheduler
// and kerncap intake.
//
// Connection c sends, in plan order, the requests the fleet routes to
// worker c (stats alternate). No request then waits in a worker's queue
// behind the other connection's, so a latency does not depend on how the
// two connections' requests happen to meet on one worker.
#include <signal.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "exec/sweep_executor.hpp"
#include "il/printer.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "report/json_sink.hpp"
#include "serve/client.hpp"
#include "serve/routing.hpp"
#include "suite/figures.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::perf {

namespace {

using Kind = PlannedRequest::Kind;

constexpr std::size_t kSubmits = 100;
constexpr std::size_t kCharacterizes = 100;
constexpr std::size_t kMalformed = 50;
constexpr std::size_t kStats = 50;
constexpr unsigned kWorkers = 2;
constexpr unsigned kWorkerThreads = 2;
constexpr unsigned kConnections = kWorkers;  // One per worker.
/// Fleets started for setup_s; the median is reported, the last serves.
constexpr int kSetupFleets = 3;

/// Dense quick submits draw from the figures whose quick builds are
/// comparable in cost; each is warmed once, untimed, before measuring.
const std::vector<std::string> kSubmitFigures = {
    "fig_7", "fig_10", "fig_11", "fig_12", "fig_13", "fig_14"};

std::string_view ToString(Kind kind) {
  switch (kind) {
    case Kind::kSubmit: return "submit";
    case Kind::kCharacterize: return "characterize";
    case Kind::kMalformed: return "malformed";
    case Kind::kStats: return "stats";
  }
  return "?";
}

suite::GenericSpec RandomSpec(XorShift128& rng) {
  suite::GenericSpec spec;
  spec.inputs = 2 + static_cast<unsigned>(rng.NextBelow(15));
  spec.outputs = 1 + static_cast<unsigned>(rng.NextBelow(4));
  spec.alu_ops = spec.inputs + spec.outputs +
                 static_cast<unsigned>(rng.NextBelow(4 * spec.inputs));
  spec.type = rng.NextBelow(2) ? DataType::kFloat4 : DataType::kFloat;
  spec.read_path = rng.NextBelow(2) ? ReadPath::kGlobal : ReadPath::kTexture;
  spec.write_path =
      rng.NextBelow(2) ? WritePath::kGlobal : WritePath::kStream;
  return spec;
}

/// The worker the fleet routes a characterize of `il` to (by content
/// hash, as the supervisor does).
unsigned RouteOfIl(const serve::HashRing& ring, const std::string& il) {
  return *ring.Route(kerncap::ContentHash(il));
}

/// Names `spec` "<prefix>_<t>" for the first t whose IL the fleet routes
/// to `lane`, and returns that IL. The name is the only part of the text
/// that changes, so the kernel's cost does not.
std::string IlOnLane(suite::GenericSpec& spec, const std::string& prefix,
                     unsigned lane, const serve::HashRing& ring) {
  for (int t = 0; t < 64; ++t) {
    spec.name = prefix + "_" + std::to_string(t);
    std::string il = il::Print(suite::GenerateGeneric(spec));
    if (RouteOfIl(ring, il) == lane) return il;
  }
  throw ConfigError("serve plan: no name routes " + prefix + " to worker " +
                    std::to_string(lane));
}

/// The k-th characterize kernel of a pass. Its cost class is fixed by k,
/// so every seed asks for the same work: read path, data type and write
/// path cycle through all eight combinations, and each cycle ("rung")
/// has more inputs than the last. Texture reads cost up to 20 times what
/// global reads do and grow with the inputs, so a seeded choice of these
/// would move every latency percentile from seed to seed. The seed draws
/// the ALU budget within the rung's band.
suite::GenericSpec StratifiedSpec(std::size_t k, XorShift128& rng) {
  constexpr std::size_t kRungs = (kCharacterizes + 7) / 8;
  const std::size_t rung = k / 8;
  suite::GenericSpec spec;
  spec.type = k & 4 ? DataType::kFloat4 : DataType::kFloat;
  spec.read_path = k & 2 ? ReadPath::kGlobal : ReadPath::kTexture;
  spec.write_path = k & 1 ? WritePath::kGlobal : WritePath::kStream;
  spec.inputs = 2 + static_cast<unsigned>(rung * 14 / (kRungs - 1));
  spec.outputs = 1 + static_cast<unsigned>((k + rung) % 4);
  const double share =
      (static_cast<double>(rung * 5 % kRungs) + rng.NextDouble()) / kRungs;
  spec.alu_ops = spec.inputs + spec.outputs +
                 static_cast<unsigned>(share * 4.0 * spec.inputs);
  return spec;
}

/// Seeded ways to break a valid kernel's IL text; each must end in a
/// typed intake rejection.
std::string Mutate(std::string il, std::uint64_t kind) {
  const auto replace_first = [&il](std::string_view from,
                                   std::string_view to) {
    if (const std::size_t at = il.find(from); at != std::string::npos) {
      il.replace(at, from.size(), to);
    }
  };
  switch (kind % 6) {
    case 0:  // Missing terminator.
      il.erase(il.rfind("end\n"));
      break;
    case 1:  // Unknown mnemonic.
      replace_first("\n  add ", "\n  frobnicate ");
      break;
    case 2:  // A source register that is never defined.
      replace_first(", r0\n", ", r999\n");
      replace_first(", r1\n", ", r999\n");
      break;
    case 3:  // Unknown data type.
      replace_first("type=Float", "type=Double");
      break;
    case 4:  // Text after the terminator.
      il += "export o0, r0\n";
      break;
    case 5:  // More lines than intake accepts.
      il.insert(il.find('\n') + 1, std::string(5000, '\n'));
      break;
  }
  return il;
}

bool FleetHealthy(const serve::ServeStats& stats) {
  return stats.workers.size() == kWorkers &&
         std::all_of(stats.workers.begin(), stats.workers.end(),
                     [](const serve::WorkerStatus& w) {
                       return w.state == "healthy";
                     });
}

/// One executed request of a pass.
struct Outcome {
  double latency_ms = 0.0;
  double accept_ms = -1.0;       ///< Send -> accepted event.
  double server_wall_ms = -1.0;  ///< done.wall_seconds.
  std::string doc;               ///< done.figure_json.
  std::string code;              ///< rejected.code.
  bool stats_ok = false;
  std::string error;  ///< Non-empty when the terminal event was unexpected.
};

/// A running `amdmb_serve --workers 2`, stopped (SIGTERM, drain) and
/// waited for on destruction.
class Fleet {
 public:
  Fleet(const Options& options, const std::string& socket)
      : socket_(socket),
        pid_(Spawn({options.serve_binary, "--socket", socket_, "--workers",
                    std::to_string(kWorkers)},
                   {"AMDMB_THREADS=" + std::to_string(kWorkerThreads)})) {}

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      WaitExit(pid_);
    }
  }

  /// Polls stats until both workers answer heartbeats.
  void WaitHealthy() {
    const Clock::time_point start = Clock::now();
    serve::Client client = serve::Client::Connect(socket_, /*retries=*/12);
    for (;; std::this_thread::sleep_for(std::chrono::milliseconds(20))) {
      const serve::ServeStats stats = client.Stats();
      if (FleetHealthy(stats)) {
        for (const serve::WorkerStatus& w : stats.workers) {
          pids_.push_back(static_cast<pid_t>(w.pid));
        }
        break;
      }
      Require(SecondsSince(start) < 60.0, "serve: fleet never got healthy");
    }
    pids_.push_back(pid_);
  }

  /// Drains over the protocol and waits for a clean exit.
  void Drain() {
    serve::Client::Connect(socket_).Drain();
    const int code = WaitExit(pid_);
    pid_ = -1;
    Require(code == 0, "serve: daemon exited with " + std::to_string(code));
  }

  /// Supervisor and workers.
  ProcUsage Usage() const {
    ProcUsage total;
    for (const pid_t pid : pids_) {
      const ProcUsage u = ReadProcUsage(pid);
      total.cpu_s += u.cpu_s;
      total.peak_rss_mib += u.peak_rss_mib;
    }
    return total;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  std::vector<pid_t> pids_;
};

double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

Outcome Execute(serve::Client& client, const PlannedRequest& request,
                Tracer& tracer, std::uint64_t parent, unsigned lane,
                std::size_t index) {
  Outcome out;
  const Clock::time_point start = Clock::now();
  const std::uint64_t span = tracer.Begin(
      "request " + std::to_string(index) + " " +
          std::string(ToString(request.kind)),
      parent, lane);
  std::uint64_t phase = tracer.Begin("accepted", span, lane);
  const auto on_event = [&](const serve::Event& event) {
    if (event.type != serve::EventType::kAccepted) return;
    out.accept_ms = MsSince(start);
    tracer.End(phase);
    phase = tracer.Begin("terminal", span, lane);
  };
  std::optional<serve::Event> terminal;
  switch (request.kind) {
    case Kind::kSubmit:
      terminal = client.Submit(request.figure, /*quick=*/true,
                               /*adaptive=*/false, 0, on_event);
      break;
    case Kind::kCharacterize:
    case Kind::kMalformed:
      terminal = client.Characterize(request.il, /*quick=*/false,
                                     /*adaptive=*/false, 0, on_event);
      break;
    case Kind::kStats: {
      const serve::ServeStats stats = client.Stats();
      out.stats_ok = FleetHealthy(stats) && stats.failed == 0;
      break;
    }
  }
  out.latency_ms = MsSince(start);
  tracer.End(phase);
  tracer.End(span);
  if (!terminal) return out;
  const report::JsonValue& body = terminal->body;
  if (terminal->type == serve::EventType::kDone) {
    out.doc = body.StringOr("figure_json", "");
    out.server_wall_ms = body.NumberOr("wall_seconds", 0.0) * 1e3;
  } else if (terminal->type == serve::EventType::kRejected) {
    out.code = body.StringOr("code", body.StringOr("reason", "?"));
  } else {
    out.error = body.StringOr("kind", "error") + ": " +
                body.StringOr("message", "");
  }
  return out;
}

struct Pass {
  std::vector<PlannedRequest> plan;
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Pass RunPass(std::vector<PlannedRequest> plan, const std::string& socket,
             const Fleet& fleet, Tracer& tracer) {
  Pass pass;
  pass.plan = std::move(plan);
  pass.outcomes.resize(pass.plan.size());
  std::vector<std::string> errors(kConnections);
  const double cpu_start = fleet.Usage().cpu_s;
  const Clock::time_point start = Clock::now();
  const std::uint64_t root = tracer.Begin("serve_mix", 0);
  {
    std::vector<std::jthread> connections;
    for (unsigned c = 0; c < kConnections; ++c) {
      connections.emplace_back([&, c] {
        try {
          serve::Client client = serve::Client::Connect(socket);
          for (std::size_t i = 0; i < pass.plan.size(); ++i) {
            if (pass.plan[i].lane != c) continue;
            pass.outcomes[i] =
                Execute(client, pass.plan[i], tracer, root, c + 1, i);
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
  }
  tracer.End(root);
  pass.wall_s = SecondsSince(start);
  pass.cpu_s = fleet.Usage().cpu_s - cpu_start;
  for (const std::string& error : errors) {
    Require(error.empty(), "serve: connection failed: " + error);
  }
  return pass;
}

/// Checks every outcome of `pass`: submit documents against the dense
/// quick digests, characterize documents against an in-process
/// characterization of the same IL, rejections against intake's code.
void CheckPass(const Pass& pass, const DigestTable& expected,
               const exec::SweepExecutor& executor,
               std::vector<double>& intake_us, RunResult& result) {
  const auto quick = expected.find("dense_quick");
  std::vector<std::size_t> characterized;
  for (std::size_t i = 0; i < pass.plan.size(); ++i) {
    if (pass.plan[i].kind == Kind::kCharacterize) characterized.push_back(i);
  }
  struct Local {
    std::string digest;
    double intake_us = 0.0;
  };
  // One kernel per pool thread; each characterization runs serially.
  const exec::SweepExecutor serial(1);
  const std::vector<Local> local =
      executor.Map(characterized.size(), [&](std::size_t k) {
        const PlannedRequest& request = pass.plan[characterized[k]];
        const Clock::time_point start = Clock::now();
        kerncap::AnalyzeResult analysis = kerncap::Analyze(request.il);
        Local out;
        out.intake_us = SecondsSince(start) * 1e6;
        Require(analysis.ok(), "serve: planned kernel fails intake");
        kerncap::CharacterizeOptions opts;
        opts.quick = false;
        opts.executor = &serial;
        out.digest = DocDigest(report::BenchJson(
            kerncap::Characterize(*analysis.prepared, opts)));
        return out;
      });
  for (const Local& l : local) intake_us.push_back(l.intake_us);

  std::size_t next_local = 0;
  for (std::size_t i = 0; i < pass.plan.size(); ++i) {
    const PlannedRequest& request = pass.plan[i];
    const Outcome& out = pass.outcomes[i];
    ++result.attempted;
    std::string problem = out.error;
    switch (request.kind) {
      case Kind::kSubmit: {
        const bool known =
            quick != expected.end() && quick->second.count(request.figure);
        if (problem.empty() &&
            (out.doc.empty() || !known ||
             quick->second.at(request.figure) != DocDigest(out.doc))) {
          problem = "document digest differs from dense_quick/" +
                    request.figure;
        }
        break;
      }
      case Kind::kCharacterize:
        if (problem.empty() &&
            (out.doc.empty() ||
             DocDigest(out.doc) != local[next_local].digest)) {
          problem = "document differs from in-process characterization";
        }
        ++next_local;
        break;
      case Kind::kMalformed:
        if (problem.empty() && out.code != request.expected_code) {
          problem = "rejection code " + out.code + ", expected " +
                    request.expected_code;
        }
        break;
      case Kind::kStats:
        if (!out.stats_ok) problem = "stats reports an unhealthy fleet";
        break;
    }
    if (!problem.empty()) {
      ++result.failed;
      result.lines.push_back("MISMATCH request " + std::to_string(i) + " (" +
                             std::string(ToString(request.kind)) +
                             "): " + problem);
    }
  }
}

/// Latencies of the requests of `pass` whose kind is in `kinds`.
std::vector<double> Latencies(const Pass& pass, std::set<Kind> kinds) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < pass.plan.size(); ++i) {
    if (kinds.count(pass.plan[i].kind)) {
      ms.push_back(pass.outcomes[i].latency_ms);
    }
  }
  return ms;
}

std::size_t ServedPoints(const Pass& pass) {
  std::size_t points = 0;
  for (const Outcome& out : pass.outcomes) points += CountPoints(out.doc);
  return points;
}

void AddEndToEnd(const std::vector<Pass>& passes, double peak_rss_mib,
                 const std::vector<double>& setups, RunResult& result) {
  Metrics& m = result.metrics;
  const std::size_t n = passes.size();
  const std::size_t requests = passes.front().plan.size();
  const int tail = TailPercentile(requests);
  std::vector<double> points_per_s, ops_per_s, p50, p_tail, cpu;
  for (const Pass& pass : passes) {
    const std::vector<double> all = Latencies(
        pass, {Kind::kSubmit, Kind::kCharacterize, Kind::kMalformed,
               Kind::kStats});
    points_per_s.push_back(static_cast<double>(ServedPoints(pass)) /
                           pass.wall_s);
    ops_per_s.push_back(static_cast<double>(requests) / pass.wall_s);
    p50.push_back(SmoothPercentile(all, 50.0));
    p_tail.push_back(SmoothPercentile(all, tail));
    cpu.push_back(pass.cpu_s);
  }
  m["setup_s"] = {Median(setups), "s", setups.size(),
                  "daemon CPU from spawn through warm-up, median"};
  m["points_per_s"] = {Median(points_per_s), "points/s", n,
                       "points in served documents"};
  m["ops_per_s"] = {Median(ops_per_s), "1/s", n, "requests per second"};
  m["latency_p50_ms"] = {Median(p50), "ms", requests * n,
                         PercentileNote(50, requests, "requests per pass")};
  m["latency_tail_ms"] = {
      Median(p_tail), "ms", requests * n,
      PercentileNote(tail, requests, "requests per pass")};
  m["cpu_s"] = {Median(cpu), "s", n, "supervisor + workers per pass"};
  m["peak_rss_mb"] = {peak_rss_mib, "MiB", kWorkers + 1,
                      "sum of VmHWM, supervisor + workers"};
}

void AddLayers(const Pass& traced, const serve::ServeStats& stats,
               const std::vector<double>& intake_us, RunResult& result) {
  Metrics& m = result.metrics;
  const auto add_class = [&](const std::string& name,
                             std::set<Kind> kinds) {
    const std::vector<double> ms = Latencies(traced, std::move(kinds));
    m["serve." + name + "_p50_ms"] = {NamedPercentile(ms, 50.0), "ms",
                                      ms.size(), ""};
    m["serve." + name + "_p90_ms"] = {NamedPercentile(ms, 90.0), "ms",
                                      ms.size(), ""};
  };
  add_class("submit", {Kind::kSubmit});
  add_class("characterize", {Kind::kCharacterize});
  add_class("light", {Kind::kMalformed, Kind::kStats});

  std::vector<double> accept, overhead, done_bytes;
  for (const Outcome& out : traced.outcomes) {
    if (out.accept_ms >= 0.0) accept.push_back(out.accept_ms);
    if (out.server_wall_ms >= 0.0) {
      overhead.push_back(out.latency_ms - out.server_wall_ms);
      done_bytes.push_back(static_cast<double>(out.doc.size()));
    }
  }
  m["serve.accept_ms_p50"] = {NamedPercentile(accept, 50.0), "ms",
                              accept.size(), "send -> accepted"};
  m["serve.overhead_ms_p50"] = {NamedPercentile(overhead, 50.0), "ms",
                                overhead.size(),
                                "client latency - done.wall_seconds"};
  m["serve.overhead_ms_p90"] = {NamedPercentile(overhead, 90.0), "ms",
                                overhead.size(),
                                "client latency - done.wall_seconds"};
  m["serve.done_bytes_p50"] = {NamedPercentile(done_bytes, 50.0), "bytes",
                               done_bytes.size(), ""};
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  m["serve.cache_hit_ratio"] = {
      lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0,
      "ratio", 1, "fleet kernel caches, whole daemon life"};
  m["serve.rejected"] = {static_cast<double>(stats.rejected), "count", 1,
                         "exact"};
  m["exec.cache_hits"] = {static_cast<double>(stats.cache_hits), "count", 1,
                          "approximate: fleet heartbeat counters"};
  m["exec.cache_misses"] = {static_cast<double>(stats.cache_misses), "count",
                            1, "approximate: fleet heartbeat counters"};
  m["exec.cache_hit_ratio"] = m["serve.cache_hit_ratio"];
  m["exec.utilization"] = {
      traced.cpu_s / (traced.wall_s * kWorkers * kWorkerThreads), "ratio", 1,
      "cpu_s / (wall x worker threads)"};
  m["kerncap.intake_us_p50"] = {NamedPercentile(intake_us, 50.0), "us",
                                intake_us.size(), "in-process Analyze"};
}

}  // namespace

std::vector<PlannedRequest> ServePlan(std::uint64_t seed, std::size_t pass) {
  XorShift128 rng(Fnv1a("serve_mix/" + std::to_string(seed)));
  // Kernels never repeat within a run, so every characterize misses the
  // worker's kernel cache: earlier passes draw from the same stream.
  std::set<std::tuple<unsigned, unsigned, unsigned, int, int, int>> seen;
  const auto fresh = [&seen](const suite::GenericSpec& spec) {
    return seen
        .insert(std::make_tuple(spec.inputs, spec.outputs, spec.alu_ops,
                                static_cast<int>(spec.type),
                                static_cast<int>(spec.read_path),
                                static_cast<int>(spec.write_path)))
        .second;
  };
  const serve::HashRing ring(kWorkers);
  std::vector<PlannedRequest> plan;
  for (std::size_t p = 0; p <= pass; ++p) {
    plan.clear();
    // Every pass submits each figure 16 or 17 times, whatever the seed.
    for (std::size_t i = 0; i < kSubmits; ++i) {
      PlannedRequest r;
      r.kind = Kind::kSubmit;
      r.figure = kSubmitFigures[i % kSubmitFigures.size()];
      r.lane = *ring.Route(suite::figures::NormalizeSlug(r.figure));
      plan.push_back(std::move(r));
    }
    // Kernels are named so that each worker gets half of them; the
    // characterize lane alternates within every cost class.
    for (std::size_t k = 0; k < kCharacterizes; ++k) {
      suite::GenericSpec spec;
      for (int attempt = 0;; ++attempt) {
        spec = StratifiedSpec(k, rng);
        if (attempt >= 8) {  // The band is used up: any ALU budget.
          spec.alu_ops = spec.inputs + spec.outputs +
                         static_cast<unsigned>(rng.NextBelow(4 * spec.inputs));
        }
        if (fresh(spec)) break;
      }
      PlannedRequest r;
      r.kind = Kind::kCharacterize;
      r.lane = static_cast<unsigned>((k ^ (k >> 3)) % kWorkers);
      r.il = IlOnLane(spec, "mix" + std::to_string(k), r.lane, ring);
      plan.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < kMalformed; ++i) {
      suite::GenericSpec spec = RandomSpec(rng);
      const std::uint64_t first = rng.NextBelow(6);
      PlannedRequest r;
      r.kind = Kind::kMalformed;
      r.lane = static_cast<unsigned>(i % kWorkers);
      for (int t = 0;
           r.expected_code.empty() || RouteOfIl(ring, r.il) != r.lane; ++t) {
        Require(t < 64, "serve plan: no malformed name routes to its worker");
        spec.name = "bad" + std::to_string(i) + "_" + std::to_string(t);
        const std::string valid = il::Print(suite::GenerateGeneric(spec));
        r.expected_code.clear();
        for (std::uint64_t k = first; r.expected_code.empty(); ++k) {
          Require(k < first + 6, "serve plan: no mutation is rejected");
          r.il = Mutate(valid, k);
          const kerncap::AnalyzeResult verdict = kerncap::Analyze(r.il);
          if (!verdict.ok()) {
            r.expected_code =
                std::string(kerncap::ToString(verdict.rejection->reason));
          }
        }
      }
      plan.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < kStats; ++i) {
      PlannedRequest r;
      r.lane = static_cast<unsigned>(i % kConnections);
      plan.push_back(std::move(r));
    }
    for (std::size_t i = plan.size(); i > 1; --i) {
      std::swap(plan[i - 1], plan[rng.NextBelow(i)]);
    }
  }
  return plan;
}

std::string ServePlanDigest(const std::vector<PlannedRequest>& plan) {
  std::string text;
  for (const PlannedRequest& r : plan) {
    text += std::string(ToString(r.kind)) + "\n" + std::to_string(r.lane) +
            "\n" + r.figure + "\n" + r.il + "\n" + r.expected_code + "\n";
  }
  return Hex(Fnv1a(text));
}

RunResult RunServeWorkload(const Options& options) {
  RunResult result;
  const bool traced = !options.trace_dir.empty();
  const DigestTable expected = LoadDigests(options.expected_path);
  const std::filesystem::path dir = std::filesystem::path(options.work_dir) /
                                    ("serve-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string socket = (dir / "s.sock").string();

  // Set-up is the fleet's start plus filling its kernel caches: one
  // quick submit of every figure the plan draws from, so the timed
  // submits are cache hits. Counted as the CPU the daemon spends, which
  // leaves out the heartbeat interval it waits for healthy workers.
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < (traced ? 1 : kSetupFleets); ++i) {
    if (fleet) fleet->Drain();
    fleet = std::make_unique<Fleet>(options, socket);
    fleet->WaitHealthy();
    serve::Client client = serve::Client::Connect(socket);
    for (const std::string& figure : kSubmitFigures) {
      const serve::Event done = client.Submit(figure, /*quick=*/true, 0);
      Require(done.type == serve::EventType::kDone,
              "serve: warm-up submit of " + figure + " failed");
    }
    setups.push_back(fleet->Usage().cpu_s);
  }

  Tracer tracer(traced);
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(RunPass(ServePlan(options.seed, passes.size()), socket,
                             *fleet, tracer));
  } while (SecondsSince(start) < options.seconds);
  result.plan_digest = ServePlanDigest(passes.front().plan);
  serve::ServeStats stats;
  if (traced) {
    // Worker cache counters reach the supervisor with heartbeats.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    stats = serve::Client::Connect(socket).Stats();
  }
  const double peak_rss_mib = fleet->Usage().peak_rss_mib;
  fleet->Drain();
  fleet.reset();
  std::filesystem::remove_all(dir);

  result.lines.push_back(
      "workload serve_mix: " + std::to_string(passes.size()) +
      " pass(es) of " + std::to_string(passes.front().plan.size()) +
      " requests (" + std::to_string(kSubmits) + " submit, " +
      std::to_string(kCharacterizes) + " characterize, " +
      std::to_string(kMalformed) + " malformed, " + std::to_string(kStats) +
      " stats), " + std::to_string(kConnections) + " connections, " +
      std::to_string(kWorkers) + " workers x " +
      std::to_string(kWorkerThreads) + " threads" +
      (traced ? ", traced" : ""));
  const exec::SweepExecutor executor(4);
  std::vector<double> intake_us;
  for (const Pass& pass : passes) {
    CheckPass(pass, expected, executor, intake_us, result);
  }
  if (traced) {
    AddLayers(passes.front(), stats, intake_us, result);
    result.metrics["trace.overhead_ratio"] = TraceOverhead();
    ReplayCrossCheckPoints(result.metrics);
    const std::string path = options.trace_dir + "/serve_mix.trace.json";
    tracer.Write(path);
    result.lines.push_back("trace: " + std::to_string(tracer.SpanCount()) +
                           " spans -> " + path);
  } else {
    AddEndToEnd(passes, peak_rss_mib, setups, result);
  }
  return result;
}

}  // namespace amdmb::perf
