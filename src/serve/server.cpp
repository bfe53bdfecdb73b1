#include "serve/server.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <map>
#include <thread>
#include <utility>

#include "adapt/refiner.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "exec/kernel_cache.hpp"
#include "fault/fault.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "kerncap/static_analysis.hpp"
#include "report/json_sink.hpp"

namespace amdmb::serve {

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.max_queue, config_.max_inflight),
      listener_(config_.socket_path, std::bind_front(&Server::Dispatch, this)) {
  if (config_.registry == nullptr) {
    config_.registry = &suite::figures::Registry();
  }
  Require(!config_.socket_path.empty(), "serve: empty socket path");
}

Server::~Server() { Drain(); }

void Server::Start() {
  listener_.Bind();
  listener_.Start();
}

void Server::Dispatch(const std::shared_ptr<Session>& session,
                      const Request& request) {
  switch (request.op) {
    case Request::Op::kSubmit:
      HandleSubmit(session, request);
      break;
    case Request::Op::kCharacterize:
      HandleCharacterize(session, request);
      break;
    case Request::Op::kStats:
      session->WriteLine(SerializeStats(Stats()));
      break;
    case Request::Op::kDrain:
      BeginDrain();
      session->WriteLine(SerializeDrained(store_.Completed()));
      break;
    case Request::Op::kPing:
      HandlePing(session, request);
      break;
    case Request::Op::kKillWorker:
      // Only the supervisor can kill fleet members.
      session->WriteLine(SerializeError(
          0, ErrorKind::kProtocolError,
          "kill_worker: this daemon does not supervise a fleet"));
      break;
  }
}

void Server::HandlePing(const std::shared_ptr<Session>& session,
                        const Request& request) {
  if (config_.worker_index >= 0) {
    // Seeded chaos: a worker may be scheduled to crash or hang on this
    // very heartbeat. The key is supervisor-assigned (slot#seq), so the
    // schedule is a pure function of the AMDMB_FAULTS seed.
    if (const fault::FaultInjector* injector = fault::GlobalInjector()) {
      std::string key = "w";
      key += std::to_string(config_.worker_index);
      key += '#';
      key += std::to_string(request.seq);
      if (injector->ShouldFail(fault::FaultSite::kWorkerCrash, key)) {
        std::_Exit(3);  // Hard crash: no drain, no flush, no pong.
      }
      if (injector->ShouldFail(fault::FaultSite::kWorkerHang, key)) {
        // Stop answering heartbeats forever; the supervisor must
        // declare this worker dead and SIGKILL it.
        for (;;) std::this_thread::sleep_for(std::chrono::hours(24));
      }
    }
  }
  PongStats pong;
  pong.completed = store_.Completed();
  pong.failed = store_.Failed();
  const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
  pong.cache_hits = cache.hits;
  pong.cache_misses = cache.misses;
  session->WriteLine(SerializePong(
      config_.worker_index >= 0
          ? static_cast<unsigned>(config_.worker_index)
          : 0,
      request.seq, pong));
}

void Server::HandleSubmit(const std::shared_ptr<Session>& session,
                          const Request& request) {
  const suite::figures::FigureDef* def =
      suite::figures::Find(request.figure, *config_.registry);
  if (def == nullptr) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected("unknown_figure", request.figure));
    return;
  }
  std::vector<std::string> curves;
  for (const suite::figures::CurveDef& curve : def->curves) {
    curves.push_back(curve.name);
  }
  Admit(session, request, def->slug, std::move(curves),
        [def, quick = request.quick](
            std::uint64_t, const adapt::Settings* adaptive,
            const suite::figures::CurveCallback& on_curve) {
          suite::figures::RunOptions opts;
          opts.quick = quick;
          opts.adaptive = adaptive;
          return suite::figures::Build(*def, opts, on_curve);
        });
}

void Server::HandleCharacterize(const std::shared_ptr<Session>& session,
                                const Request& request) {
  // Intake runs inline on the session thread: it is cheap (caps bound
  // it) and the typed verdict must come back before admission, exactly
  // like an unknown figure slug does for submit.
  kerncap::AnalyzeResult analysis;
  try {
    analysis = kerncap::Analyze(request.il);
  } catch (const std::exception& e) {
    // Analyze never throws for malformed input; anything escaping it is
    // an internal bug, reported as such rather than crashing the session.
    session->WriteLine(SerializeError(0, ErrorKind::kSweepFailed, e.what()));
    return;
  }
  if (!analysis.ok()) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected(
        "invalid_kernel", analysis.hash,
        kerncap::ToString(analysis.rejection->reason),
        analysis.rejection->detail));
    return;
  }
  auto prepared = std::make_shared<const kerncap::Prepared>(
      std::move(*analysis.prepared));
  std::vector<std::string> curves;
  for (const suite::CurveKey& curve :
       kerncap::EligibleCurves(prepared->kernel)) {
    curves.push_back(curve.Name());
  }
  Admit(session, request, kerncap::Slug(*prepared), std::move(curves),
        [session, prepared, quick = request.quick](
            std::uint64_t id, const adapt::Settings* adaptive,
            const suite::figures::CurveCallback& on_curve) {
          // Static verdicts stream first — the client gets the SKA view
          // even if it disconnects before the sweep finishes.
          for (const kerncap::ArchStatic& s : prepared->statics) {
            StaticReport report;
            report.arch = kerncap::CardLabel(s.arch);
            report.alu_ops = s.ska.alu_ops;
            report.fetch_ops = s.ska.fetch_ops;
            report.write_ops = s.ska.write_ops;
            report.alu_fetch_ratio = s.ska.alu_fetch_ratio;
            report.gpr_count = s.ska.gpr_count;
            report.theoretical_wavefronts = s.ska.theoretical_wavefronts;
            report.resident_wavefronts = s.ska.resident_wavefronts;
            report.bound = std::string(compiler::ToString(s.ska.bound));
            session->WriteLine(SerializeStatic(id, report));
          }
          kerncap::CharacterizeOptions opts;
          opts.quick = quick;
          opts.adaptive = adaptive;
          return kerncap::Characterize(*prepared, opts, on_curve);
        });
}

void Server::Admit(const std::shared_ptr<Session>& session,
                   const Request& request, const std::string& slug,
                   std::vector<std::string> curves, BuildFn build) {
  // The worker could pick the job up before the accepted line is on the
  // wire; gate the sweep on it so events always follow the accept.
  std::promise<void> admitted;
  const Scheduler::Ticket ticket = scheduler_.Submit(
      request.priority,
      [this, session, slug, curves = std::move(curves),
       adaptive = request.adaptive, build = std::move(build),
       gate = admitted.get_future().share()](std::uint64_t id) {
        gate.wait();
        const std::string terminal =
            Run(session, id, slug, curves, adaptive, build);
        // Leave the in-flight count before the terminal event: a client
        // that reads it and at once asks for stats must see this request
        // finished.
        scheduler_.Retire(id);
        session->WriteLine(terminal);
      });
  if (ticket.admission != Admission::kAccepted) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected(ToString(ticket.admission), slug));
    return;
  }
  session->WriteLine(SerializeAccepted(ticket.id, slug, ticket.queue_depth));
  admitted.set_value();
}

std::string Server::Run(const std::shared_ptr<Session>& session,
                        std::uint64_t id, const std::string& slug,
                        const std::vector<std::string>& curves,
                        bool adaptive, const BuildFn& build) {
  const auto start = std::chrono::steady_clock::now();
  try {
    // Adaptive requests refine with the worker's env-snapshot knobs and
    // stream one refine event per wave. Build replays each curve's waves
    // on this thread just before that curve's progress event, and
    // Characterize runs its curves in order on this thread, so the curve
    // a wave belongs to is the first not-yet-done one.
    adapt::Settings settings;
    std::size_t curves_done = 0;
    if (adaptive) {
      settings = adapt::Settings::FromEnv();
      settings.on_wave = [&](const adapt::WaveInfo& w) {
        const std::string& curve =
            curves_done < curves.size() ? curves[curves_done] : slug;
        session->WriteLine(SerializeRefine(id, curve, w.wave, w.wave_points,
                                           w.points_spent, w.dense_points));
      };
    }
    // Stream every new point / profile entry after each curve; emitted
    // counts are tracked per series because a curve's series name can
    // differ from the curve name (Fig. 15's "Pixel/3870" -> "3870").
    std::map<std::string, std::size_t> points_sent;
    std::size_t profiles_sent = 0;
    const report::Figure figure = build(
        id, adaptive ? &settings : nullptr,
        [&](std::size_t index, std::size_t count, const std::string& curve,
            const report::Figure& so_far) {
          curves_done = index + 1;
          session->WriteLine(SerializeProgress(id, index, count, curve));
          for (const report::Curve& series : so_far.set.All()) {
            std::size_t& sent = points_sent[series.Name()];
            const auto& points = series.Points();
            for (; sent < points.size(); ++sent) {
              session->WriteLine(SerializePoint(
                  id, series.Name(), points[sent].x, points[sent].y));
            }
          }
          for (; profiles_sent < so_far.profiles.size(); ++profiles_sent) {
            const report::ProfileEntry& p = so_far.profiles[profiles_sent];
            session->WriteLine(
                SerializeProfile(id, p.curve, p.point, p.attributed));
          }
        });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
    // Counted before the done event is out (see Admit).
    store_.RecordCompleted(slug, wall);
    return SerializeDone(id, slug, wall, cache.hits, cache.misses,
                         report::BenchJson(figure));
  } catch (const std::exception& e) {
    store_.RecordFailed(slug);
    return SerializeError(id, ErrorKind::kSweepFailed, e.what());
  }
}

ServeStats Server::Stats() const {
  ServeStats stats;
  stats.version = std::string(SuiteVersion());
  stats.queue_depth = scheduler_.QueueDepth();
  stats.in_flight = scheduler_.InFlight();
  stats.max_queue = scheduler_.MaxQueue();
  stats.max_inflight = scheduler_.MaxInflight();
  stats.completed = store_.Completed();
  stats.failed = store_.Failed();
  stats.rejected = store_.Rejected();
  const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_hit_rate = cache.HitRate();
  stats.cache_size = exec::KernelCache::Shared().Size();
  stats.latencies = store_.Latencies();
  return stats;
}

bool Server::DrainRequested() const {
  return drain_requested_.load(std::memory_order_relaxed);
}

void Server::BeginDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  // call_once blocks concurrent callers until the active drain finishes,
  // so every BeginDrain return means "all admitted sweeps are done".
  std::call_once(drain_once_, [this] {
    scheduler_.StopAdmission();
    scheduler_.WaitIdle();
  });
}

void Server::Drain() {
  BeginDrain();
  listener_.Close();
  scheduler_.Shutdown();
}

}  // namespace amdmb::serve
