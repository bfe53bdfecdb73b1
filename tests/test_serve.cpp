// Tests for the serve layer: the NDJSON wire protocol, figure-registry
// and supplement lookups, Build's cancellation between curves, the
// bounded FIFO-with-priority scheduler, the daemon end to end over a
// real Unix-domain socket (byte-compatibility with the standalone bench
// output, kernel-cache reuse, deterministic overload and drain
// rejections, and event-stream determinism across runs), and the
// supervised worker fleet (health state machine, consistent-hash
// routing, deadlines, failover, seeded crash/hang chaos).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/status.hpp"
#include "exec/sweep_executor.hpp"
#include "fault/fault.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "report/json_sink.hpp"
#include "serve/client.hpp"
#include "serve/health.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/routing.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/supervisor.hpp"
#include "suite/figures.hpp"

namespace amdmb::serve {
namespace {

using suite::figures::CurveDef;
using suite::figures::FigureDef;
using suite::figures::Find;
using suite::figures::NormalizeSlug;
using suite::figures::Registry;
using suite::figures::RunOptions;
using suite::figures::Supplements;

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, SubmitRequestRoundTrips) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.figure = "fig_7";
  request.quick = true;
  request.priority = 2;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_EQ(back.op, Request::Op::kSubmit);
  EXPECT_EQ(back.figure, "fig_7");
  EXPECT_TRUE(back.quick);
  EXPECT_EQ(back.priority, 2);
}

TEST(ServeProtocol, StatsAndDrainRequestsRoundTrip) {
  Request stats;
  stats.op = Request::Op::kStats;
  EXPECT_EQ(ParseRequest(SerializeRequest(stats)).op, Request::Op::kStats);
  Request drain;
  drain.op = Request::Op::kDrain;
  EXPECT_EQ(ParseRequest(SerializeRequest(drain)).op, Request::Op::kDrain);
}

TEST(ServeProtocol, ParseRequestRejectsMalformedLines) {
  EXPECT_THROW(ParseRequest("not json"), ConfigError);
  EXPECT_THROW(ParseRequest("[1,2]"), ConfigError);
  EXPECT_THROW(ParseRequest("{}"), ConfigError);
  EXPECT_THROW(ParseRequest(R"({"op":"frobnicate"})"), ConfigError);
  // A submit without a figure slug has nothing to run.
  EXPECT_THROW(ParseRequest(R"({"op":"submit"})"), ConfigError);
  // Priorities are integers; silently truncating 1.5 would reorder.
  EXPECT_THROW(
      ParseRequest(R"({"op":"submit","figure":"fig_7","priority":1.5})"),
      ConfigError);
}

// Integers from the wire are range-checked before any cast: a value out
// of its type's range is a ConfigError naming the key, never undefined
// behaviour.
TEST(ServeProtocol, ParseRequestRejectsOutOfRangeIntegers) {
  const auto rejects = [](const std::string& line, const std::string& key) {
    try {
      ParseRequest(line);
      ADD_FAILURE() << line << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* op : {"submit", "characterize"}) {
    const std::string head = std::string(R"({"op":")") + op +
                             R"(","figure":"fig_7","il":"x","priority":)";
    rejects(head + "1e30}", "priority");
    rejects(head + "-1e10}", "priority");
    rejects(head + "2147483648}", "priority");
    rejects(head + R"("high"})", "priority");
  }
  rejects(R"({"op":"ping","seq":1e30})", "seq");
  rejects(R"({"op":"ping","seq":0.5})", "seq");
  rejects(R"({"op":"kill_worker","worker":1e10})", "worker");
  rejects(R"({"op":"kill_worker","worker":-1})", "worker");
  rejects(R"({"op":"kill_worker","worker":"1"})", "worker");
  // The extremes of each range still parse.
  EXPECT_EQ(
      ParseRequest(R"({"op":"submit","figure":"f","priority":-2147483648})")
          .priority,
      -2147483648LL);
  EXPECT_EQ(
      ParseRequest(R"({"op":"kill_worker","worker":4294967295})").worker,
      4294967295u);
  EXPECT_EQ(ParseRequest(R"({"op":"ping","seq":9007199254740992})").seq,
            9007199254740992u);
}

TEST(ServeProtocol, EventSerializersRoundTrip) {
  Event e = ParseEvent(SerializeAccepted(7, "fig_7", 3));
  EXPECT_EQ(e.type, EventType::kAccepted);
  EXPECT_EQ(e.body.NumberOr("request", 0.0), 7.0);
  EXPECT_EQ(e.body.StringOr("figure", ""), "fig_7");
  EXPECT_EQ(e.body.NumberOr("queue_depth", -1.0), 3.0);

  e = ParseEvent(SerializeRejected("overloaded", "fig_9"));
  EXPECT_EQ(e.type, EventType::kRejected);
  EXPECT_EQ(e.body.StringOr("reason", ""), "overloaded");

  e = ParseEvent(SerializeProgress(7, 1, 10, "4870 Pixel Float"));
  EXPECT_EQ(e.type, EventType::kProgress);
  EXPECT_EQ(e.body.NumberOr("index", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("count", -1.0), 10.0);
  EXPECT_EQ(e.body.StringOr("curve", ""), "4870 Pixel Float");

  e = ParseEvent(SerializePoint(7, "3870", 0.25, 0.7245));
  EXPECT_EQ(e.type, EventType::kPoint);
  EXPECT_EQ(e.body.NumberOr("x", 0.0), 0.25);
  EXPECT_EQ(e.body.NumberOr("y", 0.0), 0.7245);

  e = ParseEvent(SerializeProfile(7, "3870", "alufetch_r0.25", "alu"));
  EXPECT_EQ(e.type, EventType::kProfile);
  EXPECT_EQ(e.body.StringOr("bottleneck", ""), "alu");

  e = ParseEvent(SerializeDone(7, "fig_7", 1.25, 48, 32, "{\"a\": 1}\n"));
  EXPECT_EQ(e.type, EventType::kDone);
  EXPECT_EQ(e.body.NumberOr("wall_seconds", 0.0), 1.25);
  EXPECT_EQ(e.body.NumberOr("cache_hits", 0.0), 48.0);
  EXPECT_EQ(e.body.NumberOr("cache_misses", 0.0), 32.0);
  // The embedded figure document survives escaping byte for byte.
  EXPECT_EQ(e.body.StringOr("figure_json", ""), "{\"a\": 1}\n");

  e = ParseEvent(SerializeError(7, ErrorKind::kSweepFailed,
                                "sweep exploded"));
  EXPECT_EQ(e.type, EventType::kError);
  EXPECT_EQ(e.body.StringOr("kind", ""), "sweep_failed");
  EXPECT_EQ(e.body.StringOr("message", ""), "sweep exploded");

  e = ParseEvent(SerializeDrained(12));
  EXPECT_EQ(e.type, EventType::kDrained);
  EXPECT_EQ(e.body.NumberOr("completed", 0.0), 12.0);
}

TEST(ServeProtocol, AdaptiveFlagRoundTripsAndStaysOffDenseWires) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.figure = "fig_7";
  // Dense requests serialize without the key at all, so request lines
  // from pre-adaptive clients stay byte-identical.
  EXPECT_EQ(SerializeRequest(request).find("adaptive"), std::string::npos);
  EXPECT_FALSE(ParseRequest(SerializeRequest(request)).adaptive);

  request.adaptive = true;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_TRUE(back.adaptive);

  Request characterize;
  characterize.op = Request::Op::kCharacterize;
  characterize.il = "il_ps_2_0\nend\n";
  characterize.adaptive = true;
  EXPECT_TRUE(ParseRequest(SerializeRequest(characterize)).adaptive);
}

TEST(ServeProtocol, RefineEventRoundTrips) {
  const Event e =
      ParseEvent(SerializeRefine(9, "4870 Pixel Float", 2, 3, 9, 32));
  EXPECT_EQ(e.type, EventType::kRefine);
  EXPECT_EQ(e.body.NumberOr("request", 0.0), 9.0);
  EXPECT_EQ(e.body.StringOr("curve", ""), "4870 Pixel Float");
  EXPECT_EQ(e.body.NumberOr("wave", -1.0), 2.0);
  EXPECT_EQ(e.body.NumberOr("points", -1.0), 3.0);
  EXPECT_EQ(e.body.NumberOr("spent", -1.0), 9.0);
  EXPECT_EQ(e.body.NumberOr("dense", -1.0), 32.0);
  EXPECT_EQ(ToString(EventType::kRefine), "refine");
}

TEST(ServeProtocol, NamesEveryErrorKind) {
  EXPECT_EQ(ToString(ErrorKind::kSweepFailed), "sweep_failed");
  EXPECT_EQ(ToString(ErrorKind::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(ToString(ErrorKind::kWorkerLost), "worker_lost");
  EXPECT_EQ(ToString(ErrorKind::kProtocolError), "protocol_error");
}

TEST(ServeProtocol, PingPongAndKillWorkerRoundTrip) {
  Request ping;
  ping.op = Request::Op::kPing;
  ping.seq = 12;
  const Request ping_back = ParseRequest(SerializeRequest(ping));
  EXPECT_EQ(ping_back.op, Request::Op::kPing);
  EXPECT_EQ(ping_back.seq, 12u);
  EXPECT_THROW(ParseRequest(R"({"op":"ping","seq":-1})"), ConfigError);

  Request kill;
  kill.op = Request::Op::kKillWorker;
  kill.worker = 3;
  const Request kill_back = ParseRequest(SerializeRequest(kill));
  EXPECT_EQ(kill_back.op, Request::Op::kKillWorker);
  EXPECT_EQ(kill_back.worker, 3u);
  // A kill without a target index has nobody to kill.
  EXPECT_THROW(ParseRequest(R"({"op":"kill_worker"})"), ConfigError);

  PongStats pong;
  pong.completed = 5;
  pong.failed = 1;
  pong.cache_hits = 10;
  pong.cache_misses = 4;
  Event e = ParseEvent(SerializePong(2, 12, pong));
  EXPECT_EQ(e.type, EventType::kPong);
  EXPECT_EQ(e.body.NumberOr("worker", -1.0), 2.0);
  EXPECT_EQ(e.body.NumberOr("seq", -1.0), 12.0);
  EXPECT_EQ(e.body.NumberOr("completed", -1.0), 5.0);
  EXPECT_EQ(e.body.NumberOr("failed", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("cache_hits", -1.0), 10.0);
  EXPECT_EQ(e.body.NumberOr("cache_misses", -1.0), 4.0);

  e = ParseEvent(SerializeKilled(1));
  EXPECT_EQ(e.type, EventType::kKilled);
  EXPECT_EQ(e.body.NumberOr("worker", -1.0), 1.0);
}

TEST(ServeProtocol, ParseEventRejectsUnknownTags) {
  EXPECT_THROW(ParseEvent("not json"), ConfigError);
  EXPECT_THROW(ParseEvent(R"({"event":"mystery"})"), ConfigError);
  EXPECT_THROW(ParseEvent(R"({"no_event_key":1})"), ConfigError);
}

TEST(ServeProtocol, StatsRoundTripPreservesEveryField) {
  ServeStats stats;
  stats.version = "abc123-dirty";
  stats.queue_depth = 3;
  stats.in_flight = 2;
  stats.max_queue = 16;
  stats.max_inflight = 4;
  stats.completed = 10;
  stats.failed = 1;
  stats.rejected = 2;
  stats.cache_hits = 128;
  stats.cache_misses = 32;
  stats.cache_hit_rate = 0.8;
  stats.cache_size = 32;
  stats.latencies = {{"fig_11", 4, 0.5, 0.9, 0.99}, {"fig_7", 6, 1.5, 2.0,
                                                     2.5}};
  stats.workers = {{0, "healthy", 4242, 0, 2, 1}, {1, "dead", -1, 3, 0, 4}};
  const Event event = ParseEvent(SerializeStats(stats));
  ASSERT_EQ(event.type, EventType::kStats);
  const ServeStats back = ParseStats(event.body);
  EXPECT_EQ(back.version, stats.version);
  EXPECT_EQ(back.queue_depth, stats.queue_depth);
  EXPECT_EQ(back.in_flight, stats.in_flight);
  EXPECT_EQ(back.max_queue, stats.max_queue);
  EXPECT_EQ(back.max_inflight, stats.max_inflight);
  EXPECT_EQ(back.completed, stats.completed);
  EXPECT_EQ(back.failed, stats.failed);
  EXPECT_EQ(back.rejected, stats.rejected);
  EXPECT_EQ(back.cache_hits, stats.cache_hits);
  EXPECT_EQ(back.cache_misses, stats.cache_misses);
  EXPECT_DOUBLE_EQ(back.cache_hit_rate, stats.cache_hit_rate);
  EXPECT_EQ(back.cache_size, stats.cache_size);
  EXPECT_EQ(back.latencies, stats.latencies);
  EXPECT_EQ(back.workers, stats.workers);
  // A single-process daemon emits no workers array at all, and the
  // parse maps that back to an empty vector.
  ServeStats solo;
  solo.version = "v";
  EXPECT_EQ(SerializeStats(solo).find("\"workers\""), std::string::npos);
  EXPECT_TRUE(
      ParseStats(ParseEvent(SerializeStats(solo)).body).workers.empty());
}

// Every count is a checked integer: a value out of range is a typed
// error naming its key, never an undefined float-to-integer cast.
TEST(ServeProtocol, ParseStatsRejectsCountsOutOfRange) {
  for (const char* bad : {"1e30", "-1", "1.5"}) {
    for (const std::string key : {"queue_depth", "in_flight", "completed"}) {
      const std::string line =
          R"({"event":"stats",")" + key + "\":" + bad + "}";
      try {
        ParseStats(ParseEvent(line).body);
        ADD_FAILURE() << line << " parsed";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
    EXPECT_THROW(
        ParseStats(ParseEvent(std::string(R"({"event":"stats","workers":)") +
                              R"([{"index":0,"restarts":)" + bad + "}]}")
                       .body),
        ConfigError)
        << bad;
  }
  const ServeStats dead = ParseStats(
      ParseEvent(R"({"event":"stats","workers":[{"index":1,"pid": -1}]})")
          .body);
  ASSERT_EQ(dead.workers.size(), 1u);
  EXPECT_EQ(dead.workers[0].pid, -1);
}

// ---------------------------------------------------------------- registry

TEST(FigureRegistry, NormalizeSlugUnifiesSpellings) {
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("fig07"));
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("Fig7"));
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("Fig. 7"));
  EXPECT_EQ(NormalizeSlug("fig_15a"), NormalizeSlug("Fig15A"));
  EXPECT_NE(NormalizeSlug("fig_7"), NormalizeSlug("fig_17"));
  EXPECT_NE(NormalizeSlug("fig_15a"), NormalizeSlug("fig_15b"));
  // A run of zeros is a value, not padding.
  EXPECT_EQ(NormalizeSlug("fig00"), NormalizeSlug("fig0"));
  EXPECT_NE(NormalizeSlug("fig0"), NormalizeSlug("fig"));
}

TEST(FigureRegistry, CoversFigures7Through17) {
  std::vector<std::string> slugs;
  for (const FigureDef& def : Registry()) slugs.push_back(def.slug);
  const std::vector<std::string> expected = {
      "fig_7",  "fig_8",  "fig_9",   "fig_10",  "fig_11", "fig_12",
      "fig_13", "fig_14", "fig_15a", "fig_15b", "fig_16", "fig_17"};
  EXPECT_EQ(slugs, expected);
  for (const FigureDef& def : Registry()) {
    EXPECT_EQ(def.slug, report::FigureSlug(def.id)) << def.id;
    EXPECT_FALSE(def.curves.empty()) << def.slug;
  }
}

TEST(FigureRegistry, FindAcceptsAnySpelling) {
  const FigureDef* canonical = Find("fig_7");
  ASSERT_NE(canonical, nullptr);
  EXPECT_EQ(Find("fig07"), canonical);
  EXPECT_EQ(Find("Fig7"), canonical);
  EXPECT_EQ(Find("FIG_07"), canonical);
  EXPECT_EQ(Find("fig_99"), nullptr);
  EXPECT_EQ(Find(""), nullptr);
}

// The supplements build like figures but are not served: only their
// own list reaches them.
TEST(FigureRegistry, SupplementsAreFoundOnlyInTheirOwnList) {
  std::vector<std::string> slugs;
  for (const FigureDef& def : Supplements()) slugs.push_back(def.slug);
  const std::vector<std::string> expected = {
      "table_i",
      "extension_compute_block_size_explorer",
      "ablation_clause_usage_control_paper_fig_5",
      "ablation_2_d_cache_set_indexing",
      "ablation_wavefront_residency_cap",
      "ablation_dram_row_activation_penalty_on_fills",
      "frontier_alu_fetch_x_gpr"};
  EXPECT_EQ(slugs, expected);
  for (const FigureDef& def : Supplements()) {
    EXPECT_EQ(def.slug, report::FigureSlug(def.id)) << def.id;
    EXPECT_FALSE(def.curves.empty()) << def.slug;
    EXPECT_EQ(Find(def.slug, Supplements()), &def);
    EXPECT_EQ(Find(def.slug), nullptr) << def.slug;
  }
}

// --------------------------------------------------------------- scheduler

TEST(SchedulerToString, NamesEveryAdmission) {
  EXPECT_EQ(ToString(Admission::kAccepted), "accepted");
  EXPECT_EQ(ToString(Admission::kRejectedOverloaded), "overloaded");
  EXPECT_EQ(ToString(Admission::kRejectedDraining), "draining");
}

TEST(SchedulerTest, RunsJobsAndWaitsIdle) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    const auto ticket =
        scheduler.Submit(0, [&](std::uint64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ticket.admission, Admission::kAccepted);
  }
  scheduler.StopAdmission();
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
  EXPECT_EQ(scheduler.InFlight(), 0u);
}

TEST(SchedulerTest, PopsByPriorityThenArrivalOrder) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/1);
  // Block the single worker so the later submits queue up and the pop
  // order is decided purely by the scheduler, not by timing.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); });

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto note = [&](std::string name) {
    return [&, name = std::move(name)](std::uint64_t) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(name);
    };
  };
  scheduler.Submit(0, note("low-a"));
  scheduler.Submit(2, note("high-a"));
  scheduler.Submit(1, note("mid"));
  scheduler.Submit(2, note("high-b"));
  scheduler.Submit(0, note("low-b"));
  release.set_value();
  scheduler.StopAdmission();
  scheduler.WaitIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"high-a", "high-b", "mid",
                                             "low-a", "low-b"}));
}

TEST(SchedulerTest, OverloadRejectionIsDeterministic) {
  // ISSUE acceptance case: queue 1, inflight 1 — the first request may
  // run, the second may wait, the third must be rejected "overloaded"
  // no matter how fast the worker is, because admission counts
  // outstanding work (queued + in-flight), not queue occupancy.
  Scheduler scheduler(/*max_queue=*/1, /*max_inflight=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  EXPECT_EQ(scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); })
                .admission,
            Admission::kAccepted);
  EXPECT_EQ(scheduler.Submit(0, [](std::uint64_t) {}).admission,
            Admission::kAccepted);
  const auto third = scheduler.Submit(0, [](std::uint64_t) {
    FAIL() << "an overloaded submit must never execute";
  });
  EXPECT_EQ(third.admission, Admission::kRejectedOverloaded);
  release.set_value();
  scheduler.StopAdmission();
  scheduler.WaitIdle();
}

TEST(SchedulerTest, StopAdmissionRejectsButFinishesAdmittedJobs) {
  Scheduler scheduler(/*max_queue=*/4, /*max_inflight=*/1);
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  scheduler.Submit(0, [&, gate](std::uint64_t) {
    gate.wait();
    ran.fetch_add(1);
  });
  scheduler.Submit(0, [&](std::uint64_t) { ran.fetch_add(1); });
  scheduler.StopAdmission();
  EXPECT_EQ(scheduler.Submit(0, [](std::uint64_t) {}).admission,
            Admission::kRejectedDraining);
  release.set_value();
  scheduler.WaitIdle();
  // Both admitted jobs finished; the rejected one never ran.
  EXPECT_EQ(ran.load(), 2);
}

TEST(SchedulerTest, AssignsMonotonicRequestIds) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const auto a = scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); });
  const auto b = scheduler.Submit(0, [](std::uint64_t) {});
  const auto c = scheduler.Submit(0, [](std::uint64_t) {});
  EXPECT_LT(a.id, b.id);
  EXPECT_LT(b.id, c.id);
  release.set_value();
  scheduler.Shutdown();
}

// ---------------------------------------------------------- worker health

TEST(WorkerHealth, NamesEveryState) {
  EXPECT_EQ(ToString(WorkerState::kStarting), "starting");
  EXPECT_EQ(ToString(WorkerState::kHealthy), "healthy");
  EXPECT_EQ(ToString(WorkerState::kDegraded), "degraded");
  EXPECT_EQ(ToString(WorkerState::kDead), "dead");
}

TEST(WorkerHealth, LifecycleTransitions) {
  HealthPolicy policy;
  policy.miss_threshold = 3;
  HealthTracker tracker(policy);
  EXPECT_EQ(tracker.state(), WorkerState::kDead);  // Never spawned.
  tracker.OnSpawned();
  EXPECT_EQ(tracker.state(), WorkerState::kStarting);
  EXPECT_EQ(tracker.restarts(), 0u);  // The first spawn is not a restart.
  tracker.OnPong();
  EXPECT_EQ(tracker.state(), WorkerState::kHealthy);
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_EQ(tracker.state(), WorkerState::kDegraded);
  tracker.OnPong();  // One pong fully recovers the slot.
  EXPECT_EQ(tracker.state(), WorkerState::kHealthy);
  EXPECT_EQ(tracker.misses(), 0u);
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_TRUE(tracker.OnMiss());  // The third consecutive miss kills it.
  EXPECT_EQ(tracker.state(), WorkerState::kDead);
  tracker.OnSpawned();
  EXPECT_EQ(tracker.state(), WorkerState::kStarting);
  EXPECT_EQ(tracker.restarts(), 1u);
  tracker.OnExit();  // A reaped process is dead regardless of misses.
  EXPECT_EQ(tracker.state(), WorkerState::kDead);
}

TEST(WorkerHealth, StartingWorkersGetDoubleMissGrace) {
  HealthPolicy policy;
  policy.miss_threshold = 2;
  HealthTracker tracker(policy);
  tracker.OnSpawned();
  // A worker still binding its socket has answered nothing yet: it
  // survives miss_threshold * 2 - 1 misses and dies on the next.
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_FALSE(tracker.OnMiss());
  EXPECT_EQ(tracker.state(), WorkerState::kStarting);
  EXPECT_TRUE(tracker.OnMiss());
  EXPECT_EQ(tracker.state(), WorkerState::kDead);
  EXPECT_FALSE(tracker.OnMiss());  // Dead stays dead without a spawn.
}

TEST(WorkerHealth, RestartBackoffIsCappedExponentialWithoutJitter) {
  HealthPolicy policy;
  policy.backoff_base_ms = 50.0;
  policy.backoff_cap_ms = 2000.0;
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 1), 50.0);
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 2), 100.0);
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 3), 200.0);
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 6), 1600.0);
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 7), 2000.0);  // Capped.
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 30), 2000.0);
  // No jitter: the delay is a pure function of the restart count, so a
  // seeded kill schedule replays the identical recovery timeline.
  EXPECT_DOUBLE_EQ(RestartBackoffMs(policy, 5), RestartBackoffMs(policy, 5));
}

// ---------------------------------------------------------------- routing

TEST(ServeRouting, RoutingIsDeterministicAndCoversEverySlot) {
  const HashRing a(3);
  const HashRing b(3);
  std::vector<unsigned> hits(3, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "fig_" + std::to_string(i);
    const std::optional<unsigned> ra = a.Route(key);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra, b.Route(key));  // Pure function of (workers, key).
    ++hits[*ra];
  }
  for (unsigned slot = 0; slot < 3; ++slot) {
    EXPECT_GT(hits[slot], 0u) << "slot " << slot << " never routed";
  }
}

TEST(ServeRouting, DeadWorkerMovesOnlyItsOwnKeys) {
  const HashRing ring(4);
  const std::vector<bool> all(4, true);
  std::vector<bool> without2(4, true);
  without2[2] = false;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "fig_" + std::to_string(i);
    const unsigned before = *ring.Route(key, all);
    const unsigned after = *ring.Route(key, without2);
    if (before != 2) {
      EXPECT_EQ(after, before) << key;  // Survivors keep their caches hot.
    } else {
      EXPECT_NE(after, 2u) << key;  // The dead slot's keys move on.
    }
  }
}

TEST(ServeRouting, NoEligibleSlotRoutesNowhere) {
  const HashRing ring(3);
  EXPECT_FALSE(ring.Route("fig_7", {false, false, false}).has_value());
  const std::optional<unsigned> only = ring.Route("fig_7",
                                                  {false, true, false});
  ASSERT_TRUE(only.has_value());
  EXPECT_EQ(*only, 1u);
}

// ------------------------------------------------------------ result store

TEST(ResultStoreTest, EvictsLatencySamplesBeyondTheWindow) {
  ResultStore store(/*window=*/4);
  for (int i = 0; i < 10; ++i) {
    store.RecordCompleted("fig_91", 0.1 * static_cast<double>(i));
  }
  EXPECT_EQ(store.Completed(), 10u);
  EXPECT_EQ(store.RetainedSamples("fig_91"), 4u);
  const std::vector<FigureLatency> latencies = store.Latencies();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].count, 10u);  // Cumulative, not windowed.
  // Percentiles cover only the four retained samples {0.6 .. 0.9}: the
  // early small latencies were evicted FIFO.
  EXPECT_GE(latencies[0].p50_seconds, 0.6);
  EXPECT_LE(latencies[0].p99_seconds, 0.9 + 1e-12);
}

// ---------------------------------------------------------------- session

TEST(ServeSession, BoundedReadTimesOutAndKeepsPartialInput) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Session reader(fds[0]);
  std::string line;
  EXPECT_EQ(reader.ReadLine(&line, 10), ReadStatus::kTimeout);
  ASSERT_EQ(::send(fds[1], "par", 3, 0), 3);
  EXPECT_EQ(reader.ReadLine(&line, 10), ReadStatus::kTimeout);
  ASSERT_EQ(::send(fds[1], "tial\nnext\n", 10, 0), 10);
  ASSERT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kLine);
  EXPECT_EQ(line, "partial");  // The pre-timeout prefix was kept.
  ASSERT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kLine);
  EXPECT_EQ(line, "next");
  ::close(fds[1]);
  EXPECT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kClosed);
}

// ------------------------------------------------------------ end to end

/// A tiny controllable registry: two deterministic curves that append
/// fixed points, plus a "blocking" figure whose curve waits on a shared
/// gate (for overload tests) — no simulator work, so these tests are
/// fast and timing-independent.
struct TestRegistry {
  std::shared_ptr<std::promise<void>> release =
      std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  std::vector<FigureDef> defs;

  TestRegistry() {
    FigureDef tiny;
    tiny.slug = "fig_91";
    tiny.id = "Fig. 91 — Serve Test";
    tiny.title = "Serve Test";
    tiny.x_label = "x";
    tiny.y_label = "y";
    tiny.paper_claim = "none";
    tiny.what = "serve test fixture";
    tiny.curves.push_back(
        {"alpha", [](report::Figure& figure, const RunOptions& opts) {
           Series& series = figure.set.Get("alpha");
           series.Add(1.0, 10.0);
           if (!opts.quick) series.Add(2.0, 20.0);
         }});
    tiny.curves.push_back(
        {"beta", [](report::Figure& figure, const RunOptions&) {
           figure.set.Get("beta").Add(1.0, 100.0);
           figure.findings.push_back({report::FindingKind::kPlateau,
                                      "beta", "peak", 100.0, "y", ""});
         }});
    defs.push_back(std::move(tiny));

    FigureDef blocking;
    blocking.slug = "fig_92";
    blocking.id = "Fig. 92 — Serve Block Test";
    blocking.title = "Serve Block Test";
    blocking.x_label = "x";
    blocking.y_label = "y";
    blocking.paper_claim = "none";
    blocking.what = "blocks until the test releases it";
    blocking.curves.push_back(
        {"wait", [gate = gate](report::Figure& figure, const RunOptions&) {
           gate.wait();
           figure.set.Get("wait").Add(1.0, 1.0);
         }});
    defs.push_back(std::move(blocking));

    FigureDef failing;
    failing.slug = "fig_93";
    failing.id = "Fig. 93 — Serve Error Test";
    failing.title = "Serve Error Test";
    failing.x_label = "x";
    failing.y_label = "y";
    failing.paper_claim = "none";
    failing.what = "throws mid-sweep";
    failing.curves.push_back(
        {"boom", [](report::Figure&, const RunOptions&) {
           throw ConfigError("synthetic sweep failure");
         }});
    defs.push_back(std::move(failing));
  }
};

// The interrupt contract of the bench binaries: once the token fires,
// Build finishes the running curve and starts no other.
TEST(FigureBuild, CancelDuringCurveZeroKeepsOnlyItsSeries) {
  const TestRegistry registry;
  exec::CancelToken cancel;
  RunOptions opts;
  opts.cancel = &cancel;
  const report::Figure figure = suite::figures::Build(
      registry.defs[0], opts,
      [&](std::size_t index, std::size_t, const std::string&,
          const report::Figure&) {
        if (index == 0) cancel.Cancel();
      });
  ASSERT_EQ(figure.set.All().size(), 1u);
  EXPECT_EQ(figure.set.All().front().Name(), "alpha");
  EXPECT_TRUE(figure.findings.empty());  // Only curve "beta" adds one.
}

TEST(FigureBuild, CancelBeforeBuildYieldsNoSeries) {
  const TestRegistry registry;
  exec::CancelToken cancel;
  cancel.Cancel();
  RunOptions opts;
  opts.cancel = &cancel;
  const report::Figure figure = suite::figures::Build(registry.defs[0], opts);
  EXPECT_TRUE(figure.set.All().empty());
  EXPECT_EQ(figure.id, registry.defs[0].id);
}

/// A figure of `count` curves. Curve i calls `body(i)`, then adds the
/// points (i, 10i + k), k < 4, to its own series from a nested map on
/// opts.executor.
FigureDef CountedFigure(std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  FigureDef def;
  def.slug = "fig_96";
  def.id = "Fig. 96 — Concurrent Build Test";
  def.title = "Concurrent Build Test";
  def.x_label = "x";
  def.y_label = "y";
  def.paper_claim = "none";
  def.what = "curves that run side by side";
  for (std::size_t i = 0; i < count; ++i) {
    def.curves.push_back(
        {"curve " + std::to_string(i),
         [i, body](report::Figure& figure, const RunOptions& opts) {
           body(i);
           const auto ys = exec::ExecutorOrDefault(opts.executor)
                               .Map(4, [i](std::size_t k) {
                                 return static_cast<double>(i * 10 + k);
                               });
           Series& series = figure.set.Get("curve " + std::to_string(i));
           for (const double y : ys) series.Add(static_cast<double>(i), y);
         }});
  }
  return def;
}

// The lowest-index throwing curve's exception leaves Build as it was
// thrown, after the curves before it were emitted.
TEST(FigureBuild, ThrowingCurveSurfacesItsOwnException) {
  const exec::SweepExecutor executor(4);
  const FigureDef def = CountedFigure(4, [](std::size_t i) {
    if (i == 1) throw ConfigError("curve 1 failed");
    if (i == 2) throw std::runtime_error("curve 2 failed");
  });
  RunOptions opts;
  opts.executor = &executor;
  std::vector<std::size_t> emitted;
  try {
    suite::figures::Build(def, opts,
                          [&](std::size_t index, std::size_t,
                              const std::string&, const report::Figure&) {
                            emitted.push_back(index);
                          });
    ADD_FAILURE() << "Build did not throw";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "curve 1 failed");
  }
  EXPECT_EQ(emitted, std::vector<std::size_t>{0});
}

// A Build started inside a pool task, on the same saturated pool, still
// completes, and matches a serial build.
TEST(FigureBuild, BuildInsidePoolTasksCompletes) {
  const FigureDef def = CountedFigure(6, [](std::size_t) {});
  const exec::SweepExecutor serial(1);
  RunOptions opts;
  opts.executor = &serial;
  const std::string expected =
      report::BenchJson(suite::figures::Build(def, opts));
  const exec::SweepExecutor executor(2);
  opts.executor = &executor;
  const std::vector<std::string> docs =
      executor.Map(4, [&](std::size_t) {
        report::Figure figure = suite::figures::Build(def, opts);
        figure.meta.threads = 1;
        return report::BenchJson(figure);
      });
  for (const std::string& doc : docs) EXPECT_EQ(doc, expected);
}

// An on_curve that throws stops the build, but only once every curve
// that had started has finished. Curve 0 is quick, so on_curve(0) throws
// while the first few of the slow later curves still run.
TEST(FigureBuild, ThrowingOnCurveLeavesNoCurveRunning) {
  const exec::SweepExecutor executor(4);
  std::atomic<int> running{0};
  std::atomic<int> started{0};
  const FigureDef def = CountedFigure(16, [&](std::size_t i) {
    ++started;
    ++running;
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    --running;
  });
  RunOptions opts;
  opts.executor = &executor;
  EXPECT_THROW(suite::figures::Build(def, opts,
                                     [](std::size_t, std::size_t,
                                        const std::string&,
                                        const report::Figure&) {
                                       throw ConfigError("on_curve failed");
                                     }),
               ConfigError);
  EXPECT_EQ(running.load(), 0);
  EXPECT_GE(started.load(), 1);
  EXPECT_LT(started.load(), 16);  // Curves not started never start.
}

std::string TestSocketPath(const char* name) {
  std::ostringstream os;
  os << ::testing::TempDir() << "amdmb_test_" << ::getpid() << "_" << name
     << ".sock";
  return os.str();
}

/// Entries in a /proc/<pid>/fd directory: the process's open descriptors.
std::size_t OpenFdCount(const std::string& fd_dir) {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(fd_dir),
                    std::filesystem::directory_iterator()));
}

/// Waits up to 1 s for `fd_dir` to shrink back to `baseline` entries
/// (the last session is reaped on the accept loop's next poll timeout),
/// then returns the final count.
std::size_t SettledFdCount(const std::string& fd_dir, std::size_t baseline) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::size_t count = OpenFdCount(fd_dir);
  while (count > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = OpenFdCount(fd_dir);
  }
  return count;
}

/// VmSize of this process in KiB.
std::uint64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

TEST(ServeServer, EndToEndDoneMatchesDirectBuildByteForByte) {
  TestRegistry registry;
  registry.release->set_value();  // Nothing should block in this test.
  ServerConfig config;
  config.socket_path = TestSocketPath("bytes");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  RunOptions opts;
  opts.quick = true;
  const std::string expected =
      report::BenchJson(suite::figures::Build(registry.defs[0], opts));

  Client client = Client::Connect(config.socket_path);
  std::vector<EventType> streamed;
  const Event done =
      client.Submit("fig_91", /*quick=*/true, /*priority=*/0,
                    [&](const Event& event) { streamed.push_back(event.type); });
  ASSERT_EQ(done.type, EventType::kDone);
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);
  // accepted, one progress + one point per curve.
  EXPECT_EQ(streamed,
            (std::vector<EventType>{EventType::kAccepted, EventType::kProgress,
                                    EventType::kPoint, EventType::kProgress,
                                    EventType::kPoint}));
  server.Drain();
}

TEST(ServeServer, QuickFlagComesFromTheRequestNotTheEnvironment) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("quick");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event quick = client.Submit("fig_91", true, 0);
  const Event full = client.Submit("fig_91", false, 0);
  ASSERT_EQ(quick.type, EventType::kDone);
  ASSERT_EQ(full.type, EventType::kDone);
  const std::string quick_json = quick.body.StringOr("figure_json", "");
  const std::string full_json = full.body.StringOr("figure_json", "");
  EXPECT_NE(quick_json, full_json);  // The full sweep has an extra point.
  EXPECT_NE(quick_json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(full_json.find("\"quick\": false"), std::string::npos);
  server.Drain();
}

TEST(ServeServer, AdaptiveSubmitStreamsRefineEventsAndMatchesDirectBuild) {
  // Real registry: the synthetic test figures ignore opts.adaptive, so
  // this runs the smallest real figure adaptively at quick scale.
  ServerConfig config;
  config.socket_path = TestSocketPath("adaptive");
  Server server(config);
  server.Start();

  adapt::Settings settings;  // Matches the daemon's env-default snapshot.
  RunOptions opts;
  opts.quick = true;
  opts.adaptive = &settings;
  const suite::figures::FigureDef* def = suite::figures::Find("fig_7");
  ASSERT_NE(def, nullptr);
  const std::string expected =
      report::BenchJson(suite::figures::Build(*def, opts));

  Client client = Client::Connect(config.socket_path);
  std::size_t refines = 0;
  const Event done = client.Submit(
      "fig_7", /*quick=*/true, /*adaptive=*/true, /*priority=*/0,
      [&](const Event& event) {
        if (event.type == EventType::kRefine) {
          ++refines;
          EXPECT_FALSE(event.body.StringOr("curve", "").empty());
          EXPECT_GT(event.body.NumberOr("dense", 0.0), 0.0);
        }
      });
  ASSERT_EQ(done.type, EventType::kDone);
  // Served adaptive documents are byte-identical to a direct adaptive
  // build, and the stream carried at least one refine wave per curve.
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);
  EXPECT_GE(refines, def->curves.size());
  EXPECT_NE(done.body.StringOr("figure_json", "").find("\"adaptive\": true"),
            std::string::npos);

  // A dense submit through the same daemon stays dense.
  const Event dense = client.Submit("fig_7", true, 0);
  ASSERT_EQ(dense.type, EventType::kDone);
  EXPECT_EQ(dense.body.StringOr("figure_json", "").find("\"adaptive\""),
            std::string::npos);
  server.Drain();
}

TEST(ServeServer, UnknownFigureIsRejectedWithoutSideEffects) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("unknown");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event rejected = client.Submit("fig_404", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "unknown_figure");
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 0u);
  server.Drain();
}

TEST(ServeServer, SweepErrorIsReportedNotFatal) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("error");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event error = client.Submit("fig_93", true, 0);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_NE(error.body.StringOr("message", "").find("synthetic"),
            std::string::npos);
  // The daemon survives: the next request on the same session works.
  const Event done = client.Submit("fig_91", true, 0);
  EXPECT_EQ(done.type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  server.Drain();
}

TEST(ServeServer, ThirdRequestOverloadsAOneDeepQueue) {
  TestRegistry registry;
  ServerConfig config;
  config.socket_path = TestSocketPath("overload");
  config.max_queue = 1;
  config.max_inflight = 1;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  // Separate sessions so the rejected submit is not stuck behind the
  // first one's event stream.
  Client first = Client::Connect(config.socket_path);
  Client second = Client::Connect(config.socket_path);
  Client third = Client::Connect(config.socket_path);

  std::promise<void> first_accepted;
  std::thread first_thread([&] {
    first.Submit("fig_92", true, 0, [&](const Event& event) {
      if (event.type == EventType::kAccepted) first_accepted.set_value();
    });
  });
  first_accepted.get_future().wait();  // In flight, blocked on the gate.

  std::promise<void> second_accepted;
  std::thread second_thread([&] {
    second.Submit("fig_92", true, 0, [&](const Event& event) {
      if (event.type == EventType::kAccepted) second_accepted.set_value();
    });
  });
  second_accepted.get_future().wait();  // Queued: capacity is now full.

  const Event rejected = third.Submit("fig_92", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "overloaded");

  registry.release->set_value();
  first_thread.join();
  second_thread.join();
  const ServeStats stats = third.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  server.Drain();
}

TEST(ServeServer, DrainRejectsNewSubmitsAndReportsCompleted) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("drain");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  EXPECT_FALSE(server.DrainRequested());
  EXPECT_EQ(client.Drain(), 1u);  // One request had completed.
  EXPECT_TRUE(server.DrainRequested());

  const Event rejected = client.Submit("fig_91", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "draining");
  server.Drain();
}

/// Projects an event stream onto its deterministic fields (wall-clock
/// seconds and cache totals vary run to run; everything else must not).
std::vector<std::string> DeterministicProjection(
    const std::vector<Event>& events) {
  std::vector<std::string> out;
  for (const Event& event : events) {
    std::ostringstream os;
    os << ToString(event.type);
    switch (event.type) {
      case EventType::kAccepted:
        os << " " << event.body.StringOr("figure", "");
        break;
      case EventType::kProgress:
        os << " " << event.body.NumberOr("index", -1.0) << "/"
           << event.body.NumberOr("count", -1.0) << " "
           << event.body.StringOr("curve", "");
        break;
      case EventType::kPoint:
        os << " " << event.body.StringOr("curve", "") << " "
           << event.body.NumberOr("x", 0.0) << " "
           << event.body.NumberOr("y", 0.0);
        break;
      case EventType::kDone:
        os << " " << event.body.StringOr("figure", "") << " "
           << event.body.StringOr("figure_json", "");
        break;
      default:
        break;
    }
    out.push_back(os.str());
  }
  return out;
}

TEST(ServeServer, EventStreamIsDeterministicAcrossRuns) {
  // Same request sequence, serial execution (inflight 1, concurrency 1)
  // → identical event streams modulo wall-clock fields, across two
  // independent daemon instances.
  const auto run = [](const char* tag) {
    TestRegistry registry;
    registry.release->set_value();
    ServerConfig config;
    config.socket_path = TestSocketPath(tag);
    config.max_inflight = 1;
    config.registry = &registry.defs;
    Server server(config);
    server.Start();
    Client client = Client::Connect(config.socket_path);
    std::vector<Event> events;
    for (const bool quick : {true, false, true}) {
      const Event done = client.Submit(
          "fig_91", quick, 0,
          [&](const Event& event) { events.push_back(event); });
      events.push_back(done);
    }
    server.Drain();
    return DeterministicProjection(events);
  };
  EXPECT_EQ(run("det_a"), run("det_b"));
}

TEST(ServeServer, StatsReportCountsAndLimits) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("stats");
  config.max_queue = 5;
  config.max_inflight = 2;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_FALSE(stats.version.empty());
  EXPECT_EQ(stats.max_queue, 5u);
  EXPECT_EQ(stats.max_inflight, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  ASSERT_EQ(stats.latencies.size(), 1u);
  EXPECT_EQ(stats.latencies[0].figure, "fig_91");
  EXPECT_EQ(stats.latencies[0].count, 2u);
  EXPECT_LE(stats.latencies[0].p50_seconds, stats.latencies[0].p99_seconds);
  server.Drain();
}

// The drained count is read like every other reply count: a value that
// is not a whole number in range is a ConfigError naming the key.
TEST(ServeProtocol, DrainRejectsACompletedCountOutOfRange) {
  const std::string path = TestSocketPath("drain_count");
  const int listener = MakeListenSocket(path);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    Session session(fd);
    std::string request;
    if (session.ReadLine(&request, 5000) == ReadStatus::kLine) {
      session.WriteLine(R"({"event":"drained","completed":1e30})");
    }
  });
  Client client = Client::Connect(path);
  try {
    client.Drain();
    ADD_FAILURE() << "Drain accepted completed = 1e30";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("completed"), std::string::npos)
        << e.what();
  }
  peer.join();
  ::close(listener);
  std::remove(path.c_str());
}

// A request stops counting as in flight before its done event is
// written, so stats read right after done never still count it.
TEST(ServeServer, StatsAfterDoneCountNothingInFlight) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("stats_after_done");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
    const ServeStats stats = client.Stats();
    EXPECT_EQ(stats.in_flight, 0u) << "after submit " << i;
    EXPECT_EQ(stats.completed, i);
  }
  server.Drain();
}

TEST(ServeServer, LoadGeneratorIsDeterministicAndCompletes) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("loadgen");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  LoadGenOptions options;
  options.socket_path = config.socket_path;
  options.requests = 6;
  options.concurrency = 2;
  options.seed = 42;
  options.figures = {"fig_91"};
  const LoadGenReport report = RunLoadGenerator(options);
  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_LE(report.p50_seconds, report.p99_seconds);
  server.Drain();
}

TEST(ServeServer, SequentialConnectionsAreReaped) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("reap");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  // One round trip first, so state built on first use is in the baseline.
  ASSERT_FALSE(Client::Connect(config.socket_path).Stats().version.empty());

  const std::size_t fds_before = OpenFdCount("/proc/self/fd");
  const std::uint64_t vm_before = VmSizeKib();
  for (int i = 0; i < 10000; ++i) {
    Client client = Client::Connect(config.socket_path);
    ASSERT_FALSE(client.Stats().version.empty()) << "connection " << i;
  }
  // A leaked session costs one fd and one thread stack per connection.
  EXPECT_LE(SettledFdCount("/proc/self/fd", fds_before), fds_before + 16);
  EXPECT_LT(VmSizeKib(), vm_before + (1u << 20));  // 1 GiB.
  server.Drain();
}

TEST(ServeClient, ConnectToMissingSocketIsATypedError) {
  EXPECT_THROW(Client::Connect(TestSocketPath("nobody_listens")),
               ConfigError);
}

TEST(ServeClient, ConnectRetriesRideOutALateBindingDaemon) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("late_bind");
  config.registry = &registry.defs;
  Server server(config);
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    server.Start();
  });
  // The fail-fast default would throw here; retries (50 ms backoff,
  // doubling, 1 s cap) ride out the bind race.
  Client client = Client::Connect(config.socket_path, /*retries=*/8);
  starter.join();
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

TEST(ServeClient, KillWorkerAgainstSingleProcessDaemonIsATypedError) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kill_solo");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  Client client = Client::Connect(config.socket_path);
  try {
    client.KillWorker(0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("does not supervise"),
              std::string::npos);
  }
  server.Drain();
}

// -------------------------------------------------------- socket hygiene

TEST(ServeNet, StaleSocketFileIsRecoveredOnStartup) {
  const std::string path = TestSocketPath("stale");
  // A crashed daemon leaves its socket file behind: bind, then close
  // the descriptor without unlinking the path.
  const int crashed = MakeListenSocket(path);
  ASSERT_GE(crashed, 0);
  ::close(crashed);
  // The next daemon probes the file, finds no listener, and rebinds.
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = path;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  Client client = Client::Connect(path);
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

TEST(ServeNet, LiveDaemonSocketIsNeverStolen) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("live");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  try {
    MakeListenSocket(config.socket_path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("live daemon"), std::string::npos);
  }
  // The incumbent is unharmed by the refused takeover.
  Client client = Client::Connect(config.socket_path);
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

// ------------------------------------------------------- protocol limits

TEST(ServeServer, MalformedRequestLineGetsTypedProtocolError) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("badline");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  Session raw(fd);
  ASSERT_TRUE(raw.WriteLine("this is not json"));
  std::string line;
  ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
  const Event error = ParseEvent(line);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
  // One garbage line does not poison the session.
  ASSERT_TRUE(raw.WriteLine(R"({"op":"stats"})"));
  ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
  EXPECT_EQ(ParseEvent(line).type, EventType::kStats);
  // A number JSON forbids is garbage too.
  ASSERT_TRUE(
      raw.WriteLine(R"({"op":"submit","figure":"fig_7","priority":+1})"));
  ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
  EXPECT_EQ(ParseEvent(line).body.StringOr("kind", ""), "protocol_error");
  server.Drain();
}

// A short line of nested brackets must not recurse the parser off the
// stack: the session gets a protocol_error and keeps serving.
TEST(ServeServer, DeeplyNestedRequestLineGetsTypedProtocolError) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("deepline");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  Session raw(fd);
  ASSERT_TRUE(raw.WriteLine(std::string(100000, '[')));
  std::string line;
  ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
  const Event error = ParseEvent(line);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
  EXPECT_NE(error.body.StringOr("message", "").find("nesting"),
            std::string::npos);
  ASSERT_TRUE(raw.WriteLine(R"({"op":"stats"})"));
  ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
  EXPECT_EQ(ParseEvent(line).type, EventType::kStats);
  server.Drain();
}

TEST(ServeServer, OversizedRequestLineGetsTypedErrorThenClose) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("oversize");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  // Stream one unterminated line past the bound. The daemon stops
  // reading at the cap and answers, so late sends may fail — that is
  // fine (MSG_NOSIGNAL keeps the failure an errno, not a SIGPIPE).
  const std::string chunk(1u << 16, 'x');
  std::size_t sent = 0;
  while (sent <= kMaxLineBytes) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  Session raw(fd);
  std::string line;
  ASSERT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kLine);
  const Event error = ParseEvent(line);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
  EXPECT_NE(error.body.StringOr("message", "").find("exceeds"),
            std::string::npos);
  // The daemon hangs up after the typed error.
  EXPECT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kClosed);
  server.Drain();
}

TEST(ServeServer, DrainWaitsForInFlightSweeps) {
  TestRegistry registry;
  ServerConfig config;
  config.socket_path = TestSocketPath("drain_inflight");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client submitter = Client::Connect(config.socket_path);
  Client drainer = Client::Connect(config.socket_path);
  std::promise<void> accepted;
  std::thread submit_thread([&] {
    const Event done = submitter.Submit(
        "fig_92", true, 0, [&](const Event& event) {
          if (event.type == EventType::kAccepted) accepted.set_value();
        });
    EXPECT_EQ(done.type, EventType::kDone);
  });
  accepted.get_future().wait();  // The sweep is in flight, gated.

  std::atomic<bool> drained{false};
  std::thread drain_thread([&] {
    EXPECT_EQ(drainer.Drain(), 1u);  // Blocks until the sweep finishes.
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());  // Still waiting on the in-flight sweep.
  registry.release->set_value();
  drain_thread.join();
  EXPECT_TRUE(drained.load());
  submit_thread.join();
  server.Drain();
}

// -------------------------------------------------------------- fleet e2e

/// Cross-process gating for fleet tests: a forked worker cannot share an
/// in-memory promise with the test, so gated curves poll for a marker
/// file instead. Bounded, so an orphaned worker can never hang a drain
/// forever.
bool WaitForFile(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::access(path.c_str(), F_OK) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void TouchFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  Require(file != nullptr, "TouchFile: fopen(" + path + ") failed");
  std::fclose(file);
}

std::string TestGatePath(const char* name) {
  std::ostringstream os;
  os << ::testing::TempDir() << "amdmb_gate_" << ::getpid() << "_" << name;
  return os.str();
}

/// Figures for the fleet tests:
///   fig_94 — instant single curve (routing / stats / chaos fodder).
///   fig_95 — one gated curve: streams nothing until the gate file
///            exists, so losing its worker early is failover-eligible
///            (zero sweep events forwarded).
///   fig_96 — an instant curve then a gated one: the request has
///            streamed by the time it blocks, so losing its worker is a
///            terminal worker_lost.
struct FleetRegistry {
  std::vector<FigureDef> defs;

  explicit FleetRegistry(const std::string& gate_path) {
    const auto make = [](const char* slug, const char* id) {
      FigureDef def;
      def.slug = slug;
      def.id = id;
      def.title = id;
      def.x_label = "x";
      def.y_label = "y";
      def.paper_claim = "none";
      def.what = "fleet test fixture";
      return def;
    };
    FigureDef instant = make("fig_94", "Fig. 94 — Fleet Instant");
    instant.curves.push_back(
        {"alpha", [](report::Figure& figure, const RunOptions&) {
           figure.set.Get("alpha").Add(1.0, 10.0);
         }});
    defs.push_back(std::move(instant));

    FigureDef gated = make("fig_95", "Fig. 95 — Fleet Gated");
    gated.curves.push_back(
        {"wait", [gate_path](report::Figure& figure, const RunOptions&) {
           if (!WaitForFile(gate_path, 30000)) {
             throw ConfigError("fleet gate file never appeared");
           }
           figure.set.Get("wait").Add(1.0, 1.0);
         }});
    defs.push_back(std::move(gated));

    FigureDef streaming = make("fig_96", "Fig. 96 — Fleet Stream");
    streaming.curves.push_back(
        {"head", [](report::Figure& figure, const RunOptions&) {
           figure.set.Get("head").Add(1.0, 2.0);
         }});
    streaming.curves.push_back(
        {"tail", [gate_path](report::Figure& figure, const RunOptions&) {
           if (!WaitForFile(gate_path, 30000)) {
             throw ConfigError("fleet gate file never appeared");
           }
           figure.set.Get("tail").Add(1.0, 3.0);
         }});
    defs.push_back(std::move(streaming));
  }
};

SupervisorConfig FleetConfig(const char* tag, const FleetRegistry& registry,
                             unsigned workers) {
  SupervisorConfig config;
  config.socket_path = TestSocketPath(tag);
  config.workers = workers;
  config.registry = &registry.defs;
  config.health.heartbeat_ms = 50;
  config.health.miss_threshold = 3;
  config.health.backoff_base_ms = 10.0;
  config.health.backoff_cap_ms = 50.0;
  return config;
}

/// Polls the daemon's stats until `pred` holds or the budget expires;
/// returns the last snapshot either way (the test's own EXPECTs then
/// produce the real failure message).
ServeStats AwaitStats(Client& client,
                      const std::function<bool(const ServeStats&)>& pred,
                      int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  ServeStats stats = client.Stats();
  while (!pred(stats) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = client.Stats();
  }
  return stats;
}

bool AllWorkersHealthy(const ServeStats& stats, unsigned workers) {
  if (stats.workers.size() != workers) return false;
  for (const WorkerStatus& worker : stats.workers) {
    if (worker.state != "healthy") return false;
  }
  return true;
}

TEST(ServeFleet, ServesAcrossWorkersAndAggregatesStats) {
  FleetRegistry registry(TestGatePath("fleet_stats"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_stats", registry, 2);
  config.worker_queue = 4;
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  const ServeStats healthy = AwaitStats(client, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 2);
  });
  ASSERT_TRUE(AllWorkersHealthy(healthy, 2));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.Submit("fig_94", true, 0).type, EventType::kDone);
  }
  const ServeStats stats = client.Stats();
  EXPECT_FALSE(stats.version.empty());
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.max_queue, 8u);     // worker_queue x workers.
  EXPECT_EQ(stats.max_inflight, 2u);  // worker_inflight x workers.
  ASSERT_EQ(stats.workers.size(), 2u);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(stats.workers[i].index, i);
    EXPECT_GT(stats.workers[i].pid, 0);
    EXPECT_EQ(stats.workers[i].outstanding, 0u);
    EXPECT_GE(stats.workers[i].generation, 1u);
  }
  ASSERT_EQ(stats.latencies.size(), 1u);
  EXPECT_EQ(stats.latencies[0].figure, "fig_94");
  EXPECT_EQ(stats.latencies[0].count, 3u);
  supervisor.Drain();
}

TEST(ServeFleet, DeadlineExpiryYieldsTypedDeadlineExceeded) {
  const std::string gate = TestGatePath("fleet_deadline");
  ::unlink(gate.c_str());
  FleetRegistry registry(gate);
  SupervisorConfig config = FleetConfig("fleet_deadline", registry, 2);
  config.deadline_ms = 150;
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  AwaitStats(client, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 2);
  });
  double accepted_request = -1.0;
  const Event terminal =
      client.Submit("fig_95", true, 0, [&](const Event& event) {
        if (event.type == EventType::kAccepted) {
          accepted_request = event.body.NumberOr("request", -1.0);
        }
      });
  ASSERT_EQ(terminal.type, EventType::kError);
  EXPECT_EQ(terminal.body.StringOr("kind", ""), "deadline_exceeded");
  EXPECT_NE(terminal.body.StringOr("message", "").find("150"),
            std::string::npos);
  // The synthesized error names the request the client was accepted as.
  EXPECT_GE(accepted_request, 1.0);
  EXPECT_EQ(terminal.body.NumberOr("request", -1.0), accepted_request);
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  TouchFile(gate);  // Unblock the abandoned sweep so the drain is fast.
  supervisor.Drain();
  ::unlink(gate.c_str());
}

TEST(ServeFleet, WorkerLossBeforeStreamingFailsOverToAnotherWorker) {
  const std::string gate = TestGatePath("fleet_failover");
  ::unlink(gate.c_str());
  FleetRegistry registry(gate);
  SupervisorConfig config = FleetConfig("fleet_failover", registry, 3);
  Supervisor supervisor(config);
  supervisor.Start();
  Client control = Client::Connect(config.socket_path);
  AwaitStats(control, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 3);
  });
  // The supervisor routes by consistent hash on the normalized slug;
  // compute the doomed worker the same way it does.
  const unsigned target =
      *HashRing(config.workers).Route(NormalizeSlug("fig_95"));

  Client submitter = Client::Connect(config.socket_path);
  std::vector<Event> events;
  std::promise<void> accepted;
  std::thread submit_thread([&] {
    const Event terminal = submitter.Submit(
        "fig_95", true, 0, [&](const Event& event) {
          events.push_back(event);
          if (event.type == EventType::kAccepted) accepted.set_value();
        });
    events.push_back(terminal);
  });
  accepted.get_future().wait();  // Routed and accepted; nothing streamed.
  control.KillWorker(target);
  // The failover worker picks the request up and blocks on the same
  // gate; release it now that the target is gone.
  TouchFile(gate);
  submit_thread.join();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, EventType::kDone);
  // Exactly-once to the client: a single accepted despite the retry.
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const Event& event) {
                            return event.type == EventType::kAccepted;
                          }),
            1);
  // The health loop reaps the corpse and respawns the slot.
  const ServeStats stats = AwaitStats(control, [&](const ServeStats& s) {
    return s.workers.size() == 3 && s.workers[target].restarts >= 1 &&
           s.workers[target].state == "healthy";
  });
  ASSERT_EQ(stats.workers.size(), 3u);
  EXPECT_GE(stats.workers[target].restarts, 1u);
  EXPECT_GE(stats.workers[target].generation, 2u);
  supervisor.Drain();
  ::unlink(gate.c_str());
}

TEST(ServeFleet, WorkerLossMidStreamIsTypedWorkerLost) {
  const std::string gate = TestGatePath("fleet_lost");
  ::unlink(gate.c_str());
  FleetRegistry registry(gate);
  SupervisorConfig config = FleetConfig("fleet_lost", registry, 2);
  Supervisor supervisor(config);
  supervisor.Start();
  Client control = Client::Connect(config.socket_path);
  AwaitStats(control, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 2);
  });
  const unsigned target =
      *HashRing(config.workers).Route(NormalizeSlug("fig_96"));

  Client submitter = Client::Connect(config.socket_path);
  Event terminal;
  double accepted_request = -1.0;
  std::promise<void> streamed;
  std::once_flag streamed_once;
  std::thread submit_thread([&] {
    terminal = submitter.Submit(
        "fig_96", true, 0, [&](const Event& event) {
          if (event.type == EventType::kAccepted) {
            accepted_request = event.body.NumberOr("request", -1.0);
          }
          if (event.type == EventType::kPoint) {
            std::call_once(streamed_once, [&] { streamed.set_value(); });
          }
        });
  });
  streamed.get_future().wait();  // The head curve streamed; tail blocks.
  control.KillWorker(target);
  submit_thread.join();
  // Re-running could double-report the already-streamed points, so the
  // request must terminate as worker_lost instead of failing over.
  ASSERT_EQ(terminal.type, EventType::kError);
  EXPECT_EQ(terminal.body.StringOr("kind", ""), "worker_lost");
  EXPECT_NE(terminal.body.StringOr("message", "")
                .find(std::to_string(target)),
            std::string::npos);
  EXPECT_GE(accepted_request, 1.0);
  EXPECT_EQ(terminal.body.NumberOr("request", -1.0), accepted_request);
  EXPECT_GE(control.Stats().failed, 1u);
  supervisor.Drain();
  ::unlink(gate.c_str());
}

TEST(ServeFleet, BackpressureVerdictIsOverloadedWhenWorkersAreFull) {
  const std::string gate = TestGatePath("fleet_busy");
  ::unlink(gate.c_str());
  FleetRegistry registry(gate);
  SupervisorConfig config = FleetConfig("fleet_busy", registry, 1);
  config.worker_queue = 0;
  config.worker_inflight = 1;  // Cluster capacity: exactly one request.
  Supervisor supervisor(config);
  supervisor.Start();
  Client control = Client::Connect(config.socket_path);
  AwaitStats(control, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 1);
  });

  Client first = Client::Connect(config.socket_path);
  std::promise<void> accepted;
  std::thread first_thread([&] {
    const Event done = first.Submit(
        "fig_95", true, 0, [&](const Event& event) {
          if (event.type == EventType::kAccepted) accepted.set_value();
        });
    EXPECT_EQ(done.type, EventType::kDone);
  });
  accepted.get_future().wait();  // The one slot is occupied and gated.

  Client second = Client::Connect(config.socket_path);
  const Event rejected = second.Submit("fig_95", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "overloaded");

  TouchFile(gate);
  first_thread.join();
  EXPECT_EQ(control.Stats().rejected, 1u);
  supervisor.Drain();
  ::unlink(gate.c_str());
}

TEST(ServeFleet, NoLiveWorkerYieldsUnavailable) {
  FleetRegistry registry(TestGatePath("fleet_down"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_down", registry, 1);
  config.health.backoff_base_ms = 60000.0;  // No respawn within the test.
  config.health.backoff_cap_ms = 60000.0;
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  AwaitStats(client, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 1);
  });
  client.KillWorker(0);
  // Wait until the health loop has reaped the corpse.
  const ServeStats stats = AwaitStats(client, [](const ServeStats& s) {
    return !s.workers.empty() && s.workers[0].state == "dead";
  });
  ASSERT_FALSE(stats.workers.empty());
  EXPECT_EQ(stats.workers[0].state, "dead");
  EXPECT_EQ(stats.workers[0].pid, -1);
  const Event rejected = client.Submit("fig_94", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "unavailable");
  supervisor.Drain();
  // The killed worker never unlinked its socket; the drain must.
  EXPECT_FALSE(std::filesystem::exists(config.socket_path + ".w0"));
}

TEST(ServeFleet, ForwardedRequestsDoNotAccumulateWorkerSessions) {
  FleetRegistry registry(TestGatePath("fleet_reap"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_reap", registry, 1);
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  const ServeStats healthy = AwaitStats(client, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 1);
  });
  ASSERT_TRUE(AllWorkersHealthy(healthy, 1));
  const std::string worker_fds =
      "/proc/" + std::to_string(healthy.workers[0].pid) + "/fd";

  const std::size_t fds_before = OpenFdCount(worker_fds);
  // Each request is forwarded on a fresh worker connection, and the
  // worker's intake rejects it.
  for (int i = 0; i < 500; ++i) {
    const Event rejected = client.Characterize("garbage\n", true, 0);
    ASSERT_EQ(rejected.type, EventType::kRejected) << "request " << i;
  }
  EXPECT_LE(SettledFdCount(worker_fds, fds_before), fds_before + 16);
  supervisor.Drain();
}

TEST(ServeFleet, KillWorkerValidatesTheIndex) {
  FleetRegistry registry(TestGatePath("fleet_kill_idx"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_kill_idx", registry, 2);
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  try {
    client.KillWorker(7);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("no worker 7"), std::string::npos);
  }
  supervisor.Drain();
}

TEST(ServeFleet, ChaosLoadGenTerminatesEveryRequestWithATypedOutcome) {
  FleetRegistry registry(TestGatePath("fleet_chaos"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_chaos", registry, 2);
  Supervisor supervisor(config);
  supervisor.Start();
  Client control = Client::Connect(config.socket_path);
  AwaitStats(control, [](const ServeStats& s) {
    return AllWorkersHealthy(s, 2);
  });

  LoadGenOptions options;
  options.socket_path = config.socket_path;
  options.requests = 8;
  options.concurrency = 2;
  options.seed = 7;
  options.figures = {"fig_94"};
  options.kill_workers = 1;
  options.connect_retries = 2;
  const LoadGenReport report = RunLoadGenerator(options);
  EXPECT_EQ(report.requests, 8u);
  EXPECT_EQ(report.kills, 1u);
  // Exactly-once terminals: nothing lost, nothing counted twice.
  EXPECT_EQ(report.completed + report.rejected + report.failed,
            report.requests);
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.availability, 0.0);
  EXPECT_NE(report.Render().find("chaos"), std::string::npos);
  supervisor.Drain();
}

/// Searches seeds for a fault schedule in which `site` fires for worker
/// `target` at exactly one heartbeat seq in [min_seq, max_seq] and for
/// nobody else anywhere in [1, horizon] — so a chaos test gets exactly
/// one seeded kill and a quiet fleet otherwise. Deterministic: the
/// schedule is a pure function of (seed, site, key), so the found seed
/// replays identically inside the forked workers.
std::uint64_t FindSoloFaultSeed(fault::FaultSite site, unsigned workers,
                                unsigned target, std::uint64_t min_seq,
                                std::uint64_t max_seq, std::uint64_t horizon,
                                std::uint64_t* fired_seq_out) {
  constexpr double kProb = 0.002;
  for (std::uint64_t seed = 1; seed <= 500000; ++seed) {
    fault::FaultSpec spec;
    if (site == fault::FaultSite::kWorkerCrash) {
      spec.worker_crash = kProb;
    } else {
      spec.worker_hang = kProb;
    }
    spec.seed = seed;
    const fault::FaultInjector injector(spec);
    std::uint64_t fired_seq = 0;
    bool clean = true;
    for (unsigned w = 0; w < workers && clean; ++w) {
      for (std::uint64_t s = 1; s <= horizon && clean; ++s) {
        std::string key = "w";
        key += std::to_string(w);
        key += '#';
        key += std::to_string(s);
        if (!injector.ShouldFail(site, key)) continue;
        if (w == target && fired_seq == 0 && s >= min_seq && s <= max_seq) {
          fired_seq = s;
        } else {
          clean = false;
        }
      }
    }
    if (clean && fired_seq != 0) {
      *fired_seq_out = fired_seq;
      return seed;
    }
  }
  throw ConfigError("FindSoloFaultSeed: no seed in the search budget");
}

TEST(ServeFleet, SeededHangIsDetectedKilledAndRestarted) {
  std::uint64_t hang_seq = 0;
  const std::uint64_t seed = FindSoloFaultSeed(
      fault::FaultSite::kWorkerHang, /*workers=*/1, /*target=*/0,
      /*min_seq=*/2, /*max_seq=*/8, /*horizon=*/400, &hang_seq);
  fault::FaultSpec spec;
  spec.worker_hang = 0.002;
  spec.seed = seed;
  fault::ScopedFaultInjector injector(spec);

  FleetRegistry registry(TestGatePath("fleet_hang"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_hang", registry, 1);
  config.health.miss_threshold = 2;
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  // The worker inherits the injector across fork and stops answering at
  // heartbeat `hang_seq`; the supervisor must miss, declare it dead,
  // SIGKILL it, and respawn the slot.
  const ServeStats stats = AwaitStats(client, [](const ServeStats& s) {
    return !s.workers.empty() && s.workers[0].restarts >= 1 &&
           s.workers[0].state == "healthy";
  });
  ASSERT_FALSE(stats.workers.empty());
  EXPECT_GE(stats.workers[0].restarts, 1u);
  EXPECT_GE(stats.workers[0].generation, 2u);
  // The respawned worker serves requests again.
  EXPECT_EQ(client.Submit("fig_94", true, 0).type, EventType::kDone);
  supervisor.Drain();
}

TEST(ServeFleet, SeededCrashScenarioIsDeterministicAcrossRuns) {
  // The acceptance scenario: a three-worker fleet under a seeded fault
  // schedule that kills exactly one worker while a request is in
  // flight. The fleet must restart it, every request must end in a
  // typed terminal event, and the same seed must replay the identical
  // event sequence across two independent runs.
  const unsigned kWorkers = 3;
  const unsigned target = *HashRing(kWorkers).Route(NormalizeSlug("fig_95"));
  std::uint64_t crash_seq = 0;
  const std::uint64_t seed = FindSoloFaultSeed(
      fault::FaultSite::kWorkerCrash, kWorkers, target,
      /*min_seq=*/4, /*max_seq=*/10, /*horizon=*/400, &crash_seq);

  struct RunResult {
    std::vector<std::string> projection;
    std::vector<EventType> terminals;
    unsigned restarts = 0;
  };
  const auto run = [&](const char* tag) {
    fault::FaultSpec spec;
    spec.worker_crash = 0.002;
    spec.seed = seed;
    fault::ScopedFaultInjector injector(spec);
    const std::string gate = TestGatePath(tag);
    ::unlink(gate.c_str());
    FleetRegistry registry(gate);
    SupervisorConfig config = FleetConfig(tag, registry, kWorkers);
    Supervisor supervisor(config);
    supervisor.Start();
    Client control = Client::Connect(config.socket_path);
    AwaitStats(control, [&](const ServeStats& s) {
      return AllWorkersHealthy(s, kWorkers);
    });
    // In flight before the seeded crash: the gated figure routes to the
    // doomed worker and streams nothing until the gate file exists, so
    // the crash triggers a clean failover.
    Client submitter = Client::Connect(config.socket_path);
    std::vector<Event> gated_events;
    std::thread submit_thread([&] {
      const Event terminal = submitter.Submit(
          "fig_95", true, 0,
          [&](const Event& event) { gated_events.push_back(event); });
      gated_events.push_back(terminal);
    });
    // The crash fires at heartbeat `crash_seq`; wait out the restart.
    const ServeStats after = AwaitStats(control, [&](const ServeStats& s) {
      return s.workers.size() == kWorkers &&
             s.workers[target].restarts >= 1 &&
             s.workers[target].state == "healthy";
    });
    TouchFile(gate);  // Release the failover worker.
    submit_thread.join();
    RunResult result;
    result.restarts =
        after.workers.size() == kWorkers ? after.workers[target].restarts
                                         : 0;
    EXPECT_EQ(std::count_if(gated_events.begin(), gated_events.end(),
                            [](const Event& event) {
                              return event.type == EventType::kAccepted;
                            }),
              1);
    result.terminals.push_back(gated_events.back().type);
    for (std::string& line : DeterministicProjection(gated_events)) {
      result.projection.push_back(std::move(line));
    }
    // A little follow-up load on the recovered fleet.
    for (const bool quick : {true, false}) {
      std::vector<Event> events;
      const Event terminal = control.Submit(
          "fig_94", quick, 0,
          [&](const Event& event) { events.push_back(event); });
      events.push_back(terminal);
      result.terminals.push_back(terminal.type);
      for (std::string& line : DeterministicProjection(events)) {
        result.projection.push_back(std::move(line));
      }
    }
    supervisor.Drain();
    ::unlink(gate.c_str());
    return result;
  };

  const RunResult a = run("chaos_a");
  const RunResult b = run("chaos_b");
  // Every request ended in a typed terminal event — here all done: the
  // gated request failed over before streaming, the follow-ups ran on a
  // recovered fleet.
  for (const EventType type : a.terminals) {
    EXPECT_EQ(type, EventType::kDone);
  }
  EXPECT_EQ(a.terminals.size(), 3u);
  // The seeded kill really happened and the slot was restarted...
  EXPECT_GE(a.restarts, 1u);
  EXPECT_GE(b.restarts, 1u);
  // ...and the same seed replays the identical event sequence.
  EXPECT_EQ(a.projection, b.projection);
}

// ------------------------------------------------------------ characterize

// A pixel kernel that passes intake; one curve per architecture.
constexpr char kServeIl[] =
    "il_ps_2_0 ; serve_probe\n"
    "; type=Float read=Texture write=Stream\n"
    "dcl_input i0\n"
    "dcl_output o0\n"
    "  sample    r0, i0\n"
    "  mov       r1, r0\n"
    "  export    o0, r1\n"
    "end\n";

TEST(ServeProtocol, CharacterizeRequestRoundTrips) {
  Request request;
  request.op = Request::Op::kCharacterize;
  request.il = kServeIl;
  request.quick = true;
  request.priority = 1;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_EQ(back.op, Request::Op::kCharacterize);
  EXPECT_EQ(back.il, kServeIl);  // Newlines survive the JSON escaping.
  EXPECT_TRUE(back.quick);
  EXPECT_EQ(back.priority, 1);
  // A characterize without kernel text has nothing to analyze.
  EXPECT_THROW(ParseRequest(R"({"op":"characterize"})"), ConfigError);
  EXPECT_THROW(ParseRequest(R"({"op":"characterize","il":""})"),
               ConfigError);
}

TEST(ServeProtocol, StaticEventRoundTrips) {
  StaticReport report;
  report.arch = "4870";
  report.alu_ops = 16;
  report.fetch_ops = 4;
  report.write_ops = 1;
  report.alu_fetch_ratio = 1.0;
  report.gpr_count = 5;
  report.theoretical_wavefronts = 51;
  report.resident_wavefronts = 24;
  report.bound = "balanced";
  const Event e = ParseEvent(SerializeStatic(7, report));
  EXPECT_EQ(e.type, EventType::kStatic);
  EXPECT_EQ(e.body.NumberOr("request", -1.0), 7.0);
  EXPECT_EQ(e.body.StringOr("arch", ""), "4870");
  EXPECT_EQ(e.body.NumberOr("alu_ops", -1.0), 16.0);
  EXPECT_EQ(e.body.NumberOr("fetch_ops", -1.0), 4.0);
  EXPECT_EQ(e.body.NumberOr("write_ops", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("alu_fetch_ratio", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("gpr_count", -1.0), 5.0);
  EXPECT_EQ(e.body.NumberOr("theoretical_wavefronts", -1.0), 51.0);
  EXPECT_EQ(e.body.NumberOr("resident_wavefronts", -1.0), 24.0);
  EXPECT_EQ(e.body.StringOr("bound", ""), "balanced");
}

TEST(ServeProtocol, RejectedWithCodeRoundTrips) {
  const Event e = ParseEvent(SerializeRejected(
      "invalid_kernel", "abcd1234abcd1234", "parse_error",
      "line 3: unknown mnemonic"));
  EXPECT_EQ(e.type, EventType::kRejected);
  EXPECT_EQ(e.body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(e.body.StringOr("figure", ""), "abcd1234abcd1234");
  EXPECT_EQ(e.body.StringOr("code", ""), "parse_error");
  EXPECT_EQ(e.body.StringOr("detail", ""), "line 3: unknown mnemonic");
}

TEST(ServeServer, CharacterizeEndToEndMatchesStandaloneByteForByte) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_bytes");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  // The standalone path: intake then characterize in this process.
  kerncap::AnalyzeResult analysis = kerncap::Analyze(kServeIl);
  ASSERT_TRUE(analysis.ok());
  kerncap::CharacterizeOptions options;
  options.quick = true;
  const std::string expected = report::BenchJson(
      kerncap::Characterize(*analysis.prepared, options));

  Client client = Client::Connect(config.socket_path);
  std::vector<Event> streamed;
  const Event done = client.Characterize(
      kServeIl, /*quick=*/true, /*priority=*/0,
      [&](const Event& event) { streamed.push_back(event); });
  ASSERT_EQ(done.type, EventType::kDone);
  EXPECT_EQ(done.body.StringOr("figure", ""),
            kerncap::Slug(*analysis.prepared));
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);

  // Stream shape: accepted first, then one static per architecture,
  // then the per-curve progress / point / profile events.
  ASSERT_GE(streamed.size(), 4u);
  EXPECT_EQ(streamed[0].type, EventType::kAccepted);
  EXPECT_EQ(streamed[0].body.StringOr("figure", ""),
            kerncap::Slug(*analysis.prepared));
  std::size_t statics = 0, progress = 0, points = 0, profiles = 0;
  for (const Event& event : streamed) {
    if (event.type == EventType::kStatic) ++statics;
    if (event.type == EventType::kProgress) ++progress;
    if (event.type == EventType::kPoint) ++points;
    if (event.type == EventType::kProfile) ++profiles;
  }
  const std::size_t curves =
      kerncap::EligibleCurves(analysis.prepared->kernel).size();
  const std::size_t domains = kerncap::SweepDomains(true).size();
  EXPECT_EQ(statics, analysis.prepared->statics.size());
  EXPECT_EQ(progress, curves);
  EXPECT_EQ(points, curves * domains);
  EXPECT_EQ(profiles, curves * domains);
  // The statics arrive before any sweep traffic.
  EXPECT_EQ(streamed[1].type, EventType::kStatic);
  server.Drain();
}

TEST(ServeServer, CharacterizeRejectsMalformedKernelAndStaysServing) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_reject");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event rejected = client.Characterize("this is not IL\n", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(rejected.body.StringOr("code", ""), "parse_error");
  EXPECT_FALSE(rejected.body.StringOr("detail", "").empty());

  // The same session keeps working: a valid kernel completes, and the
  // daemon's counters saw both outcomes.
  const Event done = client.Characterize(kServeIl, true, 0);
  EXPECT_EQ(done.type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
  server.Drain();
}

TEST(ServeServer, CharacterizeCorpusOverSocketGetsTypedVerdicts) {
  namespace fs = std::filesystem;
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_corpus");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  const fs::path corpus = fs::path(AMDMB_TEST_DATA_DIR) / "corpus" / "il";
  ASSERT_TRUE(fs::is_directory(corpus));
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() == ".il") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 20u);

  // Every corpus kernel over one session: malformed files come back as
  // typed rejections, valid ones characterize, and the session never
  // wedges.
  Client client = Client::Connect(config.socket_path);
  std::size_t rejected = 0, completed = 0;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    const Event terminal = client.Characterize(text.str(), true, 0);
    const bool expect_ok =
        path.filename().string().rfind("valid_", 0) == 0;
    if (expect_ok) {
      EXPECT_EQ(terminal.type, EventType::kDone);
      ++completed;
    } else {
      ASSERT_EQ(terminal.type, EventType::kRejected);
      EXPECT_EQ(terminal.body.StringOr("reason", ""), "invalid_kernel");
      EXPECT_FALSE(terminal.body.StringOr("code", "").empty());
      ++rejected;
    }
  }
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, completed);
  server.Drain();
}

TEST(ServeClient, OversizedCharacterizeIsRejectedWithoutConnecting) {
  // No daemon anywhere: the bound check must fire before any socket
  // work, so a 9 MiB kernel yields a typed verdict, not a connect error.
  const std::string huge(9u << 20, 'x');
  const std::optional<Event> verdict = OversizedCharacterize(huge, true, 0);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, EventType::kRejected);
  EXPECT_EQ(verdict->body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(verdict->body.StringOr("code", ""), "payload_too_large");
  EXPECT_NE(verdict->body.StringOr("detail", "").find("not sent"),
            std::string::npos);
  // A small kernel passes the bound and returns no verdict.
  EXPECT_FALSE(OversizedCharacterize(kServeIl, true, 0).has_value());
}

TEST(ServeFleet, CharacterizeRoutesThroughWorkersByContentHash) {
  FleetRegistry registry(TestGatePath("fleet_kerncap"));  // Gate unused.
  SupervisorConfig config = FleetConfig("fleet_kerncap", registry, 2);
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  AwaitStats(client,
             [](const ServeStats& s) { return AllWorkersHealthy(s, 2); });

  kerncap::AnalyzeResult analysis = kerncap::Analyze(kServeIl);
  ASSERT_TRUE(analysis.ok());
  kerncap::CharacterizeOptions options;
  options.quick = true;
  const std::string expected = report::BenchJson(
      kerncap::Characterize(*analysis.prepared, options));

  // The fleet answer is byte-identical to the in-process answer, and a
  // malformed kernel's verdict forwards through the supervisor intact.
  const Event done = client.Characterize(kServeIl, true, 0);
  ASSERT_EQ(done.type, EventType::kDone);
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);

  const Event rejected = client.Characterize("garbage\n", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(rejected.body.StringOr("code", ""), "parse_error");
  supervisor.Drain();
}

// A worker forked after this process ran a multi-point sweep inherits
// the shared pool object without its threads; unless the worker builds
// a pool of its own, its first sweep blocks forever.
TEST(ServeFleet, WorkerForkedAfterASweepCanSweep) {
  const auto square = [](std::size_t i) { return i * i; };
  ASSERT_EQ(exec::SweepExecutor::Default().Map(8, square).back(), 49u);

  FleetRegistry registry(TestGatePath("fleet_fork"));  // Gate unused.
  FigureDef sweep;
  sweep.slug = "fig_97";
  sweep.id = sweep.title = "Fig. 97 — Fleet Sweep";
  sweep.x_label = sweep.y_label = "x";
  sweep.paper_claim = "none";
  sweep.what = "fleet test fixture";
  sweep.curves.push_back(
      {"squares", [square](report::Figure& figure, const RunOptions&) {
         const auto values = exec::SweepExecutor::Default().Map(8, square);
         figure.set.Get("squares").Add(1.0, static_cast<double>(values[7]));
       }});
  registry.defs.push_back(std::move(sweep));
  SupervisorConfig config = FleetConfig("fleet_fork", registry, 1);
  config.deadline_ms = 20000;  // A hung worker fails the test, not ctest.
  Supervisor supervisor(config);
  supervisor.Start();
  Client client = Client::Connect(config.socket_path);
  AwaitStats(client,
             [](const ServeStats& s) { return AllWorkersHealthy(s, 1); });
  const Event terminal = client.Submit("fig_97", true, 0);
  // A worker stuck in its sweep would never answer the drain below.
  if (terminal.type != EventType::kDone) client.KillWorker(0);
  EXPECT_EQ(terminal.type, EventType::kDone)
      << terminal.body.StringOr("message", "");
  supervisor.Drain();
}

}  // namespace
}  // namespace amdmb::serve
