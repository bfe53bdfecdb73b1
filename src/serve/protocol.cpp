#include "serve/protocol.hpp"

#include <limits>
#include <sstream>

#include "common/status.hpp"

namespace amdmb::serve {

namespace {

std::string Quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  out += report::JsonEscape(text);
  out += '"';
  return out;
}

/// The optional submit/characterize "priority": a whole number in the
/// range of int.
int Priority(const report::JsonValue& doc) {
  const report::JsonValue* priority = doc.Find("priority");
  return priority == nullptr
             ? 0
             : static_cast<int>(report::AsI64(
                   *priority, "priority", std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
}

}  // namespace

Request ParseRequest(std::string_view line) {
  const report::JsonValue doc = report::JsonValue::Parse(line);
  if (doc.type() != report::JsonValue::Type::kObject) {
    throw ConfigError("request: expected a JSON object");
  }
  const report::JsonValue* op = doc.Find("op");
  if (op == nullptr) throw ConfigError("request: missing \"op\"");
  Request request;
  const std::string& name = op->AsString();
  if (name == "submit") {
    request.op = Request::Op::kSubmit;
    const report::JsonValue* figure = doc.Find("figure");
    if (figure == nullptr) {
      throw ConfigError("request: submit needs a \"figure\" slug");
    }
    request.figure = figure->AsString();
    if (request.figure.empty()) {
      throw ConfigError("request: submit \"figure\" is empty");
    }
    request.quick = doc.BoolOr("quick", false);
    request.adaptive = doc.BoolOr("adaptive", false);
    request.priority = Priority(doc);
  } else if (name == "characterize") {
    request.op = Request::Op::kCharacterize;
    const report::JsonValue* il = doc.Find("il");
    if (il == nullptr) {
      throw ConfigError("request: characterize needs \"il\" kernel text");
    }
    request.il = il->AsString();
    if (request.il.empty()) {
      throw ConfigError("request: characterize \"il\" is empty");
    }
    request.quick = doc.BoolOr("quick", false);
    request.adaptive = doc.BoolOr("adaptive", false);
    request.priority = Priority(doc);
  } else if (name == "stats") {
    request.op = Request::Op::kStats;
  } else if (name == "drain") {
    request.op = Request::Op::kDrain;
  } else if (name == "ping") {
    request.op = Request::Op::kPing;
    request.seq = report::U64Or(doc, "seq", 0);
  } else if (name == "kill_worker") {
    request.op = Request::Op::kKillWorker;
    const report::JsonValue* worker = doc.Find("worker");
    if (worker == nullptr) {
      throw ConfigError("request: kill_worker needs a \"worker\" index");
    }
    request.worker = static_cast<unsigned>(report::AsU64(
        *worker, "worker", std::numeric_limits<unsigned>::max()));
  } else {
    throw ConfigError("request: unknown op \"" + name + "\"");
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::ostringstream os;
  switch (request.op) {
    case Request::Op::kSubmit:
      os << "{\"op\":\"submit\",\"figure\":" << Quoted(request.figure)
         << ",\"quick\":" << (request.quick ? "true" : "false")
         << (request.adaptive ? ",\"adaptive\":true" : "")
         << ",\"priority\":" << request.priority << "}";
      break;
    case Request::Op::kCharacterize:
      os << "{\"op\":\"characterize\",\"il\":" << Quoted(request.il)
         << ",\"quick\":" << (request.quick ? "true" : "false")
         << (request.adaptive ? ",\"adaptive\":true" : "")
         << ",\"priority\":" << request.priority << "}";
      break;
    case Request::Op::kStats:
      os << "{\"op\":\"stats\"}";
      break;
    case Request::Op::kDrain:
      os << "{\"op\":\"drain\"}";
      break;
    case Request::Op::kPing:
      os << "{\"op\":\"ping\",\"seq\":" << request.seq << "}";
      break;
    case Request::Op::kKillWorker:
      os << "{\"op\":\"kill_worker\",\"worker\":" << request.worker << "}";
      break;
  }
  return os.str();
}

std::string_view ToString(EventType type) {
  switch (type) {
    case EventType::kAccepted: return "accepted";
    case EventType::kRejected: return "rejected";
    case EventType::kStatic: return "static";
    case EventType::kProgress: return "progress";
    case EventType::kPoint: return "point";
    case EventType::kProfile: return "profile";
    case EventType::kRefine: return "refine";
    case EventType::kDone: return "done";
    case EventType::kError: return "error";
    case EventType::kStats: return "stats";
    case EventType::kDrained: return "drained";
    case EventType::kPong: return "pong";
    case EventType::kKilled: return "killed";
  }
  throw SimError("ToString(EventType): unknown value");
}

std::string_view ToString(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kSweepFailed: return "sweep_failed";
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::kWorkerLost: return "worker_lost";
    case ErrorKind::kProtocolError: return "protocol_error";
  }
  throw SimError("ToString(ErrorKind): unknown value");
}

Event ParseEvent(std::string_view line) {
  Event event;
  event.body = report::JsonValue::Parse(line);
  const report::JsonValue* tag = event.body.Find("event");
  if (tag == nullptr) throw ConfigError("event: missing \"event\" tag");
  const std::string& name = tag->AsString();
  for (const EventType type :
       {EventType::kAccepted, EventType::kRejected, EventType::kStatic,
        EventType::kProgress, EventType::kPoint, EventType::kProfile,
        EventType::kRefine, EventType::kDone, EventType::kError,
        EventType::kStats,
        EventType::kDrained, EventType::kPong, EventType::kKilled}) {
    if (name == ToString(type)) {
      event.type = type;
      return event;
    }
  }
  throw ConfigError("event: unknown tag \"" + name + "\"");
}

std::string SerializeAccepted(std::uint64_t id, std::string_view figure,
                              std::size_t queue_depth) {
  std::ostringstream os;
  os << "{\"event\":\"accepted\",\"request\":" << id
     << ",\"figure\":" << Quoted(figure)
     << ",\"queue_depth\":" << queue_depth << "}";
  return os.str();
}

std::string SerializeRejected(std::string_view reason,
                              std::string_view figure) {
  std::ostringstream os;
  os << "{\"event\":\"rejected\",\"reason\":" << Quoted(reason)
     << ",\"figure\":" << Quoted(figure) << "}";
  return os.str();
}

std::string SerializeRejected(std::string_view reason,
                              std::string_view figure,
                              std::string_view code,
                              std::string_view detail) {
  std::ostringstream os;
  os << "{\"event\":\"rejected\",\"reason\":" << Quoted(reason)
     << ",\"figure\":" << Quoted(figure) << ",\"code\":" << Quoted(code)
     << ",\"detail\":" << Quoted(detail) << "}";
  return os.str();
}

std::string SerializeProgress(std::uint64_t id, std::size_t curve_index,
                              std::size_t curve_count,
                              std::string_view curve) {
  std::ostringstream os;
  os << "{\"event\":\"progress\",\"request\":" << id
     << ",\"curve\":" << Quoted(curve) << ",\"index\":" << curve_index
     << ",\"count\":" << curve_count << "}";
  return os.str();
}

std::string SerializePoint(std::uint64_t id, std::string_view curve,
                           double x, double y) {
  std::ostringstream os;
  os << "{\"event\":\"point\",\"request\":" << id
     << ",\"curve\":" << Quoted(curve)
     << ",\"x\":" << report::JsonNumber(x)
     << ",\"y\":" << report::JsonNumber(y) << "}";
  return os.str();
}

std::string SerializeProfile(std::uint64_t id, std::string_view curve,
                             std::string_view point,
                             std::string_view bottleneck) {
  std::ostringstream os;
  os << "{\"event\":\"profile\",\"request\":" << id
     << ",\"curve\":" << Quoted(curve) << ",\"point\":" << Quoted(point)
     << ",\"bottleneck\":" << Quoted(bottleneck) << "}";
  return os.str();
}

std::string SerializeRefine(std::uint64_t id, std::string_view curve,
                            std::size_t wave, std::size_t wave_points,
                            std::size_t points_spent,
                            std::size_t dense_points) {
  std::ostringstream os;
  os << "{\"event\":\"refine\",\"request\":" << id
     << ",\"curve\":" << Quoted(curve) << ",\"wave\":" << wave
     << ",\"points\":" << wave_points << ",\"spent\":" << points_spent
     << ",\"dense\":" << dense_points << "}";
  return os.str();
}

std::string SerializeDone(std::uint64_t id, std::string_view figure,
                          double wall_seconds, std::uint64_t cache_hits,
                          std::uint64_t cache_misses,
                          std::string_view figure_json) {
  std::ostringstream os;
  os << "{\"event\":\"done\",\"request\":" << id
     << ",\"figure\":" << Quoted(figure)
     << ",\"wall_seconds\":" << report::JsonNumber(wall_seconds)
     << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses
     << ",\"figure_json\":" << Quoted(figure_json) << "}";
  return os.str();
}

std::string SerializeError(std::uint64_t id, ErrorKind kind,
                           std::string_view message) {
  std::ostringstream os;
  os << "{\"event\":\"error\",\"request\":" << id
     << ",\"kind\":" << Quoted(ToString(kind))
     << ",\"message\":" << Quoted(message) << "}";
  return os.str();
}

std::string SerializeStatic(std::uint64_t id, const StaticReport& report) {
  std::ostringstream os;
  os << "{\"event\":\"static\",\"request\":" << id
     << ",\"arch\":" << Quoted(report.arch)
     << ",\"alu_ops\":" << report.alu_ops
     << ",\"fetch_ops\":" << report.fetch_ops
     << ",\"write_ops\":" << report.write_ops << ",\"alu_fetch_ratio\":"
     << report::JsonNumber(report.alu_fetch_ratio)
     << ",\"gpr_count\":" << report.gpr_count
     << ",\"theoretical_wavefronts\":" << report.theoretical_wavefronts
     << ",\"resident_wavefronts\":" << report.resident_wavefronts
     << ",\"bound\":" << Quoted(report.bound) << "}";
  return os.str();
}

std::string SerializePong(unsigned worker, std::uint64_t seq,
                          const PongStats& stats) {
  std::ostringstream os;
  os << "{\"event\":\"pong\",\"worker\":" << worker << ",\"seq\":" << seq
     << ",\"completed\":" << stats.completed
     << ",\"failed\":" << stats.failed
     << ",\"cache_hits\":" << stats.cache_hits
     << ",\"cache_misses\":" << stats.cache_misses << "}";
  return os.str();
}

std::string SerializeKilled(unsigned worker) {
  std::ostringstream os;
  os << "{\"event\":\"killed\",\"worker\":" << worker << "}";
  return os.str();
}

std::string SerializeDrained(std::uint64_t completed) {
  std::ostringstream os;
  os << "{\"event\":\"drained\",\"completed\":" << completed << "}";
  return os.str();
}

std::string SerializeStats(const ServeStats& stats) {
  std::ostringstream os;
  os << "{\"event\":\"stats\",\"version\":" << Quoted(stats.version)
     << ",\"queue_depth\":" << stats.queue_depth
     << ",\"in_flight\":" << stats.in_flight
     << ",\"max_queue\":" << stats.max_queue
     << ",\"max_inflight\":" << stats.max_inflight
     << ",\"completed\":" << stats.completed
     << ",\"failed\":" << stats.failed
     << ",\"rejected\":" << stats.rejected << ",\"cache\":{\"hits\":"
     << stats.cache_hits << ",\"misses\":" << stats.cache_misses
     << ",\"hit_rate\":" << report::JsonNumber(stats.cache_hit_rate)
     << ",\"size\":" << stats.cache_size << "},\"latencies\":[";
  for (std::size_t i = 0; i < stats.latencies.size(); ++i) {
    const FigureLatency& l = stats.latencies[i];
    if (i > 0) os << ",";
    os << "{\"figure\":" << Quoted(l.figure) << ",\"count\":" << l.count
       << ",\"p50_seconds\":" << report::JsonNumber(l.p50_seconds)
       << ",\"p90_seconds\":" << report::JsonNumber(l.p90_seconds)
       << ",\"p99_seconds\":" << report::JsonNumber(l.p99_seconds) << "}";
  }
  os << "]";
  if (!stats.workers.empty()) {
    os << ",\"workers\":[";
    for (std::size_t i = 0; i < stats.workers.size(); ++i) {
      const WorkerStatus& w = stats.workers[i];
      if (i > 0) os << ",";
      os << "{\"index\":" << w.index << ",\"state\":" << Quoted(w.state)
         << ",\"pid\":" << w.pid << ",\"restarts\":" << w.restarts
         << ",\"outstanding\":" << w.outstanding
         << ",\"generation\":" << w.generation << "}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

ServeStats ParseStats(const report::JsonValue& body) {
  using report::U64Or;
  constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
  ServeStats stats;
  stats.version = body.StringOr("version", "");
  stats.queue_depth = U64Or(body, "queue_depth", 0);
  stats.in_flight =
      static_cast<unsigned>(U64Or(body, "in_flight", 0, kUnsignedMax));
  stats.max_queue = U64Or(body, "max_queue", 0);
  stats.max_inflight =
      static_cast<unsigned>(U64Or(body, "max_inflight", 0, kUnsignedMax));
  stats.completed = U64Or(body, "completed", 0);
  stats.failed = U64Or(body, "failed", 0);
  stats.rejected = U64Or(body, "rejected", 0);
  if (const report::JsonValue* cache = body.Find("cache")) {
    stats.cache_hits = U64Or(*cache, "hits", 0);
    stats.cache_misses = U64Or(*cache, "misses", 0);
    stats.cache_hit_rate = cache->NumberOr("hit_rate", 0.0);
    stats.cache_size = U64Or(*cache, "size", 0);
  }
  if (const report::JsonValue* latencies = body.Find("latencies")) {
    for (const report::JsonValue& entry : latencies->AsArray()) {
      FigureLatency l;
      l.figure = entry.StringOr("figure", "");
      l.count = U64Or(entry, "count", 0);
      l.p50_seconds = entry.NumberOr("p50_seconds", 0.0);
      l.p90_seconds = entry.NumberOr("p90_seconds", 0.0);
      l.p99_seconds = entry.NumberOr("p99_seconds", 0.0);
      stats.latencies.push_back(std::move(l));
    }
  }
  if (const report::JsonValue* workers = body.Find("workers")) {
    for (const report::JsonValue& entry : workers->AsArray()) {
      WorkerStatus w;
      w.index = static_cast<unsigned>(U64Or(entry, "index", 0, kUnsignedMax));
      w.state = entry.StringOr("state", "");
      if (const report::JsonValue* pid = entry.Find("pid")) {
        w.pid = static_cast<long>(
            report::AsI64(*pid, "pid", -1, std::numeric_limits<int>::max()));
      }
      w.restarts =
          static_cast<unsigned>(U64Or(entry, "restarts", 0, kUnsignedMax));
      w.outstanding = U64Or(entry, "outstanding", 0);
      w.generation = U64Or(entry, "generation", 0);
      stats.workers.push_back(std::move(w));
    }
  }
  return stats;
}

}  // namespace amdmb::serve
