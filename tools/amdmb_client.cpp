// amdmb_client — CLI for the amdmb_serve daemon.
//
// Verbs:
//   submit <figure> [--quick] [--adaptive] [--priority N] [--quiet]
//       Submits one figure, streams progress/point events to stderr,
//       and prints the returned schema-v2 figure document (byte-
//       identical to the bench binary's BENCH_<slug>.json) to stdout.
//       Exit 0 done, 3 rejected (e.g. overloaded), 1 error.
//   characterize <file|-> [--quick] [--adaptive] [--priority N] [--quiet]
//       Reads kernel IL text from the file (or stdin with "-") and
//       submits it for characterization. Static per-arch analysis and
//       sweep progress stream to stderr; the figure document prints to
//       stdout. A payload whose request line would exceed the daemon's
//       8 MiB bound is rejected locally (typed code payload_too_large)
//       without connecting. Exit 0 done, 3 rejected (invalid_kernel /
//       overloaded / ...), 1 error.
//   stats
//       Prints the daemon's queue/cache/latency statistics.
//   drain
//       Asks the daemon to finish admitted sweeps and shut down.
//   bench --requests N --concurrency K --seed S [--full]
//         [--figures a,b,c] [--kill-worker N]
//       Deterministic closed-loop load generator: the request schedule
//       is a pure function of the seed. Reports throughput and tail
//       latency. --kill-worker N injects N seeded worker kills during
//       the run (fleet daemons only) and reports availability plus the
//       typed worker_lost / deadline_exceeded failure counts.
//
// Every verb accepts --socket PATH (default: AMDMB_SERVE_SOCKET, then
// /tmp/amdmb_serve.sock) and --connect-retries R (capped-backoff
// re-attempts when nothing listens yet; default fail-fast). --version
// prints the build's git describe.
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "serve/client.hpp"

namespace {

using namespace amdmb;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <verb> [options]\n"
      << "  submit <figure> [--quick] [--adaptive] [--priority N]\n"
      << "         [--quiet]\n"
      << "  characterize <file|-> [--quick] [--adaptive] [--priority N]\n"
      << "         [--quiet]\n"
      << "  stats\n"
      << "  drain\n"
      << "  bench [--requests N] [--concurrency K] [--seed S] [--full]\n"
      << "        [--figures a,b,c] [--kill-worker N]\n"
      << "common options: --socket PATH, --connect-retries R, --version\n";
  return 2;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses all of `text` as the flag's own type: no blank, no trailing
/// character, no sign on an unsigned flag and no overflow.
template <typename T>
T ParseNumber(const char* flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw ConfigError(std::string(flag) + ": not a number: " + text);
  }
  return value;
}

int RunSubmit(serve::Client& client, const std::string& figure, bool quick,
              bool adaptive, int priority, bool quiet) {
  const serve::Event final_event = client.Submit(
      figure, quick, adaptive, priority, [quiet](const serve::Event& event) {
        if (quiet) return;
        if (event.type == serve::EventType::kAccepted) {
          std::cerr << "accepted as request "
                    << event.body.NumberOr("request", 0.0) << "\n";
        } else if (event.type == serve::EventType::kRefine) {
          std::cerr << "refine " << event.body.StringOr("curve", "?")
                    << ": wave " << event.body.NumberOr("wave", 0.0)
                    << ", spent " << event.body.NumberOr("spent", 0.0)
                    << "/" << event.body.NumberOr("dense", 0.0) << "\n";
        } else if (event.type == serve::EventType::kProgress) {
          std::cerr << "curve " << (event.body.NumberOr("index", 0.0) + 1)
                    << "/" << event.body.NumberOr("count", 0.0) << ": "
                    << event.body.StringOr("curve", "?") << "\n";
        }
      });
  switch (final_event.type) {
    case serve::EventType::kDone:
      std::cout << final_event.body.StringOr("figure_json", "");
      if (!quiet) {
        std::cerr << "done in "
                  << FormatDouble(
                         final_event.body.NumberOr("wall_seconds", 0.0), 3)
                  << " s (cache hits "
                  << final_event.body.NumberOr("cache_hits", 0.0)
                  << ", misses "
                  << final_event.body.NumberOr("cache_misses", 0.0)
                  << ")\n";
      }
      return 0;
    case serve::EventType::kRejected:
      std::cerr << "rejected: " << final_event.body.StringOr("reason", "?")
                << "\n";
      return 3;
    default:
      std::cerr << "error: "
                << final_event.body.StringOr("message", "unknown") << "\n";
      return 1;
  }
}

std::string ReadIlSource(const std::string& path) {
  std::ostringstream text;
  if (path == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw ConfigError("characterize: cannot open " + path);
    text << file.rdbuf();
  }
  return text.str();
}

void StreamCharacterizeEvent(const serve::Event& event, bool quiet) {
  if (quiet) return;
  if (event.type == serve::EventType::kAccepted) {
    std::cerr << "accepted as request "
              << event.body.NumberOr("request", 0.0) << " (figure "
              << event.body.StringOr("figure", "?") << ")\n";
  } else if (event.type == serve::EventType::kStatic) {
    std::cerr << "static " << event.body.StringOr("arch", "?") << ": alu "
              << event.body.NumberOr("alu_ops", 0.0) << ", fetch "
              << event.body.NumberOr("fetch_ops", 0.0) << ", gpr "
              << event.body.NumberOr("gpr_count", 0.0) << ", wavefronts "
              << event.body.NumberOr("resident_wavefronts", 0.0) << ", "
              << event.body.StringOr("bound", "?") << "\n";
  } else if (event.type == serve::EventType::kRefine) {
    std::cerr << "refine " << event.body.StringOr("curve", "?") << ": wave "
              << event.body.NumberOr("wave", 0.0) << ", spent "
              << event.body.NumberOr("spent", 0.0) << "/"
              << event.body.NumberOr("dense", 0.0) << "\n";
  } else if (event.type == serve::EventType::kProgress) {
    std::cerr << "curve " << (event.body.NumberOr("index", 0.0) + 1) << "/"
              << event.body.NumberOr("count", 0.0) << ": "
              << event.body.StringOr("curve", "?") << "\n";
  }
}

int FinishCharacterize(const serve::Event& final_event, bool quiet) {
  switch (final_event.type) {
    case serve::EventType::kDone:
      std::cout << final_event.body.StringOr("figure_json", "");
      if (!quiet) {
        std::cerr << "done in "
                  << FormatDouble(
                         final_event.body.NumberOr("wall_seconds", 0.0), 3)
                  << " s\n";
      }
      return 0;
    case serve::EventType::kRejected: {
      std::cerr << "rejected: " << final_event.body.StringOr("reason", "?");
      const std::string code = final_event.body.StringOr("code", "");
      if (!code.empty()) std::cerr << " (" << code << ")";
      const std::string detail = final_event.body.StringOr("detail", "");
      if (!detail.empty()) std::cerr << ": " << detail;
      std::cerr << "\n";
      return 3;
    }
    default:
      std::cerr << "error: "
                << final_event.body.StringOr("message", "unknown") << "\n";
      return 1;
  }
}

int RunCharacterize(const std::string& socket_path, unsigned retries,
                    const std::string& path, bool quick, bool adaptive,
                    int priority, bool quiet) {
  const std::string il = ReadIlSource(path);
  // The oversize verdict must come back before any connect: the daemon
  // would only ever answer such a line with a protocol error.
  if (std::optional<serve::Event> oversized =
          serve::OversizedCharacterize(il, quick, priority)) {
    return FinishCharacterize(*oversized, quiet);
  }
  serve::Client client = serve::Client::Connect(socket_path, retries);
  const serve::Event final_event = client.Characterize(
      il, quick, adaptive, priority, [quiet](const serve::Event& event) {
        StreamCharacterizeEvent(event, quiet);
      });
  return FinishCharacterize(final_event, quiet);
}

int RunStats(serve::Client& client) {
  const serve::ServeStats stats = client.Stats();
  std::cout << "amdmb_serve " << stats.version << "\n"
            << "queue " << stats.queue_depth << "/" << stats.max_queue
            << ", in-flight " << stats.in_flight << "/"
            << stats.max_inflight << "\n"
            << "completed " << stats.completed << ", failed "
            << stats.failed << ", rejected " << stats.rejected << "\n"
            << "kernel cache: " << stats.cache_hits << " hits, "
            << stats.cache_misses << " misses (hit rate "
            << FormatDouble(stats.cache_hit_rate, 3) << "), "
            << stats.cache_size << " entries\n";
  for (const serve::FigureLatency& l : stats.latencies) {
    std::cout << "  " << l.figure << ": " << l.count << " done, p50 "
              << FormatDouble(l.p50_seconds, 3) << " s, p90 "
              << FormatDouble(l.p90_seconds, 3) << " s, p99 "
              << FormatDouble(l.p99_seconds, 3) << " s\n";
  }
  for (const serve::WorkerStatus& w : stats.workers) {
    std::cout << "  worker " << w.index << ": " << w.state << ", pid "
              << w.pid << ", restarts " << w.restarts << ", outstanding "
              << w.outstanding << ", generation " << w.generation << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string socket_path = env::Get().serve_socket.value_or(
        std::string(env::kDefaultServeSocket));
    std::string verb;
    std::string figure;
    bool quick = false;
    bool adaptive = false;
    bool quiet = false;
    int priority = 0;
    serve::LoadGenOptions load;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--version") {
        std::cout << "amdmb_client " << SuiteVersion() << "\n";
        return 0;
      } else if (arg == "--socket" && i + 1 < argc) {
        socket_path = argv[++i];
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--adaptive") {
        adaptive = true;
      } else if (arg == "--full") {
        load.quick = false;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--priority" && i + 1 < argc) {
        priority = ParseNumber<int>("--priority", argv[++i]);
      } else if (arg == "--requests" && i + 1 < argc) {
        load.requests = ParseNumber<std::size_t>("--requests", argv[++i]);
      } else if (arg == "--concurrency" && i + 1 < argc) {
        load.concurrency = ParseNumber<unsigned>("--concurrency", argv[++i]);
      } else if (arg == "--seed" && i + 1 < argc) {
        load.seed = ParseNumber<std::uint64_t>("--seed", argv[++i]);
      } else if (arg == "--figures" && i + 1 < argc) {
        load.figures = SplitCommaList(argv[++i]);
      } else if (arg == "--connect-retries" && i + 1 < argc) {
        load.connect_retries =
            ParseNumber<unsigned>("--connect-retries", argv[++i]);
      } else if (arg == "--kill-worker" && i + 1 < argc) {
        load.kill_workers = ParseNumber<unsigned>("--kill-worker", argv[++i]);
      } else if (arg.size() > 1 && arg[0] == '-') {
        return Usage(argv[0]);  // Bare "-" falls through: IL on stdin.
      } else if (verb.empty()) {
        verb = arg;
      } else if ((verb == "submit" || verb == "characterize") &&
                 figure.empty()) {
        figure = arg;  // Submit: slug. Characterize: IL path or "-".
      } else {
        return Usage(argv[0]);
      }
    }
    if (verb.empty()) return Usage(argv[0]);

    if (verb == "characterize") {
      if (figure.empty()) return Usage(argv[0]);
      return RunCharacterize(socket_path, load.connect_retries, figure,
                             quick, adaptive, priority, quiet);
    }

    if (verb == "bench") {
      load.socket_path = socket_path;
      const serve::LoadGenReport report = serve::RunLoadGenerator(load);
      std::cout << report.Render();
      // A chaos run expects typed failures; plain runs fail on any.
      if (load.kill_workers > 0) return 0;
      return report.failed == 0 ? 0 : 1;
    }

    serve::Client client =
        serve::Client::Connect(socket_path, load.connect_retries);
    if (verb == "submit") {
      if (figure.empty()) return Usage(argv[0]);
      return RunSubmit(client, figure, quick, adaptive, priority, quiet);
    }
    if (verb == "stats") return RunStats(client);
    if (verb == "drain") {
      const std::uint64_t completed = client.Drain();
      std::cout << "drained (" << completed << " requests completed)\n";
      return 0;
    }
    return Usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "amdmb_client: " << e.what() << "\n";
    return 1;
  }
}
