#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "report/json.hpp"

extern char** environ;

namespace amdmb::perf {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool PercentileNameable(double p, std::size_t samples) {
  return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0;
}

int TailPercentile(std::size_t samples) {
  Require(samples >= 20, "tail percentile: needs at least 20 samples");
  const double limit = 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
  return static_cast<int>(std::floor(limit + 1e-9));
}

double NamedPercentile(const std::vector<double>& values, double p) {
  Require(PercentileNameable(p, values.size()),
          PercentileNote(static_cast<int>(p), values.size(), "samples") +
              " has fewer than ten samples beyond it");
  return Percentile(values, p);
}

std::string PercentileNote(int p, std::size_t samples,
                           std::string_view what) {
  std::ostringstream os;
  os << "p" << p << " of " << samples << " " << what;
  return os.str();
}

double SmoothPercentile(std::vector<double> values, double p) {
  Require(PercentileNameable(p, values.size()),
          PercentileNote(static_cast<int>(p), values.size(), "samples") +
              " has fewer than ten samples beyond it");
  // Harrell-Davis: sample i of n (sorted) weighs the mass that
  // Beta(q(n+1), (1-q)(n+1)), q = p/100, puts on [i/n, (i+1)/n],
  // integrated by Simpson's rule in kSteps slices. The naming rule keeps
  // both shape parameters above 10, so the density is 0 at 0 and 1.
  std::sort(values.begin(), values.end());
  constexpr std::size_t kSteps = 16;
  const double n = static_cast<double>(values.size());
  const double q = p / 100.0;
  const double a = q * (n + 1.0) - 1.0;
  const double b = (1.0 - q) * (n + 1.0) - 1.0;
  std::vector<double> log_density(values.size() * kSteps + 1);
  for (std::size_t j = 0; j < log_density.size(); ++j) {
    const double t = static_cast<double>(j) / (n * kSteps);
    log_density[j] = t > 0.0 && t < 1.0
                         ? a * std::log(t) + b * std::log1p(-t)
                         : -std::numeric_limits<double>::infinity();
  }
  const double peak =
      *std::max_element(log_density.begin(), log_density.end());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    double w = 0.0;
    for (std::size_t k = 0; k <= kSteps; ++k) {
      const double simpson = k == 0 || k == kSteps ? 1.0 : k % 2 ? 4.0 : 2.0;
      w += simpson * std::exp(log_density[i * kSteps + k] - peak);
    }
    weighted += w * values[i];
    total += w;
  }
  return weighted / total;
}

bool CacheCountsExact(unsigned threads) { return threads == 1; }

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

/// Replaces the value after the first `key` (a meta line as BenchJson
/// writes it) up to the end of its line with `blank`.
void BlankValue(std::string& doc, std::string_view key,
                std::string_view blank) {
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return;
  const std::size_t begin = at + key.size();
  const std::size_t end = doc.find(",\n", begin);
  if (end == std::string::npos) return;
  doc.replace(begin, end - begin, blank);
}

}  // namespace

std::string NormalizeDoc(std::string_view doc) {
  std::string out(doc);
  BlankValue(out, "\n    \"suite_version\": ", "\"\"");
  BlankValue(out, "\n    \"threads\": ", "0");
  return out;
}

std::string DocDigest(std::string_view doc) {
  return Hex(Fnv1a(NormalizeDoc(doc)));
}

std::size_t CountPoints(std::string_view doc) {
  // Every point is {"x": .., "sim_seconds": ..}; the per-curve summaries
  // are "sim_seconds_median" etc. and do not match.
  constexpr std::string_view kPoint = "\"sim_seconds\": ";
  std::size_t count = 0;
  for (std::size_t at = doc.find(kPoint); at != std::string_view::npos;
       at = doc.find(kPoint, at + kPoint.size())) {
    ++count;
  }
  return count;
}

DigestTable LoadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  const report::JsonValue root = report::JsonValue::Parse(text.str());
  DigestTable table;
  const report::JsonValue* kinds = root.Find("digests");
  if (kinds == nullptr) return table;
  for (const auto& [kind, figures] : kinds->AsObject()) {
    for (const auto& [slug, digest] : figures.AsObject()) {
      table[kind][slug] = digest.AsString();
    }
  }
  return table;
}

void SaveDigests(const std::string& path, const DigestTable& table) {
  std::ostringstream os;
  os << "{\n  \"normalization\": \"FNV-1a 64 of the BENCH document with "
        "meta.suite_version and meta.threads blanked\",\n"
     << "  \"digests\": {";
  bool first_kind = true;
  for (const auto& [kind, figures] : table) {
    os << (first_kind ? "" : ",") << "\n    \"" << report::JsonEscape(kind)
       << "\": {";
    bool first = true;
    for (const auto& [slug, digest] : figures) {
      os << (first ? "" : ",") << "\n      \"" << report::JsonEscape(slug)
         << "\": \"" << digest << "\"";
      first = false;
    }
    os << "\n    }";
    first_kind = false;
  }
  os << "\n  }\n}\n";
  std::ofstream out(path);
  out << os.str();
  Require(out.good(), "cannot write " + path);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::uint64_t Tracer::Begin(std::string name, std::uint64_t parent,
                            unsigned tid) {
  if (!enabled_) return 0;
  const double now = NowUs();
  const std::lock_guard lock(mutex_);
  spans_.push_back({std::move(name), parent, tid, now, -1.0});
  return spans_.size();
}

void Tracer::End(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = NowUs();
  const std::lock_guard lock(mutex_);
  spans_.at(id - 1).end_us = now;
}

std::size_t Tracer::SpanCount() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

void Tracer::Write(const std::string& path) const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end_us < 0.0 ? s.begin_us : s.end_us;
    os << (i ? "," : "") << "\n  {\"name\": \""
       << report::JsonEscape(s.name) << "\", \"cat\": \"perf\", \"ph\": "
       << "\"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << report::JsonNumber(s.begin_us)
       << ", \"dur\": " << report::JsonNumber(end - s.begin_us)
       << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  std::ofstream out(path);
  out << os.str();
  Require(out.good(), "cannot write " + path);
}

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

double SelfPeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

ProcUsage ReadProcUsage(pid_t pid) {
  ProcUsage usage;
  // The process CPU clock counts every thread to the nanosecond, where
  // /proc/<pid>/stat only has clock ticks.
  clockid_t clock = 0;
  timespec cpu{};
  Require(clock_getcpuclockid(pid, &clock) == 0 &&
              clock_gettime(clock, &cpu) == 0,
          "cannot read the CPU clock of pid " + std::to_string(pid));
  usage.cpu_s = static_cast<double>(cpu.tv_sec) +
                static_cast<double>(cpu.tv_nsec) * 1e-9;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mib = std::stod(line.substr(6)) / 1024.0;  // kB.
    }
  }
  return usage;
}

pid_t Spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& extra_env) {
  // Everything the child touches is built before fork: only
  // async-signal-safe calls may run between fork and exec.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  for (const std::string& e : extra_env) {
    envp.push_back(const_cast<char*>(e.c_str()));
  }
  envp.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  Require(pid >= 0, "fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    const int null = open("/dev/null", O_WRONLY);
    if (null >= 0) dup2(null, STDOUT_FILENO);
    execve(args[0], args.data(), envp.data());
    _exit(127);
  }
  return pid;
}

int WaitExit(pid_t pid, double* cpu_s) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return -1;
  }
  if (cpu_s != nullptr) {
    *cpu_s = TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace amdmb::perf
