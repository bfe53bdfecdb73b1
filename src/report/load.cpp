#include "report/load.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/status.hpp"
#include "prof/profile_json.hpp"
#include "report/json.hpp"

namespace amdmb::report {

namespace {

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

std::vector<std::string> StringList(const JsonValue* value) {
  std::vector<std::string> out;
  if (value == nullptr) return out;
  for (const JsonValue& item : value->AsArray()) {
    out.push_back(item.AsString());
  }
  return out;
}

RunMeta MetaFrom(const JsonValue& doc) {
  RunMeta meta;
  const JsonValue* m = doc.Find("meta");
  if (m == nullptr) return meta;
  meta.suite_version = m->StringOr("suite_version", "unknown");
  meta.threads =
      static_cast<unsigned>(U64Or(*m, "threads", 1, kUnsignedMax));
  meta.quick = m->BoolOr("quick", false);
  meta.faults = m->StringOr("faults", "");
  meta.retry = m->StringOr("retry", "");
  meta.watchdog_cycles = U64Or(*m, "watchdog_cycles", 0);
  meta.adaptive = m->BoolOr("adaptive", false);
  meta.archs = StringList(m->Find("archs"));
  meta.modes = StringList(m->Find("modes"));
  return meta;
}

std::vector<Finding> FindingsFrom(const JsonValue& doc) {
  std::vector<Finding> out;
  const JsonValue* list = doc.Find("findings");
  if (list == nullptr) return out;
  for (const JsonValue& item : list->AsArray()) {
    const auto kind = FindingKindFromString(item.StringOr("kind", ""));
    if (!kind.has_value()) continue;  // A newer writer's kind; skip.
    Finding f;
    f.kind = *kind;
    f.curve = item.StringOr("curve", "");
    f.label = item.StringOr("label", "");
    if (const JsonValue* v = item.Find("value");
        v != nullptr && v->type() == JsonValue::Type::kNumber) {
      f.value = v->AsNumber();
    }
    f.unit = item.StringOr("unit", "");
    f.detail = item.StringOr("detail", "");
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<Degradation> DegradationsFrom(const JsonValue& doc) {
  std::vector<Degradation> out;
  const JsonValue* list = doc.Find("degradations");
  if (list == nullptr) return out;
  for (const JsonValue& item : list->AsArray()) {
    Degradation d;
    d.curve = item.StringOr("curve", "");
    d.point = item.StringOr("point", "");
    d.status = item.StringOr("status", "");
    d.attempts =
        static_cast<unsigned>(U64Or(item, "attempts", 1, kUnsignedMax));
    d.error = item.StringOr("error", "");
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<ProfileEntry> ProfilesFrom(const JsonValue& doc) {
  std::vector<ProfileEntry> out;
  const JsonValue* list = doc.Find("profile");
  if (list == nullptr) return out;
  for (const JsonValue& item : list->AsArray()) {
    ProfileEntry p;
    p.curve = item.StringOr("curve", "");
    p.point = item.StringOr("point", "");
    p.attributed = item.StringOr("attributed", "");
    p.heuristic = item.StringOr("heuristic", "");
    p.agree = item.BoolOr("agree", true);
    p.alu_score = item.NumberOr("alu_score", 0.0);
    p.fetch_score = item.NumberOr("fetch_score", 0.0);
    p.memory_score = item.NumberOr("memory_score", 0.0);
    p.dropped_events = U64Or(item, "dropped_events", 0);
    if (const JsonValue* counters = item.Find("counters")) {
      p.counters = prof::CounterSetFromJson(*counters);
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::optional<Frontier> FrontierFrom(const JsonValue& doc) {
  const JsonValue* f = doc.Find("frontier");
  if (f == nullptr) return std::nullopt;
  Frontier frontier;
  frontier.x_label = f->StringOr("x_label", "");
  frontier.y_label = f->StringOr("y_label", "");
  if (const JsonValue* xs = f->Find("xs")) {
    for (const JsonValue& v : xs->AsArray()) frontier.xs.push_back(v.AsNumber());
  }
  if (const JsonValue* ys = f->Find("ys")) {
    for (const JsonValue& v : ys->AsArray()) frontier.ys.push_back(v.AsNumber());
  }
  frontier.cells = StringList(f->Find("cells"));
  if (const JsonValue* measured = f->Find("measured")) {
    for (const JsonValue& v : measured->AsArray()) {
      frontier.measured.push_back(v.AsBool());
    }
  }
  frontier.points_measured = U64Or(*f, "points_measured", 0);
  frontier.points_dense = U64Or(*f, "points_dense", 0);
  return frontier;
}

/// Adds the document's curves to `set`. Their summary statistics are
/// derived data; SuiteSummaryMarkdown recomputes them from the points.
void CurvesInto(const JsonValue& doc, SeriesSet& set) {
  const JsonValue* list = doc.Find("curves");
  if (list == nullptr) return;
  for (const JsonValue& item : list->AsArray()) {
    Curve& curve = set.Get(item.StringOr("name", ""));
    if (const JsonValue* points = item.Find("points")) {
      for (const JsonValue& p : points->AsArray()) {
        curve.Add(p.NumberOr("x", 0.0), p.NumberOr("sim_seconds", 0.0));
      }
    }
  }
}

std::string Describe(const JsonValue* version) {
  if (version == nullptr) return "missing";
  if (version->type() != JsonValue::Type::kNumber) return "not a number";
  return JsonNumber(version->AsNumber());
}

}  // namespace

Figure LoadFigureJson(std::string_view text) {
  const JsonValue doc = JsonValue::Parse(text);
  const JsonValue* id = doc.Find("figure");
  Require(id != nullptr, "LoadFigureJson: missing \"figure\" key");
  // A v1 document has no typed findings for the checks to read, and a
  // newer one may rename keys this reader would silently default, so
  // refusing is the only way to keep "loaded" meaning "understood".
  const JsonValue* version = doc.Find("schema_version");
  Require(version != nullptr &&
              version->type() == JsonValue::Type::kNumber &&
              version->AsNumber() == kSchemaVersion,
          "LoadFigureJson: schema_version is " + Describe(version) +
              "; only schema " + std::to_string(kSchemaVersion) + " loads");

  Figure figure(id->AsString(), doc.StringOr("title", ""), "", "",
                doc.StringOr("paper_claim", ""));
  figure.meta = MetaFrom(doc);
  figure.findings = FindingsFrom(doc);
  figure.degradations = DegradationsFrom(doc);
  figure.profiles = ProfilesFrom(doc);
  figure.frontier = FrontierFrom(doc);
  CurvesInto(doc, figure.set);
  return figure;
}

std::vector<Figure> LoadFigureDirectory(
    const std::filesystem::path& directory, std::string_view slug) {
  Require(std::filesystem::is_directory(directory),
          "LoadFigureDirectory: '" + directory.string() +
              "' is not a directory");

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      // The writer names documents BENCH_<slug>.json, so the --figure
      // filter can skip non-matching files without parsing them.
      if (!slug.empty() &&
          name != "BENCH_" + std::string(slug) + ".json") {
        continue;
      }
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Figure> figures;
  figures.reserve(files.size());
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    Require(in.good(), "LoadFigureDirectory: cannot open " + file.string());
    std::ostringstream text;
    text << in.rdbuf();
    try {
      figures.push_back(LoadFigureJson(text.str()));
    } catch (const ConfigError& e) {
      throw ConfigError(file.string() + ": " + e.what());
    }
  }
  return figures;
}

}  // namespace amdmb::report
