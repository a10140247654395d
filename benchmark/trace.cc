#include "trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "json.h"

namespace vsd::benchmark {
namespace {

thread_local int t_current_span = -1;

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Record(std::string name, int64_t start_ns, int64_t end_ns,
                   int parent, int64_t request) {
  if (!enabled()) return -1;
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.request = request;
  span.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Open(std::string name, int parent, int64_t request) {
  const int64_t now = NowNs();
  return Record(std::move(name), now, now, parent, request);
}

void Tracer::Close(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  int64_t origin = 0;
  if (!spans.empty()) origin = spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  JsonWriter json;
  json.BeginObject().Key("displayTimeUnit").Value("ms");
  json.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    json.BeginObject()
        .Key("name").Value(span.name)
        .Key("cat").Value(span.name.substr(0, span.name.find('.')))
        .Key("ph").Value("X")
        .Key("pid").Value(1)
        .Key("tid").Value(span.tid)
        .Key("ts").Value(static_cast<double>(span.start_ns - origin) / 1e3)
        .Key("dur").Value(static_cast<double>(span.end_ns - span.start_ns) /
                          1e3);
    json.Key("args").BeginObject()
        .Key("id").Value(static_cast<int64_t>(i))
        .Key("parent").Value(span.parent)
        .Key("request").Value(span.request)
        .EndObject();
    json.EndObject();
  }
  json.EndArray().EndObject();
  return WriteTextFile(path, json.str() + "\n");
}

ScopedSpan::ScopedSpan(std::string name, int parent, int64_t request)
    : id_(Tracer::Get().Open(std::move(name),
                             parent == kInherit ? t_current_span : parent,
                             request)),
      saved_current_(t_current_span) {
  if (id_ >= 0) t_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  Tracer::Get().Close(id_);
  t_current_span = saved_current_;
}

int ScopedSpan::Current() { return t_current_span; }

std::map<std::string, NameTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    t.count += 1;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[benchmark] cannot open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  bool ok =
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  // fclose flushes; a full disk often only surfaces here.
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "[benchmark] failed writing %s\n", path.c_str());
  }
  return ok;
}

}  // namespace vsd::benchmark
