#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace e2e::trace {
namespace {

// Serve runs record millions of spans; the file keeps a prefix of them.
constexpr size_t kMaxWrittenSpans = 200'000;

std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<SpanRecord>>>& Buffers() {
  static auto* buffers =
      new std::vector<std::unique_ptr<std::vector<SpanRecord>>>();
  return *buffers;
}

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::vector<SpanRecord>* buffer = [] {
    auto owned = std::make_unique<std::vector<SpanRecord>>();
    owned->reserve(1 << 16);
    std::vector<SpanRecord>* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    Buffers().push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

// Total length of the union of [start, end) intervals, clipped to
// [lo, hi).
double CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                 int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += static_cast<double>(end - start);
    cursor = end;
  }
  return covered;
}

}  // namespace

Span::Span(const char* name, uint64_t parent) {
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent;
  record_.start_ns = NowNs();
}

int64_t Span::Close() {
  if (open_) {
    open_ = false;
    record_.end_ns = NowNs();
    ThreadBuffer().push_back(record_);
  }
  return record_.duration_ns();
}

std::vector<SpanRecord> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : Buffers()) buffer->clear();
}

namespace {

struct Layer {
  int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  // total minus the part its children cover
};

std::map<std::string, Layer> Layers(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, Layer> layers;
  for (const SpanRecord& span : spans) {
    Layer& layer = layers[span.name];
    ++layer.count;
    const auto duration = static_cast<double>(span.duration_ns());
    layer.total_ns += duration;
    const auto it = children.find(span.id);
    layer.self_ns +=
        it == children.end()
            ? duration
            : duration - CoveredNs(it->second, span.start_ns, span.end_ns);
  }
  return layers;
}

double UnaccountedShare(const std::vector<SpanRecord>& spans,
                        const std::string& root) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  double total = 0.0;
  double covered = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name != root) continue;
    total += static_cast<double>(span.duration_ns());
    std::vector<std::pair<int64_t, int64_t>> leaves;
    std::vector<uint64_t> pending = {span.id};
    while (!pending.empty()) {
      const uint64_t id = pending.back();
      pending.pop_back();
      const auto it = children.find(id);
      if (it == children.end()) continue;
      for (const size_t child : it->second) {
        if (children.count(spans[child].id) == 0) {
          leaves.push_back({spans[child].start_ns, spans[child].end_ns});
        } else {
          pending.push_back(spans[child].id);
        }
      }
    }
    covered += CoveredNs(std::move(leaves), span.start_ns, span.end_ns);
  }
  return total <= 0.0 ? 0.0 : 1.0 - covered / total;
}

}  // namespace

void CheckUnaccounted(Result& result, const std::vector<SpanRecord>& spans,
                      const std::string& root) {
  const double unaccounted = UnaccountedShare(spans, root);
  result.Metric("trace.unaccounted_frac", unaccounted, "share");
  result.Check(unaccounted <= kUnaccountedTolerance,
               "stage spans cover the traced total within tolerance");
}

std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  return out;
}

void Report(const std::vector<SpanRecord>& spans, const std::string& path) {
  const auto layers = Layers(spans);
  std::printf("%-34s %10s %14s %14s\n", "layer", "spans", "total_ms",
              "self_ms");
  for (const auto& [name, layer] : layers) {
    std::printf("%-34s %10lld %14.3f %14.3f\n", name.c_str(),
                static_cast<long long>(layer.count), layer.total_ns / 1e6,
                layer.self_ns / 1e6);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"layers\": {");
  bool first = true;
  for (const auto& [name, layer] : layers) {
    std::fprintf(out,
                 "%s\n \"%s\": {\"spans\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(layer.count), layer.total_ns / 1e6,
                 layer.self_ns / 1e6);
    first = false;
  }
  // The file keeps the first kMaxWrittenSpans spans in start order (ids
  // are handed out at start); the layer totals above cover every span.
  std::vector<const SpanRecord*> written;
  for (const SpanRecord& span : spans) written.push_back(&span);
  std::sort(written.begin(), written.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->id < b->id;
            });
  if (written.size() > kMaxWrittenSpans) written.resize(kMaxWrittenSpans);
  std::fprintf(out, "},\n\"spans_total\": %zu,\n\"spans\": [",
               spans.size());
  first = true;
  for (const SpanRecord* record : written) {
    const SpanRecord& span = *record;
    std::fprintf(out,
                 "%s\n {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

}  // namespace e2e::trace
