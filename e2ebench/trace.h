// Benchmark-side tracing: one span per call into a module's public API.
// Spans live in per-thread in-memory buffers and are collected and written
// out only after the measured work has finished. Nothing in the library is
// instrumented; the spans wrap the calls from the benchmark's own code.
#ifndef NDV_E2EBENCH_TRACE_H_
#define NDV_E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2e::trace {

struct SpanRecord {
  const char* name = "";  // a string literal; never freed
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Times one call. The span is recorded when it ends: at Close() or when
// it goes out of scope, whichever comes first.
class Span {
 public:
  explicit Span(const char* name, uint64_t parent = 0);
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }
  // Ends the span now and returns its duration in nanoseconds.
  int64_t Close();

 private:
  SpanRecord record_;
  bool open_ = true;
};

// Every span recorded so far, across all threads. Call only while no
// thread is recording (after joins, or after a parallel loop returned).
std::vector<SpanRecord> Collect();
void Clear();

// At most this share of the traced total may lie outside the stage spans.
// Harness overhead between spans is under 1%; the rest of the allowance is
// for serve-mixed, whose request spans also hold the time the pinned
// server thread waits for the CPU it shares with its lane's sender and
// receiver (3-5% measured).
inline constexpr double kUnaccountedTolerance = 0.10;

// Records trace.unaccounted_frac — the share of the summed duration of the
// spans named `root` that no leaf span below them covers — and checks it
// against kUnaccountedTolerance.
void CheckUnaccounted(Result& result, const std::vector<SpanRecord>& spans,
                      const std::string& root);

// Durations (ns) of every span called `name`, in recording order per
// thread.
std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name);

// Writes the per-layer totals and the first 200,000 spans (in start
// order) as JSON; prints the layer table (count, total and self time) to
// stdout.
void Report(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace e2e::trace

#endif  // NDV_E2EBENCH_TRACE_H_
