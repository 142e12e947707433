// In-memory span recorder for the traced run: one span per call into a
// layer, with its parent and the operation it belongs to. Spans are
// appended to a vector during the run and written out at the end; layer
// self times are computed from them afterwards.
//
// Single-threaded: the traced paths run on the benchmark's own thread.

#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  int32_t layer = 0;
  int32_t parent = -1;  // index into the span vector, -1 for a root
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Interns a layer name ("geometry", "core.derive", ...).
  int32_t Layer(const std::string& name);
  const std::vector<std::string>& layers() const { return layers_; }

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(int32_t layer, int64_t op);
  void End(int32_t span);

  /// Records an already-measured span under the innermost open span.
  void Add(int32_t layer, int64_t op, int64_t start_ns, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes one "layer,parent,op,start_ns,end_ns" line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> layers_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for the lifetime of the scope; a null recorder makes it a
/// no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int32_t layer, int64_t op)
      : recorder_(recorder),
        span_(recorder != nullptr ? recorder->Begin(layer, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t span_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (children are clipped to the parent and their
/// overlaps merged). Aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Self time summed per layer id (vector indexed by layer).
std::vector<int64_t> SelfNsByLayer(const std::vector<SpanRecord>& spans,
                                   size_t layer_count);

/// Summed duration of the root spans.
int64_t RootNs(const std::vector<SpanRecord>& spans);

/// Durations (ns) of the spans of one layer, in recording order.
std::vector<double> DurationsNs(const std::vector<SpanRecord>& spans,
                                int32_t layer);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
