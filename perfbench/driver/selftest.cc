// Self-tests of the benchmark's own arithmetic: the tail-percentile rule,
// open-loop timing from the due time, the serve_max_qps ladder rule and
// span self times. Run by `python3 perfbench/run.py --self-test`.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <vector>

#include "driver/spans.h"
#include "driver/stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TailRule() {
  // 100 samples: rank 89 (the 90th percentile) has exactly 10 beyond it.
  Summary s = Summarize(Iota(100));
  EXPECT(s.n == 100);
  EXPECT(s.p50 == 50.0);
  EXPECT(s.tail == 90.0);
  EXPECT(s.tail_pct == 90.0);
  EXPECT(s.max == 100.0);
  // Every size: at least 10 samples beyond the tail, and the next rank up
  // would leave fewer — unless the rule fell back to the median.
  for (int n = 1; n <= 300; ++n) {
    const Summary t = Summarize(Iota(n));
    int beyond = 0;
    for (double v : Iota(n)) beyond += v > t.tail ? 1 : 0;
    if (t.tail > t.p50) {
      EXPECT(beyond == kTailBeyond);
    } else {
      EXPECT(t.tail == t.p50);
      EXPECT(n - 1 - (n - 1) / 2 >= beyond);
    }
  }
  // Too few samples for a tail above the median: the median stands in.
  s = Summarize(Iota(15));
  EXPECT(s.tail == s.p50);
  EXPECT(s.p50 == 8.0);
  // Order does not matter.
  s = Summarize({5, 1, 4, 2, 3});
  EXPECT(s.p50 == 3.0);
  EXPECT(Summarize({}).n == 0);
}

OpenLoopRequest Req(double due, double submitted, double done, bool ok) {
  OpenLoopRequest r;
  r.due = due;
  r.submitted = submitted;
  r.done = done;
  r.ok = ok;
  return r;
}

void DueTimeLatency() {
  // A generator 0.5 s late charges the delay to the request's latency.
  const std::vector<OpenLoopRequest> reqs = {Req(1.0, 1.5, 1.7, true),
                                             Req(2.0, 2.0, 2.1, false)};
  const std::vector<double> latency = LatenciesMs(reqs);
  EXPECT(std::abs(latency[0] - 700.0) < 1e-9);
  EXPECT(std::isinf(latency[1]));  // a failure misses every limit
  const std::vector<double> late = LatenessMs(reqs);
  EXPECT(std::abs(late[0] - 500.0) < 1e-9);
  EXPECT(late[1] == 0.0);
}

// `n` requests at `rate`/s that each take `service` s, the listed ones
// failing.
std::vector<OpenLoopRequest> Steady(int n, double rate, double service,
                                    const std::vector<int>& failing) {
  std::vector<OpenLoopRequest> reqs;
  for (int i = 0; i < n; ++i) {
    const double due = i / rate;
    reqs.push_back(Req(due, due, due + service, true));
  }
  for (int i : failing) reqs[static_cast<size_t>(i)].ok = false;
  return reqs;
}

void LadderRule() {
  // Healthy: 10 ms per request at 50/s passes a 100 ms limit.
  EXPECT(RatePasses(Steady(100, 50.0, 0.010, {}), 100.0));
  // Too slow for the limit.
  EXPECT(!RatePasses(Steady(100, 50.0, 0.150, {}), 100.0));
  // Failures count as misses: 11 of 100 push the tail to infinity...
  std::vector<int> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i * 9);
  EXPECT(!RatePasses(Steady(100, 50.0, 0.010, eleven), 100.0));
  // ...while 10 stay beyond the tail percentile.
  std::vector<int> ten(eleven.begin(), eleven.end() - 1);
  EXPECT(RatePasses(Steady(100, 50.0, 0.010, ten), 100.0));
  // A growing backlog disqualifies a rate even under a lax limit: served
  // one per 30 ms while due one per 20 ms.
  std::vector<OpenLoopRequest> slow;
  for (int i = 0; i < 100; ++i) {
    slow.push_back(Req(i * 0.020, i * 0.020, (i + 1) * 0.030, true));
  }
  EXPECT(BacklogGrew(slow));
  EXPECT(!RatePasses(slow, 1e9));
  EXPECT(!BacklogGrew(Steady(100, 50.0, 0.010, {})));
  EXPECT(BacklogAt(slow, slow.back().due) > 30);
  EXPECT(!RatePasses({}, 100.0));

  // The search over a monotone ladder, from every first probe: exact, each
  // rung probed at most once, and few probes when it starts near the
  // answer.
  for (int first = 0; first < 64; ++first) {
    for (int threshold = -1; threshold < 64; ++threshold) {
      std::vector<int> seen;
      const int found = HighestPassingRung(64, first, [&](int rung) {
        seen.push_back(rung);
        return rung <= threshold;
      });
      EXPECT(found == threshold);
      EXPECT(seen.front() == first);
      std::vector<int> sorted = seen;
      std::sort(sorted.begin(), sorted.end());
      EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) ==
             sorted.end());
      EXPECT(seen.size() <= 13);
      if (std::abs(threshold - first) <= 1) EXPECT(seen.size() <= 4);
    }
  }
  const std::vector<double> ladder = GeometricLadder(2.0, 1.5, 3);
  EXPECT(ladder.size() == 3);
  EXPECT(ladder[0] == 2.0 && ladder[1] == 3.0 && ladder[2] == 4.5);
}

SpanRecord Span(int32_t layer, int32_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.layer = layer;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void SelfTimes() {
  // root [0,100) with children [10,40) and [50,60); [15,20) under the
  // first child.
  const std::vector<SpanRecord> nested = {
      Span(0, -1, 0, 100), Span(1, 0, 10, 40), Span(2, 1, 15, 20),
      Span(1, 0, 50, 60)};
  const std::vector<int64_t> self = SelfTimesNs(nested);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 25);
  EXPECT(self[2] == 5);
  EXPECT(self[3] == 10);
  const std::vector<int64_t> by_layer = SelfNsByLayer(nested, 3);
  EXPECT(by_layer[0] == 60 && by_layer[1] == 35 && by_layer[2] == 5);
  // Nested spans: self times add up to the roots exactly.
  EXPECT(by_layer[0] + by_layer[1] + by_layer[2] == RootNs(nested));
  // Overlapping children are merged, and a child is clipped to its parent.
  const std::vector<SpanRecord> messy = {
      Span(0, -1, 0, 100), Span(1, 0, 10, 40), Span(1, 0, 30, 60),
      Span(1, 0, 90, 130)};
  EXPECT(SelfTimesNs(messy)[0] == 100 - 50 - 10);
  // The recorder nests scoped spans under the innermost open one.
  SpanRecorder recorder;
  const int32_t outer = recorder.Layer("outer");
  const int32_t inner = recorder.Layer("inner");
  EXPECT(recorder.Layer("outer") == outer);
  {
    ScopedSpan a(&recorder, outer, 7);
    { ScopedSpan b(&recorder, inner, 7); }
    { ScopedSpan c(&recorder, inner, 7); }
  }
  { ScopedSpan d(&recorder, outer, 8); }
  const std::vector<SpanRecord>& spans = recorder.spans();
  EXPECT(spans.size() == 4);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0 &&
         spans[2].parent == 0 && spans[3].parent == -1);
  EXPECT(spans[3].op == 8);
  const std::vector<int64_t> layers = SelfNsByLayer(spans, 2);
  EXPECT(layers[0] + layers[1] == RootNs(spans));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TailRule();
  perfbench::DueTimeLatency();
  perfbench::LadderRule();
  perfbench::SelfTimes();
  if (perfbench::failures > 0) {
    std::printf("perfbench self-test: %d failures\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
