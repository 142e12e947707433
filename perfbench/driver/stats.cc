#include "driver/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Summary Summarize(std::vector<double> samples, int beyond) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const int64_t median_rank = (s.n - 1) / 2;
  const int64_t tail_rank = std::max(median_rank, s.n - 1 - beyond);
  s.p50 = samples[static_cast<size_t>(median_rank)];
  s.tail = samples[static_cast<size_t>(tail_rank)];
  s.tail_pct = 100.0 * static_cast<double>(tail_rank + 1) /
               static_cast<double>(s.n);
  s.max = samples.back();
  return s;
}

std::vector<double> LatenciesMs(const std::vector<OpenLoopRequest>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const OpenLoopRequest& r : reqs) {
    out.push_back(r.ok ? (r.done - r.due) * 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> LatenessMs(const std::vector<OpenLoopRequest>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const OpenLoopRequest& r : reqs) {
    out.push_back((r.submitted - r.due) * 1e3);
  }
  return out;
}

int64_t BacklogAt(const std::vector<OpenLoopRequest>& reqs, double t) {
  int64_t backlog = 0;
  for (const OpenLoopRequest& r : reqs) {
    if (r.due <= t) ++backlog;
    if (r.done <= t) --backlog;
  }
  return backlog;
}

bool BacklogGrew(const std::vector<OpenLoopRequest>& reqs) {
  if (reqs.size() < 2) return false;
  const double mid = reqs[reqs.size() / 2].due;
  const double end = reqs.back().due;
  const int64_t between =
      static_cast<int64_t>(reqs.size() - 1 - reqs.size() / 2);
  const int64_t slack =
      std::max<int64_t>(3, static_cast<int64_t>(std::ceil(0.05 * between)));
  return BacklogAt(reqs, end) - BacklogAt(reqs, mid) > slack;
}

bool RatePasses(const std::vector<OpenLoopRequest>& reqs, double limit_ms) {
  if (reqs.empty()) return false;
  return Summarize(LatenciesMs(reqs)).tail <= limit_ms && !BacklogGrew(reqs);
}

int HighestPassingRung(int rungs, int first,
                       const std::function<bool(int)>& passes) {
  if (rungs <= 0 || first < 0 || first >= rungs) return -1;
  int lo = -1;     // highest index known to pass
  int hi = rungs;  // lowest index known to fail (or past the ladder)
  if (passes(first)) {
    lo = first;
    for (int step = 1; lo + step < hi; step *= 2) {
      if (!passes(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  } else {
    hi = first;
    for (int step = 1; hi - step > lo; step *= 2) {
      if (passes(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  }
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<double> GeometricLadder(double lowest, double ratio, int count) {
  std::vector<double> rates;
  rates.reserve(static_cast<size_t>(count));
  double rate = lowest;
  for (int i = 0; i < count; ++i) {
    rates.push_back(rate);
    rate *= ratio;
  }
  return rates;
}

}  // namespace perfbench
