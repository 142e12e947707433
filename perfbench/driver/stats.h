// Sample statistics shared by every workload: the median/tail summary,
// open-loop latency bookkeeping, and the serve_max_qps ladder rule.
// Pure functions, covered by selftest.cc.

#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a percentile for it to count as
/// the tail.
inline constexpr int kTailBeyond = 10;

/// Median and tail of one sample set. Percentiles are nearest-rank on the
/// sorted samples: rank r (0-based) is the (r + 1) / n percentile and has
/// n - 1 - r samples beyond it. The tail is the highest rank with at least
/// kTailBeyond samples beyond it, never below the median; `tail_pct`
/// records which percentile that was.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double max = 0.0;
};

Summary Summarize(std::vector<double> samples, int beyond = kTailBeyond);

/// Open-loop request timing, all times in seconds from one origin.
/// Latency runs from the request's due time, so a stalled generator
/// charges its delay to every request it held back; lateness is how far
/// behind schedule the generator submitted.
struct OpenLoopRequest {
  double due = 0.0;
  double submitted = 0.0;
  double done = 0.0;
  bool ok = false;  // 200 with a correct body
};

/// Latency of each request in ms; a failed request counts as +infinity,
/// so it misses any limit.
std::vector<double> LatenciesMs(const std::vector<OpenLoopRequest>& reqs);
std::vector<double> LatenessMs(const std::vector<OpenLoopRequest>& reqs);

/// Requests due by `t` minus requests completed by `t`.
int64_t BacklogAt(const std::vector<OpenLoopRequest>& reqs, double t);

/// Whether the backlog grew across the probe: the backlog at the last due
/// time exceeds the backlog at the middle due time by more than
/// max(3, 5% of the requests due in between).
bool BacklogGrew(const std::vector<OpenLoopRequest>& reqs);

/// One ladder rate passes when its tail latency (failures as +infinity)
/// meets `limit_ms` and its backlog did not grow.
bool RatePasses(const std::vector<OpenLoopRequest>& reqs, double limit_ms);

/// Highest index of a fixed ascending ladder whose probe passes, taking
/// pass/fail as monotone in the rate. Probes `first`, then gallops away
/// from it (steps of 1, 2, 4, ... rungs: upward while probes pass,
/// downward while they fail) until the answer is bracketed, then bisects
/// the bracket. A start near the answer needs few probes. -1 when no
/// probed index passes. Probes each index at most once.
int HighestPassingRung(int rungs, int first,
                       const std::function<bool(int)>& passes);

/// The fixed geometric rate ladder: `count` rates from `lowest`, each
/// `ratio` times the previous.
std::vector<double> GeometricLadder(double lowest, double ratio, int count);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
