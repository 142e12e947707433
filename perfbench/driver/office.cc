// office-topk: one closed-loop client runs a seeded list of snapshot and
// interval top-k queries against QueryEngine over the office dataset, each
// query once with Algorithm::kIterative and once with Algorithm::kJoin.

#include <string>
#include <vector>

#include "driver/bench.h"
#include "driver/replay.h"

namespace perfbench {

using namespace indoorflow;

namespace {

constexpr double kDuration = 1800.0;  // the dataset's observation period
constexpr int kKs[] = {1, 10, 50};
constexpr double kWindows[] = {60.0, 300.0, 600.0};

// One pass of the seeded query list: six snapshot queries and one interval
// query per window length, interleaved. Query times are stratified — each
// snapshot falls in its own sixth of the period, and pass p places each
// window's start in the (p mod 5)-th fifth of its range — so runs with
// different seeds sample the same spread of query costs. k rotates across
// passes so every (window, k) pair recurs. Queries keep kEdge seconds away
// from both ends of the period: before an object's first detection its
// region is a ring of unbounded growth, and intervals there cost up to 10x
// more (an 8.8 s query at ts=5 against 0.7-1.8 s past ts=150), which would
// make the figures depend on how many of them a seed draws.
std::vector<TopKQuery> Pass(Rng* rng, int pass) {
  constexpr double kEdge = 120.0;
  constexpr double kSpan = kDuration - 2.0 * kEdge;
  constexpr int kIntervalStrata = 5;
  std::vector<TopKQuery> queries;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      TopKQuery q;
      q.ts = kEdge + (2 * i + j + rng->Uniform(0.0, 1.0)) * kSpan / 6.0;
      q.k = kKs[(pass + 2 * i + j) % 3];
      queries.push_back(q);
    }
    TopKQuery q;
    q.interval = true;
    q.ts = kEdge + (pass % kIntervalStrata + rng->Uniform(0.0, 1.0)) *
                       (kSpan - kWindows[i]) / kIntervalStrata;
    q.te = q.ts + kWindows[i];
    q.k = kKs[(pass + i) % 3];
    queries.push_back(q);
  }
  return queries;
}

}  // namespace

Result RunOffice(const Options& options) {
  Result result;
  WriteDataset(DatasetKind::kOffice, options.data_dir);
  EngineSetup setup;
  const double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { return SetUpEngine(options.data_dir); }, &setup);
  const QueryEngine& engine = *setup.engine;
  Rng rng(options.seed);

  if (options.trace) {
    // The replayed subset: three snapshot queries and one interval query
    // of the first pass.
    const std::vector<TopKQuery> pass = Pass(&rng, 0);
    const std::vector<TopKQuery> subset = {pass[0], pass[1], pass[3],
                                           pass[2 + 3 * rng.Below(3)]};
    AddSetupLayers(setup.load, setup.engine_build_ms, &result);
    ReplayLayers(*setup.data, engine, subset, options.spans_out, &result);
    return result;
  }

  // Closed loop: the next query starts when the previous one returns. The
  // first pass always completes (its work counts are the seed's
  // machine-independent counters); then passes continue until the run's
  // time is up.
  std::vector<double> snapshot_ms;
  std::vector<double> interval_ms;
  QueryStats first_pass[2];
  int64_t executions = 0;
  double query_ms = 0.0;
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  bool done = false;
  for (int p = 0; !done; ++p) {
    const std::vector<TopKQuery> pass = Pass(&rng, p);
    for (const TopKQuery& q : pass) {
      if (p > 0 && NowNs() >= deadline) {
        done = true;
        break;
      }
      std::vector<PoiFlow> answers[2];
      for (int a = 0; a < 2; ++a) {
        const Algorithm algo = a == 0 ? Algorithm::kIterative
                                      : Algorithm::kJoin;
        QueryStats stats;
        const int64_t t0 = NowNs();
        answers[a] = RunEngine(engine, q, algo, &stats);
        const double ms = Ms(t0, NowNs());
        (q.interval ? interval_ms : snapshot_ms).push_back(ms);
        query_ms += ms;
        ++executions;
        if (p == 0) first_pass[a] += stats;
      }
      ++result.attempted;
      if (!AgreeTopK(answers[0], answers[1], 1e-9)) {
        ++result.failed;
        result.Fail("office-topk: iterative and join disagree for " +
                    std::string(q.interval ? "interval" : "snapshot") +
                    " ts=" + std::to_string(q.ts) +
                    " k=" + std::to_string(q.k));
      }
    }
    if (NowNs() >= deadline) done = true;
  }

  const Summary snapshot = Summarize(snapshot_ms);
  const Summary interval = Summarize(interval_ms);
  const double qps = static_cast<double>(executions) / (query_ms / 1e3);
  result.NoteSummary("snapshot", snapshot);
  result.NoteSummary("interval", interval);
  result.Note("queries_per_s", qps, "1/s");
  AddEndToEnd(snapshot, interval, qps, setup_s, &result);

  for (const auto& [name, value] : StatsCounts(first_pass)) {
    result.Count(name, value);
  }
  return result;
}

}  // namespace perfbench
