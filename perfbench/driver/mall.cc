// mall-serve: one generator thread submits requests to QueryService on a
// seeded arrival schedule (open loop), in process, over the mall
// dataset. The executor behind the service is sized by INDOORFLOW_THREADS
// (run.py sets it to nproc - 1, leaving a core for the generator).
//
// Phases: a nominal-rate phase (serve latency, correctness, failures),
// then a search over a fixed rate ladder for the highest rate whose
// tail latency meets kLatencyLimitMs without a growing backlog.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/bench.h"
#include "driver/replay.h"
#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/serve/query_service.h"

namespace perfbench {

using namespace indoorflow;

namespace {

constexpr double kWindow = 3600.0;  // the dataset's observation window
/// The tail-latency limit a ladder rate must meet.
constexpr double kLatencyLimitMs = 250.0;
/// The rate ladder: 144 rates from 1/s, each 2^(1/18) (about 3.9%) above
/// the previous, up to 256 requests/s. Fixed, so both sides of a
/// comparison receive the same offered loads.
constexpr double kLadderLowest = 1.0;
const double kLadderRatio = std::exp2(1.0 / 18.0);
constexpr int kLadderRungs = 144;
/// The nominal rung the serve latency metrics are read at: 8 requests/s.
constexpr int kNominalRung = 54;
/// Distinct requests in the seeded pool the schedule draws from.
constexpr int kPoolSize = 48;

struct PoolRequest {
  HttpRequest http;
  TopKQuery query;
  Algorithm algorithm = Algorithm::kIterative;
  const char* endpoint = "";  // "snapshot", "interval" or "join"
  std::vector<PoiFlow> expected;
};

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The seeded pool over the observation window [t0, t1]: the four request
// shapes in rotation — /query/snapshot and /query/interval with
// algo=iterative, /query/join in snapshot and in interval form — with k in
// {5, 10} and 60-600 s windows. Times and window lengths are stratified per
// shape, so pools of different seeds cover the same spread of request
// costs.
std::vector<PoolRequest> MakePool(Rng* rng, double t0, double t1) {
  constexpr int kPerShape = kPoolSize / 4;
  const double span = t1 - t0;
  std::vector<PoolRequest> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    PoolRequest& r = pool[static_cast<size_t>(i)];
    const int shape = i % 4;
    const int stratum = i / 4;
    // A second stratum order, decorrelated from the first.
    const int other = (stratum * 5) % kPerShape;
    r.query.interval = shape == 1 || shape == 3;
    r.query.k = stratum % 2 == 0 ? 5 : 10;
    if (r.query.interval) {
      const double w =
          60.0 + (stratum + rng->Uniform(0.0, 1.0)) * 540.0 / kPerShape;
      r.query.ts =
          t0 + (other + rng->Uniform(0.0, 1.0)) * (span - w) / kPerShape;
      r.query.te = r.query.ts + w;
    } else {
      r.query.ts = t0 + 300.0 + (other + rng->Uniform(0.0, 1.0)) *
                                    (span - 600.0) / kPerShape;
    }
    r.algorithm = shape < 2 ? Algorithm::kIterative : Algorithm::kJoin;
    r.endpoint = shape == 0 ? "snapshot" : shape == 1 ? "interval" : "join";
    r.http.method = "POST";
    r.http.path = std::string("/query/") + r.endpoint;
    std::string body = "{";
    if (r.query.interval) {
      body += "\"ts\":" + Number(r.query.ts) + ",\"te\":" +
              Number(r.query.te);
    } else {
      body += "\"t\":" + Number(r.query.ts);
    }
    body += ",\"k\":" + std::to_string(r.query.k);
    if (shape < 2) body += ",\"algo\":\"iterative\"";
    r.http.body = body + "}";
  }
  return pool;
}

// The order requests are drawn from the pool: a seeded shuffle of it,
// cycled, so every request is sent equally often.
struct Draw {
  std::vector<int> order;
  size_t next = 0;

  explicit Draw(Rng* rng) {
    for (int i = 0; i < kPoolSize; ++i) order.push_back(i);
    for (int i = kPoolSize - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng->Below(i + 1))]);
    }
  }
  int Next() { return order[next++ % order.size()]; }
};

// The top-k rows of a 200 body, parsed in order.
std::vector<PoiFlow> ParseResults(const std::string& body) {
  std::vector<PoiFlow> out;
  size_t at = body.find("\"results\":[");
  while (at != std::string::npos) {
    at = body.find("{\"poi\":", at);
    if (at == std::string::npos) break;
    PoiFlow row;
    row.poi = static_cast<PoiId>(std::strtol(body.c_str() + at + 7,
                                             nullptr, 10));
    const size_t flow = body.find("\"flow\":", at);
    if (flow == std::string::npos) break;
    row.flow = std::strtod(body.c_str() + flow + 7, nullptr);
    out.push_back(row);
    at = flow;
  }
  return out;
}

struct ServeSetup {
  EngineSetup engine;
  std::unique_ptr<QueryService> service;  // destroyed before the engine
  double build_ms = 0.0;
};

ServeSetup SetUpServe(const std::string& dir) {
  ServeSetup s;
  s.engine = SetUpEngine(dir);
  const int64_t start = NowNs();
  s.service = std::make_unique<QueryService>(s.engine.engine.get(),
                                             QueryServiceOptions{});
  s.build_ms = s.engine.engine_build_ms + Ms(start, NowNs());
  return s;
}

// One open-loop phase's requests, in schedule order.
struct Phase {
  std::vector<OpenLoopRequest> timing;
  std::vector<int> pool_index;
  std::vector<int> codes;
  std::vector<std::string> bodies;
  bool drained = true;
};

// Submits `count` requests at `rate` — one arrival in each 1/rate slot,
// at a seeded offset within it — then waits for every response. Slotted
// arrivals keep the offered load at the rate over any window of a few
// slots, so a probe's verdict reflects the rate rather than how bursty its
// random arrivals happened to be.
Phase RunPhase(QueryService* service, const std::vector<PoolRequest>& pool,
               double rate, int count, Rng* rng, Draw* draw) {
  Phase phase;
  for (int slot = 0; slot < count; ++slot) {
    const double due =
        (static_cast<double>(slot) + rng->Uniform(0.0, 1.0)) / rate;
    OpenLoopRequest req;
    req.due = due;
    phase.timing.push_back(req);
    phase.pool_index.push_back(draw->Next());
  }
  const size_t n = phase.timing.size();
  phase.codes.assign(n, 0);
  phase.bodies.assign(n, "");
  std::vector<double> done(n, 0.0);
  std::atomic<size_t> completed{0};
  const int64_t origin = NowNs();
  const auto since = [origin] {
    return static_cast<double>(NowNs() - origin) / 1e9;
  };
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            origin + static_cast<int64_t>(phase.timing[i].due * 1e9))));
    phase.timing[i].submitted = since();
    service->Submit(
        pool[static_cast<size_t>(phase.pool_index[i])].http,
        [&, i](const HttpResponse& response) {
          done[i] = since();
          phase.codes[i] = response.code;
          phase.bodies[i] = response.body;
          completed.fetch_add(1, std::memory_order_release);
        });
  }
  // Every admitted request responds (deadline 1 s by default); bound the
  // wait anyway so a wedged service fails the run instead of hanging it.
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while (completed.load(std::memory_order_acquire) < n) {
    if (NowNs() > give_up) {
      phase.drained = false;
      service->Stop();  // blocks until every admitted request responded
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t i = 0; i < n; ++i) phase.timing[i].done = done[i];
  return phase;
}

// Marks each request ok when it got a 200 whose top-k matches the engine;
// returns the number of wrong answers (200s that do not match).
int64_t CheckPhase(const std::vector<PoolRequest>& pool, Phase* phase) {
  int64_t wrong = 0;
  for (size_t i = 0; i < phase->timing.size(); ++i) {
    const PoolRequest& r = pool[static_cast<size_t>(phase->pool_index[i])];
    bool ok = false;
    if (phase->codes[i] == 200) {
      ok = SameTopK(ParseResults(phase->bodies[i]), r.expected, 1e-9);
      if (!ok) ++wrong;
    }
    phase->timing[i].ok = ok;
  }
  return wrong;
}

// The nominal rate: 8 requests/s.
double NominalRate() {
  return GeometricLadder(kLadderLowest, kLadderRatio, kLadderRungs)
      [static_cast<size_t>(kNominalRung)];
}

// Fills every pool request's expected answer, before any timed phase, and
// sums the engine's work per algorithm into `stats`.
void ComputeExpected(const QueryEngine& engine,
                     std::vector<PoolRequest>* pool, QueryStats (*stats)[2]) {
  for (PoolRequest& r : *pool) {
    QueryStats one;
    r.expected = RunEngine(engine, r.query, r.algorithm, &one);
    (*stats)[r.algorithm == Algorithm::kIterative ? 0 : 1] += one;
  }
}

// Books a checked phase on the result: attempted and failed requests, and
// a failed check for wrong answers or a phase that never drained.
void BookPhase(const char* what, const Phase& phase, int64_t wrong,
               Result* result) {
  for (const OpenLoopRequest& req : phase.timing) {
    ++result->attempted;
    if (!req.ok) ++result->failed;
  }
  if (!phase.drained) result->Fail(std::string(what) + " never drained");
  if (wrong > 0) {
    result->Fail(std::string(what) + ": " + std::to_string(wrong) +
                 " responses differ from the engine's answers");
  }
}

}  // namespace

void MeasureServeLayers(const QueryEngine& engine, double t0, double t1,
                        Rng* rng, bool executor_metrics, Result* result) {
  QueryService service(&engine, QueryServiceOptions{});
  std::vector<PoolRequest> pool = MakePool(rng, t0, t1);
  Draw draw(rng);
  QueryStats stats[2];
  ComputeExpected(engine, &pool, &stats);

  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter& requests = registry.counter("serve.requests");
  Counter& shed = registry.counter("serve.shed");
  Counter& deadline = registry.counter("serve.deadline_exceeded");
  const int64_t requests_before = requests.value();
  const int64_t shed_before = shed.value();
  const int64_t deadline_before = deadline.value();
  Phase phase =
      RunPhase(&service, pool, NominalRate(), kPoolSize, rng, &draw);
  BookPhase("serve layers: the open-loop phase", phase,
            CheckPhase(pool, &phase), result);
  const Summary serve = Summarize(LatenciesMs(phase.timing));
  const Summary late = Summarize(LatenessMs(phase.timing));

  // Registry readouts of the phase, at the percentile the benchmark's own
  // tail rule picked for its latencies.
  const double sent = std::max(
      1.0, static_cast<double>(requests.value() - requests_before));
  Histogram& queue_wait = registry.histogram("serve.queue_wait_us");
  result->Add("serve.queue_wait_ms_p50", queue_wait.Percentile(50) / 1e3,
              "ms");
  result->Add("serve.queue_wait_ms_tail",
              queue_wait.Percentile(serve.tail_pct) / 1e3, "ms");
  if (executor_metrics) {
    Histogram& task_wait = registry.histogram("executor.task_wait_us");
    result->Add("common.executor.task_wait_us_p50", task_wait.Percentile(50),
                "us");
    result->Add("common.executor.task_wait_us_tail",
                task_wait.Percentile(serve.tail_pct), "us");
  }
  result->Add("serve.shed_frac",
              static_cast<double>(shed.value() - shed_before) / sent, "frac");
  result->Add("serve.deadline_frac",
              static_cast<double>(deadline.value() - deadline_before) / sent,
              "frac");
  result->Add("driver.late_ms_p50", late.p50, "ms");
  result->Add("driver.late_ms_max", late.max, "ms");

  // QueryService::Evaluate called directly: the serve layer's cost per
  // endpoint with no queueing, two passes over the pool.
  for (const char* endpoint : {"snapshot", "interval", "join"}) {
    std::vector<double> ms;
    for (int pass = 0; pass < 2; ++pass) {
      for (const PoolRequest& r : pool) {
        if (std::string(r.endpoint) != endpoint) continue;
        const int64_t start = NowNs();
        const HttpResponse response = service.Evaluate(r.http, start);
        ms.push_back(Ms(start, NowNs()));
        ++result->attempted;
        if (response.code != 200 ||
            !SameTopK(ParseResults(response.body), r.expected, 1e-9)) {
          ++result->failed;
          result->Fail(std::string("serve layers: Evaluate on /query/") +
                       endpoint + " returned a wrong answer");
        }
      }
    }
    const Summary e = Summarize(ms);
    result->Add(std::string("serve.evaluate_ms_p50.") + endpoint, e.p50,
                "ms");
    result->Add(std::string("serve.evaluate_ms_tail.") + endpoint, e.tail,
                "ms");
  }
}

Result RunMall(const Options& options) {
  Result result;
  WriteDataset(DatasetKind::kMall, options.data_dir);
  ServeSetup setup;
  const double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { return SetUpServe(options.data_dir); }, &setup);
  const QueryEngine& engine = *setup.engine.engine;
  QueryService* service = setup.service.get();
  Rng rng(options.seed);

  if (options.trace) {
    MeasureServeLayers(engine, 0.0, kWindow, &rng, true, &result);
    AddSetupLayers(setup.engine.load, setup.build_ms, &result);
    // Engine-level split on this dataset: two requests of each shape.
    const std::vector<PoolRequest> pool = MakePool(&rng, 0.0, kWindow);
    std::vector<TopKQuery> subset;
    for (int i = 0; i < 8; ++i) {
      subset.push_back(pool[static_cast<size_t>(i)].query);
    }
    ReplayLayers(*setup.engine.data, engine, subset, options.spans_out,
                 &result);
    return result;
  }

  std::vector<PoolRequest> pool = MakePool(&rng, 0.0, kWindow);
  Draw draw(&rng);
  QueryStats pool_stats[2];
  ComputeExpected(engine, &pool, &pool_stats);

  // Nominal phase: the serve latency metrics, the failure count, and the
  // ladder search's first probe. It sends whole cycles of the pool — about
  // 35% of the run, at least one cycle — so every run's latency samples
  // cover each pool request equally often.
  const std::vector<double> ladder =
      GeometricLadder(kLadderLowest, kLadderRatio, kLadderRungs);
  const double nominal_rate = NominalRate();
  const int64_t cycles = std::max<int64_t>(
      1, std::llround(0.35 * options.seconds * nominal_rate / kPoolSize));
  Phase nominal = RunPhase(service, pool, nominal_rate,
                           static_cast<int>(cycles * kPoolSize), &rng, &draw);
  BookPhase("mall-serve: the nominal phase", nominal,
            CheckPhase(pool, &nominal), &result);
  std::vector<double> point_ms;  // snapshot-shaped requests
  std::vector<double> interval_ms;
  const std::vector<double> latency_ms = LatenciesMs(nominal.timing);
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    const bool interval =
        pool[static_cast<size_t>(nominal.pool_index[i])].query.interval;
    (interval ? interval_ms : point_ms).push_back(latency_ms[i]);
  }
  const Summary serve = Summarize(latency_ms);
  const Summary serve_point = Summarize(point_ms);
  const Summary serve_interval = Summarize(interval_ms);
  const Summary late = Summarize(LatenessMs(nominal.timing));

  // The ladder search starts at the highest rung within 75% of the
  // executor's estimated capacity — its workers over the mean request time
  // at the nominal rate, where requests barely queue — so it typically
  // settles in about four probes, each given a fixed share of the run.
  double busy_s = 0.0;
  int64_t served = 0;
  for (const OpenLoopRequest& req : nominal.timing) {
    if (!req.ok) continue;
    busy_s += req.done - req.submitted;
    ++served;
  }
  const double capacity =
      busy_s > 0.0 ? Executor::Default().worker_count() *
                         static_cast<double>(served) / busy_s
                   : 0.0;
  int first = kNominalRung;
  while (first + 1 < kLadderRungs &&
         ladder[static_cast<size_t>(first + 1)] <= 0.75 * capacity) {
    ++first;
  }
  const double probe_seconds = options.seconds * 0.65 / 4.0;
  int64_t probe_wrong = 0;
  int probes = 0;
  const auto probe_passes = [&](int rung) {
    ++probes;
    if (rung == kNominalRung) {
      return nominal.drained && RatePasses(nominal.timing, kLatencyLimitMs);
    }
    const double rate = ladder[static_cast<size_t>(rung)];
    Phase probe = RunPhase(service, pool, rate,
                           static_cast<int>(std::ceil(rate * probe_seconds)),
                           &rng, &draw);
    probe_wrong += CheckPhase(pool, &probe);
    const bool passes =
        probe.drained && RatePasses(probe.timing, kLatencyLimitMs);
    char name[48];
    std::snprintf(name, sizeof(name), "ladder_probe_%.1f_per_s", rate);
    result.Note(name, passes ? 1.0 : 0.0, "pass");
    return passes;
  };
  const int best = HighestPassingRung(kLadderRungs, first, probe_passes);
  if (probe_wrong > 0) {
    result.Fail("mall-serve: " + std::to_string(probe_wrong) +
                " ladder responses differ from the engine's answers");
  }
  const double max_qps = best >= 0 ? ladder[static_cast<size_t>(best)] : 0.0;

  result.NoteSummary("serve", serve);
  result.NoteSummary("serve_snapshot", serve_point);
  result.NoteSummary("serve_interval", serve_interval);
  result.Note("serve_max_qps", max_qps, "1/s");
  result.Note("serve_nominal_rate", nominal_rate, "1/s");
  result.Note("serve_latency_limit_ms", kLatencyLimitMs, "ms");
  result.Note("ladder_probes", probes, "count");
  result.Note("capacity_estimate_per_s", capacity, "1/s");
  result.Note("driver_late_ms_p50", late.p50, "ms");
  result.Note("driver_late_ms_max", late.max, "ms");
  // Snapshot- and interval-shaped requests cost ~10-25 ms and ~30-150 ms:
  // reported apart, each median sits inside one cost cluster instead of
  // in the gap between them.
  AddEndToEnd(serve_point, serve_interval, max_qps, setup_s, &result);

  for (const auto& [name, value] : StatsCounts(pool_stats)) {
    result.Count(name, value);
  }
  result.Count("serve.nominal_requests",
               static_cast<int64_t>(nominal.timing.size()));
  return result;
}

}  // namespace perfbench
