// live-ingest: the cph-like airport dataset's tracking records replayed as
// a reading stream (each record's open and close reading, time-ordered)
// into a StreamingMonitor with default options, in 1-simulated-second
// IngestBatch calls, with a dashboard CurrentTopK(now, 10) interleaved on
// the same thread every kPollEvery stream-seconds.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "driver/bench.h"
#include "driver/replay.h"
#include "src/common/metrics.h"
#include "src/core/streaming.h"

namespace perfbench {

using namespace indoorflow;

namespace {

/// Stream-clock seconds between two dashboard polls.
constexpr double kPollEvery = 30.0;
constexpr int kDashboardK = 10;

struct LiveSetup {
  std::unique_ptr<LoadedData> data;
  std::vector<RawReading> readings;  // time-ordered replay stream
  std::unique_ptr<StreamingMonitor> monitor;
  LoadTimes load;
  double build_ms = 0.0;
};

LiveSetup SetUpLive(const std::string& dir) {
  LiveSetup s;
  s.data = LoadDataset(dir, &s.load);
  // The record boundaries as readings, stably time-sorted across objects
  // (bench/bench_streaming.cc's replay); counted as loading the stream.
  const int64_t start = NowNs();
  const ObjectTrackingTable& ott = s.data->ott;
  s.readings.reserve(ott.size() * 2);
  for (const ObjectId object : ott.objects()) {
    for (const RecordIndex index : ott.ChainOf(object)) {
      const TrackingRecord& record = ott.record(index);
      s.readings.push_back({object, record.device_id, record.ts});
      s.readings.push_back({object, record.device_id, record.te});
    }
  }
  std::stable_sort(s.readings.begin(), s.readings.end(),
                   [](const RawReading& a, const RawReading& b) {
                     return a.t < b.t;
                   });
  const int64_t built = NowNs();
  s.load.tracking_ms += Ms(start, built);
  s.monitor = std::make_unique<StreamingMonitor>(
      s.data->deployment, s.data->pois, StreamingOptions{});
  s.build_ms = Ms(built, NowNs());
  return s;
}

// The stream cut into 1-simulated-second batches; `offset` in [0, 1)
// shifts the batch boundaries.
std::vector<std::vector<RawReading>> Batches(
    const std::vector<RawReading>& readings, double offset) {
  std::vector<std::vector<RawReading>> batches;
  double bucket = -1e300;
  for (const RawReading& r : readings) {
    const double b = std::floor(r.t - offset);
    if (batches.empty() || b != bucket) {
      batches.emplace_back();
      bucket = b;
    }
    batches.back().push_back(r);
  }
  return batches;
}

struct PassStats {
  std::vector<double> poll_ms;
  std::vector<double> batch_us;
  int64_t readings = 0;
  int64_t ingest_ns = 0;
  int64_t polls = 0;
  int64_t rejected_batches = 0;
  double dirty_ratio_sum = 0.0;
  double track_count_sum = 0.0;
  bool complete = true;
};

// Replays the batches into `monitor`, polling every kPollEvery stream
// seconds from `first_poll`. Stops early at `deadline_ns` when `may_stop`.
// With a recorder, each batch is a root span holding its ingest and, when
// due, its poll.
void RunPass(StreamingMonitor* monitor,
             const std::vector<std::vector<RawReading>>& batches,
             double first_poll, bool may_stop, int64_t deadline_ns,
             SpanRecorder* recorder, PassStats* out) {
  Gauge& dirty =
      MetricsRegistry::Default().gauge("streaming.topk_dirty_ratio");
  const int32_t batch_layer =
      recorder != nullptr ? recorder->Layer("streaming.batch") : -1;
  const int32_t ingest_layer =
      recorder != nullptr ? recorder->Layer("streaming.ingest") : -1;
  const int32_t poll_layer =
      recorder != nullptr ? recorder->Layer("streaming.poll") : -1;
  double next_poll = first_poll;
  int64_t op = 0;
  for (const std::vector<RawReading>& batch : batches) {
    if (may_stop && NowNs() >= deadline_ns) {
      out->complete = false;
      return;
    }
    ScopedSpan root(recorder, batch_layer, op);
    const int64_t start = NowNs();
    const Status status = monitor->IngestBatch(batch);
    const int64_t end = NowNs();
    if (recorder != nullptr) recorder->Add(ingest_layer, op, start, end);
    out->ingest_ns += end - start;
    out->batch_us.push_back(static_cast<double>(end - start) / 1e3);
    if (status.ok()) {
      out->readings += static_cast<int64_t>(batch.size());
    } else {
      ++out->rejected_batches;
    }
    if (monitor->now() >= next_poll) {
      ScopedSpan poll(recorder, poll_layer, op);
      const int64_t poll_start = NowNs();
      const std::vector<PoiFlow> top =
          monitor->CurrentTopK(monitor->now(), kDashboardK);
      out->poll_ms.push_back(Ms(poll_start, NowNs()));
      ++out->polls;
      out->dirty_ratio_sum += dirty.value();
      out->track_count_sum += static_cast<double>(monitor->TrackCount());
      while (next_poll <= monitor->now()) next_poll += kPollEvery;
    }
    ++op;
  }
}

// The final dashboard answer must be bit-identical to a 1-shard monitor
// fed the same stream.
void CheckAgainstOneShard(const LiveSetup& setup,
                          const StreamingMonitor& monitor,
                          const std::vector<std::vector<RawReading>>& batches,
                          Result* result) {
  StreamingOptions options;
  options.shards = 1;
  StreamingMonitor reference(setup.data->deployment, setup.data->pois,
                             options);
  for (const std::vector<RawReading>& batch : batches) {
    if (!reference.IngestBatch(batch).ok()) {
      result->Fail("live-ingest: the 1-shard monitor rejected a batch");
      return;
    }
  }
  const double t = monitor.now();
  if (reference.now() != t ||
      !SameTopK(monitor.CurrentTopK(t, kDashboardK),
                reference.CurrentTopK(t, kDashboardK), 0.0)) {
    result->Fail("live-ingest: CurrentTopK differs from a 1-shard monitor "
                 "fed the same stream");
  }
}

}  // namespace

Result RunLive(const Options& options) {
  Result result;
  WriteDataset(DatasetKind::kCph, options.data_dir);
  LiveSetup setup;
  const double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { return SetUpLive(options.data_dir); }, &setup);
  Rng rng(options.seed);
  const double offset = rng.Uniform(0.0, 1.0);
  const double first_poll =
      setup.readings.front().t + rng.Uniform(0.0, kPollEvery);
  const std::vector<std::vector<RawReading>> batches =
      Batches(setup.readings, offset);

  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter& recomputes = registry.counter("streaming.shard_recomputes");
  Counter& reuses = registry.counter("streaming.shard_reuses");
  Counter& rejected = registry.counter("streaming.readings_rejected");
  Counter& evicted = registry.counter("streaming.tracks_evicted");
  const int64_t recomputes_before = recomputes.value();
  const int64_t reuses_before = reuses.value();
  const int64_t rejected_before = rejected.value();
  const int64_t evicted_before = evicted.value();

  // The first pass always completes on the set-up monitor; its counts are
  // the seed's machine-independent counters.
  SpanRecorder recorder;
  PassStats first;
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  RunPass(setup.monitor.get(), batches, first_poll, false, deadline,
          options.trace ? &recorder : nullptr, &first);
  const int64_t first_end = NowNs();
  const int64_t pass_recomputes = recomputes.value() - recomputes_before;
  const int64_t pass_reuses = reuses.value() - reuses_before;
  const int64_t pass_rejected = rejected.value() - rejected_before;
  result.Count("streaming.readings_applied", first.readings);
  result.Count("streaming.batches", static_cast<int64_t>(batches.size()));
  result.Count("streaming.polls", first.polls);
  result.Count("streaming.shard_recomputes", pass_recomputes);
  result.Count("streaming.shard_reuses", pass_reuses);
  result.Count("streaming.tracks_evicted", evicted.value() - evicted_before);
  result.Count("tracking.readings_rejected", pass_rejected);
  CheckAgainstOneShard(setup, *setup.monitor, batches, &result);

  if (options.trace) {
    const std::vector<SpanRecord>& spans = recorder.spans();
    const std::vector<int64_t> self =
        SelfNsByLayer(spans, recorder.layers().size());
    const double root = static_cast<double>(RootNs(spans));
    const auto share = [&](const char* layer) {
      const size_t id = static_cast<size_t>(recorder.Layer(layer));
      return id < self.size() && root > 0
                 ? static_cast<double>(self[id]) / root
                 : 0.0;
    };
    const Summary batch = Summarize(first.batch_us);
    const double polls =
        std::max<double>(1.0, static_cast<double>(first.polls));
    result.Add("streaming.ingest_batch_us_p50", batch.p50, "us");
    result.Add("streaming.ingest_batch_us_tail", batch.tail, "us");
    result.Add("streaming.ns_per_reading",
               static_cast<double>(first.ingest_ns) /
                   std::max<double>(1.0, static_cast<double>(first.readings)),
               "ns");
    result.Add("streaming.dirty_ratio", first.dirty_ratio_sum / polls,
               "frac");
    result.Add("streaming.shard_recomputes",
               static_cast<double>(pass_recomputes), "count");
    result.Add("streaming.shard_reuses", static_cast<double>(pass_reuses),
               "count");
    result.Add("streaming.track_table_size", first.track_count_sum / polls,
               "count");
    result.Add("tracking.readings_rejected",
               static_cast<double>(pass_rejected), "count");
    result.Add("streaming.ingest.self_share", share("streaming.ingest"),
               "frac");
    result.Add("streaming.poll.self_share", share("streaming.poll"), "frac");
    Histogram& task_wait =
        registry.histogram("executor.task_wait_us");
    const Summary poll = Summarize(first.poll_ms);
    result.Add("common.executor.task_wait_us_p50", task_wait.Percentile(50),
               "us");
    result.Add("common.executor.task_wait_us_tail",
               task_wait.Percentile(poll.tail_pct), "us");
    AddSetupLayers(setup.load, setup.build_ms, &result);
    if (!options.spans_out.empty() &&
        !recorder.WriteCsv(options.spans_out + ".stream.csv")) {
      result.Fail("could not write spans to " + options.spans_out);
    }
    // Engine-level split on the airport history: dashboard-time snapshots
    // and one 300 s interval.
    const LoadedData& d = *setup.data;
    const QueryEngine engine(d.plan, *d.graph, d.deployment, d.ott, d.pois,
                             EngineConfig{});
    std::vector<TopKQuery> subset;
    const double lo = d.ott.min_time() + 600.0;
    const double hi = d.ott.max_time() - 600.0;
    for (int i = 0; i < 3; ++i) {
      TopKQuery q;
      q.ts = rng.Uniform(lo, hi);
      q.k = kDashboardK;
      subset.push_back(q);
    }
    TopKQuery interval;
    interval.interval = true;
    interval.ts = rng.Uniform(lo, hi - 300.0);
    interval.te = interval.ts + 300.0;
    interval.k = kDashboardK;
    subset.push_back(interval);
    ReplayLayers(d, engine, subset, options.spans_out, &result);
    // The serve layer, measured here since mall-serve is not a declared
    // workload (README.md): the airport history served through
    // QueryService. The executor metrics above stay the polls'.
    MeasureServeLayers(engine, d.ott.min_time(), d.ott.max_time(), &rng,
                       false, &result);
    result.attempted += static_cast<int64_t>(first.batch_us.size());
    result.failed += first.rejected_batches;
    if (first.rejected_batches > 0) {
      result.Fail("live-ingest: " + std::to_string(first.rejected_batches) +
                  " IngestBatch calls returned an error");
    }
    return result;
  }

  // Further passes on fresh monitors until the run's time is up. A pass's
  // wall time (ingest and polls of the whole stream) counts only when the
  // pass completed.
  PassStats total = first;
  std::vector<double> pass_ms = {Ms(start, first_end)};
  std::vector<double> pass_poll_tails = {Summarize(first.poll_ms).tail};
  while (NowNs() < deadline) {
    StreamingMonitor monitor(setup.data->deployment, setup.data->pois,
                             StreamingOptions{});
    PassStats pass;
    const int64_t pass_start = NowNs();
    RunPass(&monitor, batches, first_poll, true, deadline, nullptr, &pass);
    if (pass.complete) {
      pass_ms.push_back(Ms(pass_start, NowNs()));
      pass_poll_tails.push_back(Summarize(pass.poll_ms).tail);
    }
    total.poll_ms.insert(total.poll_ms.end(), pass.poll_ms.begin(),
                         pass.poll_ms.end());
    total.readings += pass.readings;
    total.ingest_ns += pass.ingest_ns;
    total.rejected_batches += pass.rejected_batches;
    result.attempted += static_cast<int64_t>(pass.batch_us.size());
  }
  result.attempted += static_cast<int64_t>(first.batch_us.size());
  result.failed = total.rejected_batches;
  if (total.rejected_batches > 0) {
    result.Fail("live-ingest: " + std::to_string(total.rejected_batches) +
                " IngestBatch calls returned an error");
  }

  // The poll tail is taken per pass (the highest percentile with 10 of
  // the pass's ~480 polls beyond it) and its median over the passes is
  // reported: over all of a run's ~20k polls the rule would pick the
  // 99.95th percentile, which measures the machine's rarest stalls rather
  // than the program.
  Summary poll = Summarize(total.poll_ms);
  poll.tail = MedianOf(pass_poll_tails);
  poll.tail_pct = Summarize(first.poll_ms).tail_pct;
  const Summary pass = Summarize(pass_ms);
  const double readings_per_s =
      static_cast<double>(total.readings) /
      (static_cast<double>(total.ingest_ns) / 1e9);
  result.NoteSummary("poll", poll);
  result.NoteSummary("pass", pass);
  result.Note("ingest_readings_per_s", readings_per_s, "1/s");
  AddEndToEnd(poll, pass, readings_per_s, setup_s, &result);
  return result;
}

}  // namespace perfbench
