// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload office-topk|mall-serve|live-ingest
//                    --seed N --seconds S --trace 0|1 --data-dir DIR
//                    [--spans-out FILE]
//
// Prints one line per workload metric and work counter, then, as the last
// line, the result object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced. Exits 1
// when a correctness check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "driver/bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names BENCHMARK.json declares, in its order. Every run prints
// every metric of its kind; a per-layer metric of a layer the workload
// does not reach reads 0 (README.md lists which apply where).
constexpr MetricSpec kEndToEnd[] = {
    {"primary_p50_ms", "ms"},   {"primary_tail_ms", "ms"},
    {"secondary_p50_ms", "ms"}, {"secondary_tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    // Set-up.
    {"tracking.load_ms", "ms"},
    {"indoor.load_ms", "ms"},
    {"index.artree_build_ms", "ms"},
    {"core.build_ms", "ms"},
    // The engine-level replay (every workload, on its own dataset).
    {"index.artree_us", "us"},
    {"index.entries_per_query", "count"},
    {"index.poi_hits_per_object", "count"},
    {"index.mbr_precision", "frac"},
    {"core.derive_us_p50", "us"},
    {"core.derive_us_tail", "us"},
    {"geometry.presence_us_p50", "us"},
    {"geometry.presence_us_tail", "us"},
    {"geometry.pairs_per_query", "count"},
    {"core.topk_us", "us"},
    {"index.self_share", "frac"},
    {"core.derive.self_share", "frac"},
    {"geometry.self_share", "frac"},
    {"core.topk.self_share", "frac"},
    {"core.query.self_share", "frac"},
    {"core.objects_retrieved.iterative", "count"},
    {"core.objects_retrieved.join", "count"},
    {"core.regions_derived.iterative", "count"},
    {"core.regions_derived.join", "count"},
    {"core.presence_evaluations.iterative", "count"},
    {"core.presence_evaluations.join", "count"},
    {"core.pois_evaluated.iterative", "count"},
    {"core.pois_evaluated.join", "count"},
    {"core.join_useful_frac", "frac"},
    {"core.derive_share", "frac"},
    {"trace.overhead_frac", "frac"},
    // Serving (mall-serve).
    {"serve.evaluate_ms_p50.snapshot", "ms"},
    {"serve.evaluate_ms_tail.snapshot", "ms"},
    {"serve.evaluate_ms_p50.interval", "ms"},
    {"serve.evaluate_ms_tail.interval", "ms"},
    {"serve.evaluate_ms_p50.join", "ms"},
    {"serve.evaluate_ms_tail.join", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_tail", "ms"},
    {"serve.shed_frac", "frac"},
    {"serve.deadline_frac", "frac"},
    {"driver.late_ms_p50", "ms"},
    {"driver.late_ms_max", "ms"},
    // The shared executor (mall-serve requests, live-ingest polls).
    {"common.executor.task_wait_us_p50", "us"},
    {"common.executor.task_wait_us_tail", "us"},
    // Streaming (live-ingest).
    {"streaming.ingest_batch_us_p50", "us"},
    {"streaming.ingest_batch_us_tail", "us"},
    {"streaming.ns_per_reading", "ns"},
    {"streaming.dirty_ratio", "frac"},
    {"streaming.shard_recomputes", "count"},
    {"streaming.shard_reuses", "count"},
    {"streaming.track_table_size", "count"},
    {"tracking.readings_rejected", "count"},
    {"streaming.ingest.self_share", "frac"},
    {"streaming.poll.self_share", "frac"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "office-topk|mall-serve|live-ingest --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--spans-out FILE]\n",
               message);
  std::exit(2);
}

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Orders the workload's metrics as declared, fills the ones it does not
// reach with 0, and rejects undeclared names (a benchmark bug).
template <size_t N>
std::string MetricsJson(const std::vector<Metric>& got,
                        const MetricSpec (&specs)[N]) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) by_name[m.name] = &m;
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    const auto it = by_name.find(specs[i].name);
    double value = 0.0;
    if (it != by_name.end()) {
      if (it->second->unit != specs[i].unit) {
        Usage(("metric " + it->second->name + " has unit " +
               it->second->unit)
                  .c_str());
      }
      value = it->second->value;
      by_name.erase(it);
    }
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           Json(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  if (!by_name.empty()) {
    Usage(("undeclared metric " + by_name.begin()->first).c_str());
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      options.data_dir.empty()) {
    Usage("--seed, --seconds, --trace and --data-dir are required");
  }

  Result result;
  if (options.workload == "office-topk") {
    result = RunOffice(options);
  } else if (options.workload == "mall-serve") {
    result = RunMall(options);
  } else if (options.workload == "live-ingest") {
    result = RunLive(options);
  } else {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (result.attempted == 0) result.Fail("no operation was attempted");
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (!options.trace) {
    result.Note("failed_frac",
                result.attempted > 0
                    ? static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted)
                    : 0.0,
                "frac");
  }
  for (const Metric& m : result.notes) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, value] : result.counters) {
    std::printf("counter %s %lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  for (const std::string& error : result.errors) {
    std::printf("check failed: %s\n", error.c_str());
  }
  const std::string metrics = options.trace
                                  ? MetricsJson(result.metrics, kPerLayer)
                                  : MetricsJson(result.metrics, kEndToEnd);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
