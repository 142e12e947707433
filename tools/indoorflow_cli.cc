// indoorflow_cli — run the library end-to-end from the command line over
// flat files (see src/indoor/plan_io.h and src/tracking/io.h for formats).
//
// Subcommands:
//   generate  --out DIR [--dataset office|cph|mall] [--objects N]
//             [--duration S] [--range R] [--seed S] [--pois N]
//             Writes plan.txt, pois.txt, deployment.csv, ott.csv into DIR,
//             creating it (and missing parents) first.
//   snapshot  --data DIR --t T [--k K] [--algo iterative|join]
//             [--topology off|partition|exact] [--metric flow|density]
//   interval  --data DIR --ts T --te T [--k K] [--algo ...] [--topology ...]
//   threshold --data DIR --tau F (--t T | --ts T --te T) [--algo ...]
//             All POIs with flow >= tau (extension over the paper's top-k).
//   itinerary --data DIR --object ID [--t0 T] [--t1 T] [--step S]
//             [--min-presence P] [--min-duration S] [--max-area A]
//             Per-object visit reconstruction (CSV on stdout).
//   timeline  --data DIR --poi ID [--t0 T] [--t1 T] [--step S]
//   report    --data DIR [--k K] [--slots N]   (markdown occupancy report)
//   stats     --data DIR
//   explain   --data DIR (--t T | --ts T --te T) [--k K] [--tau F]
//             [--algo ...] [--metric flow|density] [--format text|json]
//             EXPLAIN profile of one query: per-POI prune/evaluate
//             verdicts, phase times, object costs, and the join trace.
//   serve     --data DIR [--port P] [--duration S] [--interval S]
//             Live exposition endpoint: /metrics, /healthz,
//             /profiles/recent over a rolling probe workload.
//   cleanse   --readings FILE.csv --deployment FILE.csv --out FILE.csv
//             [--vmax V] [--slack S]    (speed-constraint outlier removal)
//   render    --data DIR --out FILE.svg [--heatmap-t T]
//
// Every command that builds a query engine additionally takes
// --cache on|off [--cache-mb N] [--cache-shards N] — the cross-query
// uncertainty-region cache (src/core/ur_cache.h, docs/TUNING.md) —
// --threads N [--parallel-threshold N] — intra-query fan-out across the
// shared executor, on by default, --threads 1 for serial
// (src/common/executor.h, docs/TUNING.md) — and
// --approx exact|sampled|adaptive [--sample-budget N] — the evaluation
// mode the query commands put in their QuerySpec and `serve` makes its
// default: sampling-based approximate evaluation for iterative flow top-k
// (src/core/approx.h, docs/APPROXIMATION.md); every other query evaluates
// exactly.
//
// Exit code 0 on success; errors go to the structured log (stderr by
// default; see src/common/log.h for INDOORFLOW_LOG_* configuration) and
// exit 1 — a malformed number or an invalid query (ValidateQuerySpec)
// included, never a silent default.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/expo_server.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/core/engine.h"
#include "src/core/query_profile.h"
#include "src/core/streaming.h"
#include "src/serve/query_service.h"
#include "src/core/flow_matrix.h"
#include "src/core/itinerary.h"
#include "src/core/timeline.h"
#include "src/indoor/plan_io.h"
#include "src/tracking/cleansing.h"
#include "src/tracking/io.h"
#include "src/viz/svg.h"

namespace indoorflow {
namespace {

// ---------------------------------------------------------------------------
// Minimal --flag value parsing.

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        ok_ = false;
        bad_ = key;
        return;
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }

  std::optional<std::string> Get(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    consumed_.insert(it->first);
    return it->second;
  }

  std::string GetOr(const std::string& key, const std::string& fallback) {
    return Get(key).value_or(fallback);
  }

  /// The flag's value as a finite number; nullopt when absent or
  /// malformed (see status()).
  std::optional<double> GetDouble(const std::string& key) {
    return Number(key, /*integral=*/false);
  }

  double GetDouble(const std::string& key, double fallback) {
    return Number(key, /*integral=*/false).value_or(fallback);
  }

  int GetInt(const std::string& key, int fallback) {
    return static_cast<int>(Number(key, /*integral=*/true).value_or(fallback));
  }

  /// The first malformed numeric value read so far (OK when none).
  const Status& status() const { return status_; }

  /// Any flags that no subcommand consumed (typos).
  std::vector<std::string> Unconsumed() const {
    std::vector<std::string> out;
    for (const auto& [key, value] : values_) {
      if (!consumed_.contains(key)) out.push_back("--" + key);
    }
    return out;
  }

 private:
  // Parses the way the serving layer parses its parameters: the whole
  // string, finite, and an integer within int range when `integral`. A
  // malformed value reads as absent and records the first such error in
  // status_, naming the flag.
  std::optional<double> Number(const std::string& key, bool integral) {
    const auto text = Get(key);
    if (!text) return std::nullopt;
    char* end = nullptr;
    const double value = std::strtod(text->c_str(), &end);
    if (!text->empty() && end == text->c_str() + text->size() &&
        std::isfinite(value) &&
        (!integral ||
         (value == std::floor(value) &&
          std::fabs(value) <= std::numeric_limits<int>::max()))) {
      return value;
    }
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          "--" + key + " must be " +
          (integral ? "an integer" : "a finite number") + ", got '" + *text +
          "'");
    }
    return std::nullopt;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  bool ok_ = true;
  std::string bad_;
  Status status_;
};

int Fail(const std::string& message) {
  Log(LogLevel::kError, "cli", message);
  return 1;
}

// ---------------------------------------------------------------------------
// Dataset directory I/O.

struct LoadedDataset {
  FloorPlan plan;
  std::unique_ptr<DoorGraph> graph;
  Deployment deployment;
  ObjectTrackingTable ott;
  PoiSet pois;
};

// Cross-file consistency checks. The readers validate each file in
// isolation, but a truncated deployment.csv or a non-id-dense pois.txt
// would otherwise surface as out-of-bounds indexing deep inside the query
// engine (the engine requires pois[i].id == i and indexes devices by id).
Status ValidateDataset(const LoadedDataset& data) {
  for (size_t i = 0; i < data.pois.size(); ++i) {
    if (data.pois[i].id != static_cast<PoiId>(i)) {
      return Status::InvalidArgument(
          "pois.txt is not id-dense: entry " + std::to_string(i) +
          " has id " + std::to_string(data.pois[i].id));
    }
  }
  for (size_t i = 0; i < data.ott.size(); ++i) {
    const TrackingRecord& r = data.ott.record(static_cast<RecordIndex>(i));
    if (r.device_id < 0 ||
        static_cast<size_t>(r.device_id) >= data.deployment.size()) {
      return Status::InvalidArgument(
          "ott.csv record " + std::to_string(i) + " references device " +
          std::to_string(r.device_id) + " but deployment.csv defines " +
          std::to_string(data.deployment.size()) + " devices");
    }
  }
  return Status::OK();
}

Result<LoadedDataset> LoadDataDir(const std::string& dir) {
  LoadedDataset data;
  auto plan = ReadPlanFile(dir + "/plan.txt");
  if (!plan.ok()) return plan.status();
  data.plan = std::move(*plan);
  auto pois = ReadPoisFile(dir + "/pois.txt");
  if (!pois.ok()) return pois.status();
  data.pois = std::move(*pois);
  auto deployment = ReadDeploymentCsv(dir + "/deployment.csv");
  if (!deployment.ok()) return deployment.status();
  data.deployment = std::move(*deployment);
  auto ott = ReadOttCsv(dir + "/ott.csv");
  if (!ott.ok()) return ott.status();
  data.ott = std::move(*ott);
  INDOORFLOW_RETURN_IF_ERROR(ValidateDataset(data));
  data.graph = std::make_unique<DoorGraph>(data.plan);
  return data;
}

Status SaveDataDir(const Dataset& ds, const std::string& dir) {
  INDOORFLOW_RETURN_IF_ERROR(WritePlanFile(ds.built.plan, dir + "/plan.txt"));
  INDOORFLOW_RETURN_IF_ERROR(WritePoisFile(ds.pois, dir + "/pois.txt"));
  INDOORFLOW_RETURN_IF_ERROR(
      WriteDeploymentCsv(ds.deployment, dir + "/deployment.csv"));
  INDOORFLOW_RETURN_IF_ERROR(WriteOttCsv(ds.ott, dir + "/ott.csv"));
  return Status::OK();
}

Result<TopologyMode> ParseTopology(const std::string& name) {
  if (name == "off") return TopologyMode::kOff;
  if (name == "partition") return TopologyMode::kPartition;
  if (name == "exact") return TopologyMode::kExact;
  return Status::InvalidArgument("unknown topology mode '" + name + "'");
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "iterative") return Algorithm::kIterative;
  if (name == "join") return Algorithm::kJoin;
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

int CheckUnconsumed(const Flags& flags) {
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  for (const std::string& flag : flags.Unconsumed()) {
    return Fail("unknown flag " + flag);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Subcommands.

int CmdGenerate(Flags& flags) {
  const auto out = flags.Get("out");
  if (!out) return Fail("generate requires --out DIR");
  const std::string dataset = flags.GetOr("dataset", "office");
  const int objects = flags.GetInt("objects", 300);
  const double duration = flags.GetDouble("duration", 3600.0);
  const double range = flags.GetDouble("range", 1.5);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int pois = flags.GetInt("pois", 75);
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  std::error_code ec;
  std::filesystem::create_directories(*out, ec);
  if (ec) return Fail("cannot create " + *out + ": " + ec.message());

  Dataset ds;
  if (dataset == "office") {
    OfficeDatasetConfig config;
    config.num_objects = objects;
    config.duration = duration;
    config.detection_range = range;
    config.seed = seed;
    config.num_pois = pois;
    ds = GenerateOfficeDataset(config);
  } else if (dataset == "cph") {
    CphDatasetConfig config;
    config.num_passengers = objects;
    config.window = duration;
    config.detection_range = range > 2.6 ? range : 5.0;
    config.seed = seed;
    config.num_pois = pois;
    ds = GenerateCphLikeDataset(config);
  } else if (dataset == "mall") {
    MallDatasetConfig config;
    config.num_shoppers = objects;
    config.window = duration;
    config.detection_range = range;
    config.seed = seed;
    config.num_pois = pois;
    ds = GenerateMallDataset(config);
  } else {
    return Fail("unknown dataset '" + dataset + "' (office|cph|mall)");
  }
  const Status status = SaveDataDir(ds, *out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf(
      "wrote %s/{plan.txt,pois.txt,deployment.csv,ott.csv}: %zu devices, "
      "%zu records, %zu objects, %zu POIs\n",
      out->c_str(), ds.deployment.size(), ds.ott.size(),
      ds.ott.objects().size(), ds.pois.size());
  return 0;
}

struct EngineBundle {
  // Behind a unique_ptr so the QueryEngine's references into it stay valid
  // when the bundle is moved out of MakeEngine.
  std::unique_ptr<LoadedDataset> data;
  std::unique_ptr<QueryEngine> engine;
  // --approx / --sample-budget: the evaluation mode the query commands
  // put in their spec and `serve` makes its default. The engine itself
  // has no mode; each query carries its own.
  ApproxConfig approx;

  const LoadedDataset& dataset() const { return *data; }
};

Result<EngineBundle> MakeEngine(Flags& flags) {
  const auto dir = flags.Get("data");
  if (!dir) return Status::InvalidArgument("missing --data DIR");
  auto topology = ParseTopology(flags.GetOr("topology", "partition"));
  if (!topology.ok()) return topology.status();
  const double vmax = flags.GetDouble("vmax", 1.1);
  const std::string cache = flags.GetOr("cache", "off");
  if (cache != "on" && cache != "off") {
    return Status::InvalidArgument("--cache must be on or off");
  }
  const int cache_mb = flags.GetInt("cache-mb", 64);
  const int cache_shards = flags.GetInt("cache-shards", 8);
  if (cache_mb <= 0) return Status::InvalidArgument("--cache-mb must be > 0");
  if (cache_shards <= 0) {
    return Status::InvalidArgument("--cache-shards must be > 0");
  }
  const int threads = flags.GetInt("threads", EngineConfig{}.threads);
  const int parallel_threshold = flags.GetInt("parallel-threshold", 64);
  if (parallel_threshold <= 0) {
    return Status::InvalidArgument("--parallel-threshold must be > 0");
  }
  EngineBundle bundle;
  const std::string approx_name = flags.GetOr("approx", "exact");
  if (!ApproxModeFromName(approx_name, &bundle.approx.mode)) {
    return Status::InvalidArgument("--approx must be exact|sampled|adaptive");
  }
  bundle.approx.sample_budget = flags.GetInt(
      "sample-budget", static_cast<int>(bundle.approx.sample_budget));
  INDOORFLOW_RETURN_IF_ERROR(flags.status());

  auto data = LoadDataDir(*dir);
  if (!data.ok()) return data.status();
  bundle.data = std::make_unique<LoadedDataset>(std::move(*data));
  EngineConfig config;
  config.topology = *topology;
  config.vmax = vmax;
  // Cross-query UR cache (docs/TUNING.md): pays off for repeated
  // timestamps — `serve` pollers, `timeline`/`report` slot scans, reruns.
  config.ur_cache.enabled = cache == "on";
  config.ur_cache.max_bytes = static_cast<size_t>(cache_mb) << 20;
  config.ur_cache.shards = cache_shards;
  // Intra-query fan-out (docs/TUNING.md): the engine default (--threads
  // 0, the shared executor's full width) spreads per-object work across
  // the pool once a query sees --parallel-threshold candidates; --threads N caps the lanes, and --threads 1 pins serial.
  // Results are bit-identical to --threads 1.
  config.threads = threads;
  config.parallel_threshold = parallel_threshold;
  bundle.engine = std::make_unique<QueryEngine>(
      bundle.data->plan, *bundle.data->graph, bundle.data->deployment,
      bundle.data->ott, bundle.data->pois, config);
  return bundle;
}

// The shared query flags a command takes, beyond the engine's.
struct QueryFlags {
  bool t = false;      // --t T: a snapshot query
  bool ts_te = false;  // --ts T --te T: an interval query
  bool k = false;      // --k K [--metric flow|density]: top-k or density
  bool tau = false;    // --tau F: threshold (required unless `k`)
};

// Reads a query command's flags into a spec; the evaluation mode comes
// from MakeEngine and the spec is validated once it is complete.
Result<QuerySpec> ParseSpec(Flags& flags, const std::string& command,
                            QueryFlags takes) {
  const auto t = takes.t ? flags.GetDouble("t") : std::nullopt;
  const auto ts = takes.ts_te ? flags.GetDouble("ts") : std::nullopt;
  const auto te = takes.ts_te ? flags.GetDouble("te") : std::nullopt;
  const auto tau = takes.tau ? flags.GetDouble("tau") : std::nullopt;
  const int k = takes.k ? flags.GetInt("k", 10) : 0;
  const std::string metric = takes.k ? flags.GetOr("metric", "flow") : "";
  auto algo = ParseAlgorithm(flags.GetOr("algo", "join"));
  INDOORFLOW_RETURN_IF_ERROR(flags.status());
  if (!algo.ok()) return algo.status();
  QuerySpec spec{.algorithm = *algo};
  if (t) {
    spec.ts = spec.te = *t;
  } else if (ts && te) {
    spec.interval = true;
    spec.ts = *ts;
    spec.te = *te;
  } else {
    return Status::InvalidArgument(
        command + " requires " +
        (!takes.ts_te ? "--t T"
         : !takes.t   ? "--ts T --te T"
                      : "--t T (snapshot) or --ts/--te (interval)"));
  }
  if (tau) {
    spec.objective = Objective::kThreshold;
    spec.tau = *tau;
  } else if (!takes.k) {
    return Status::InvalidArgument(command + " requires --tau TAU (> 0)");
  } else if (metric == "flow" || metric == "density") {
    spec.objective =
        metric == "density" ? Objective::kDensity : Objective::kTopK;
    spec.k = k;
  } else {
    return Status::InvalidArgument("--metric must be flow or density");
  }
  return spec;
}

// Prints query rows, then the query's stats. Estimate rows add the
// standard error and 95% interval columns so an approximate answer is
// never mistaken for an exact one.
void PrintRows(const LoadedDataset& data,
               const std::vector<FlowEstimate>& rows, bool estimate,
               const QueryStats& stats) {
  if (estimate) {
    std::printf("%-6s %-24s %-10s %-9s %s\n", "poi", "name", "flow",
                "stderr", "ci95");
  } else {
    std::printf("%-6s %-24s %s\n", "poi", "name", "flow");
  }
  for (const FlowEstimate& e : rows) {
    const char* name = data.pois[static_cast<size_t>(e.poi)].name.c_str();
    if (!estimate) {
      std::printf("%-6d %-24s %.4f\n", e.poi, name, e.value);
    } else if (e.exact) {
      std::printf("%-6d %-24s %-10.4f %-9s exact\n", e.poi, name, e.value,
                  "-");
    } else if (!std::isfinite(e.std_err)) {
      // Degenerate (< 2 evaluated draws) estimate: the error is
      // undefined, not zero.
      std::printf("%-6d %-24s %-10.4f %-9s undefined\n", e.poi, name,
                  e.value, "-");
    } else {
      std::printf("%-6d %-24s %-10.4f %-9.4f [%.4f, %.4f]\n", e.poi, name,
                  e.value, e.std_err, e.ci_low, e.ci_high);
    }
  }
  std::printf("# stats %s\n", stats.ToJson().c_str());
}

// snapshot, interval, threshold and explain: the flags into one spec, one
// Run, then the rows — or, for explain, the query's EXPLAIN profile: its
// per-POI pruning/evaluation verdicts instead of the rows. The full POI
// set is always queried, so the verdict counts partition the dataset's
// POI count.
int CmdQuery(Flags& flags, const std::string& command, QueryFlags takes) {
  auto spec = ParseSpec(flags, command, takes);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const bool explain = command == "explain";
  const std::string format = explain ? flags.GetOr("format", "text") : "";
  if (explain && format != "text" && format != "json") {
    return Fail("--format must be text or json");
  }
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  spec->approx = bundle->approx;
  if (const Status valid = ValidateQuerySpec(*spec); !valid.ok()) {
    return Fail(valid.ToString());
  }
  QueryStats stats;
  QueryProfile profile;  // detail stays true: full EXPLAIN
  const auto rows = bundle->engine->Run(
      *spec, {&stats, explain ? &profile : nullptr, nullptr});
  if (!explain) {
    PrintRows(bundle->dataset(), rows, IsEstimate(*spec), stats);
  } else if (format == "json") {
    std::printf("%s\n", profile.ToJson().c_str());
  } else {
    std::fputs(profile.ToText().c_str(), stdout);
  }
  return 0;
}

int CmdItinerary(Flags& flags) {
  const int object = flags.GetInt("object", -1);
  if (object < 0) return Fail("itinerary requires --object ID");
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  const double t0 = flags.GetDouble("t0", bundle->data->ott.min_time());
  const double t1 = flags.GetDouble("t1", bundle->data->ott.max_time());
  ItineraryOptions options;
  options.step = flags.GetDouble("step", 10.0);
  options.min_presence = flags.GetDouble("min-presence", 0.2);
  options.min_duration = flags.GetDouble("min-duration", 0.0);
  options.max_region_bounds_area =
      flags.GetDouble("max-area", options.max_region_bounds_area);
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  if (options.step <= 0.0 || t1 < t0) return Fail("bad itinerary window");
  const Itinerary it = BuildItinerary(*bundle->engine,
                                      static_cast<ObjectId>(object), t0, t1,
                                      options);
  std::printf("start,end,poi,name,mean_presence,peak_presence\n");
  for (const ItineraryVisit& v : it.visits) {
    std::printf("%.1f,%.1f,%d,%s,%.4f,%.4f\n", v.start, v.end, v.poi,
                bundle->data->pois[static_cast<size_t>(v.poi)].name.c_str(),
                v.mean_presence, v.peak_presence);
  }
  return 0;
}

int CmdTimeline(Flags& flags) {
  const int poi = flags.GetInt("poi", -1);
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  if (poi < 0 || static_cast<size_t>(poi) >= bundle->data->pois.size()) {
    return Fail("--poi must name a POI id in the dataset");
  }
  const double t0 = flags.GetDouble("t0", bundle->data->ott.min_time());
  const double t1 = flags.GetDouble("t1", bundle->data->ott.max_time());
  const double step = flags.GetDouble("step", (t1 - t0) / 20.0);
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  if (step <= 0.0 || t1 < t0) return Fail("bad timeline window");
  const auto timeline =
      FlowTimeline(*bundle->engine, static_cast<PoiId>(poi), t0, t1, step);
  std::printf("t,flow\n");
  for (const TimelinePoint& p : timeline) {
    std::printf("%.1f,%.4f\n", p.t, p.flow);
  }
  const TimelinePoint peak = PeakFlow(timeline);
  std::printf("# peak %.4f at t=%.1f, average %.4f\n", peak.flow, peak.t,
              AverageFlow(timeline));
  return 0;
}

// One probe round at `t`, shaped like `spec`: a snapshot query at t, then
// an interval query over [t - 60, t + 60] clamped to the span [t0, t1].
void ProbeAt(const QueryEngine& engine, QuerySpec spec, Timestamp t,
             Timestamp t0, Timestamp t1) {
  spec.ts = spec.te = t;
  engine.Run(spec);
  spec.interval = true;
  spec.ts = std::max(t0, t - 60.0);
  spec.te = std::min(t1, t + 60.0);
  engine.Run(spec);
}

// Machine-readable dataset summary plus the process metrics registry as one
// JSON object. A small warm-up workload (snapshot + interval top-k with both
// algorithms, spread over the observation span) populates the per-phase
// latency histograms and QueryStats counters before the dump, so the output
// always carries real percentiles. --warmup N controls the probe count.
int CmdStats(Flags& flags) {
  const int warmup = flags.GetInt("warmup", 8);
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  const LoadedDataset& data = bundle->dataset();

  double span_total = 0.0;
  for (size_t i = 0; i < data.ott.size(); ++i) {
    const TrackingRecord& r = data.ott.record(static_cast<RecordIndex>(i));
    span_total += r.te - r.ts;
  }
  const double avg_record =
      data.ott.empty()
          ? 0.0
          : span_total / static_cast<double>(data.ott.size());

  if (!data.ott.empty() && warmup > 0) {
    const double t0 = data.ott.min_time();
    const double t1 = data.ott.max_time();
    for (int i = 0; i < warmup; ++i) {
      const double t =
          t0 + (t1 - t0) * (static_cast<double>(i) + 0.5) / warmup;
      for (const Algorithm algo :
           {Algorithm::kIterative, Algorithm::kJoin}) {
        ProbeAt(*bundle->engine,
                {.algorithm = algo, .k = 10, .approx = bundle->approx}, t,
                t0, t1);
      }
    }
  }

  std::printf(
      "{\"dataset\":{\"partitions\":%zu,\"doors\":%zu,\"devices\":%zu,"
      "\"devices_disjoint\":%s,\"pois\":%zu,\"objects\":%zu,"
      "\"records\":%zu,\"records_overlapping\":%s,\"time_min\":%.1f,"
      "\"time_max\":%.1f,\"avg_record_seconds\":%.3f},\n\"metrics\":%s}\n",
      data.plan.partitions().size(), data.plan.doors().size(),
      data.deployment.size(),
      data.deployment.RangesDisjoint() ? "true" : "false",
      data.pois.size(), data.ott.objects().size(), data.ott.size(),
      data.ott.has_overlaps() ? "true" : "false", data.ott.min_time(),
      data.ott.max_time(), avg_record,
      MetricsRegistry::Default().DumpJson().c_str());
  return 0;
}

// A one-shot markdown occupancy report for a dataset directory: summary
// stats, the busiest moment, per-slot top POIs from a materialized flow
// matrix, and the average-occupancy ranking over the whole span.
int CmdReport(Flags& flags) {
  const int k = flags.GetInt("k", 5);
  const int slots = flags.GetInt("slots", 6);
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  const LoadedDataset& data = bundle->dataset();
  if (data.ott.empty()) return Fail("dataset has no tracking records");
  if (slots <= 0 || k <= 0) return Fail("--k and --slots must be positive");

  const double t0 = data.ott.min_time();
  const double t1 = data.ott.max_time();
  FlowMatrixOptions matrix_options;
  matrix_options.bucket_seconds =
      std::max(1.0, (t1 - t0) / std::max(24, 4 * slots));
  const FlowMatrix matrix =
      FlowMatrix::Build(*bundle->engine, t0, t1, matrix_options);

  const auto poi_name = [&](PoiId id) {
    return data.pois[static_cast<size_t>(id)].name.c_str();
  };

  std::printf("# Occupancy report\n\n");
  std::printf("- objects: %zu, records: %zu, devices: %zu, POIs: %zu\n",
              data.ott.objects().size(), data.ott.size(),
              data.deployment.size(), data.pois.size());
  std::printf("- observation span: [%.0f s, %.0f s] (%.1f min)\n", t0, t1,
              (t1 - t0) / 60.0);

  // Busiest moment on the bucket grid.
  double peak_flow = -1.0;
  Timestamp peak_time = t0;
  PoiId peak_poi = -1;
  for (size_t b = 0; b < matrix.num_buckets(); ++b) {
    for (const Poi& poi : data.pois) {
      const double flow = matrix.FlowAt(b, poi.id);
      if (flow > peak_flow) {
        peak_flow = flow;
        peak_time = matrix.bucket_time(b);
        peak_poi = poi.id;
      }
    }
  }
  std::printf("- busiest moment: **%s** at t=%.0f s (flow %.2f)\n\n",
              poi_name(peak_poi), peak_time, peak_flow);

  std::printf(
      "## Top POIs per time slot\n\n| slot | top-%d (flow) |\n|---|---|\n",
      k);
  const double slot_len = (t1 - t0) / slots;
  for (int s = 0; s < slots; ++s) {
    const double mid = t0 + (s + 0.5) * slot_len;
    std::printf("| %.0f-%.0f s |", t0 + s * slot_len,
                t0 + (s + 1) * slot_len);
    for (const PoiFlow& f : matrix.ApproxSnapshotTopK(mid, k)) {
      std::printf(" %s (%.1f)", poi_name(f.poi), f.flow);
    }
    std::printf(" |\n");
  }

  std::printf("\n## Average occupancy over the whole span\n\n");
  std::printf("| rank | POI | avg flow |\n|---|---|---|\n");
  int rank = 1;
  for (const PoiFlow& f : matrix.AverageOccupancyTopK(t0, t1, k)) {
    std::printf("| %d | %s | %.2f |\n", rank++, poi_name(f.poi), f.flow);
  }
  return 0;
}

int CmdCleanse(Flags& flags) {
  const auto readings_path = flags.Get("readings");
  const auto deployment_path = flags.Get("deployment");
  const auto out = flags.Get("out");
  if (!readings_path || !deployment_path || !out) {
    return Fail(
        "cleanse requires --readings FILE --deployment FILE --out FILE");
  }
  CleansingOptions options;
  options.vmax = flags.GetDouble("vmax", 1.1);
  options.slack_seconds = flags.GetDouble("slack", 2.0);
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;

  auto readings = ReadReadingsCsv(*readings_path);
  if (!readings.ok()) return Fail(readings.status().ToString());
  auto deployment = ReadDeploymentCsv(*deployment_path);
  if (!deployment.ok()) return Fail(deployment.status().ToString());
  const size_t before = readings->size();
  const auto cleansed =
      CleanseReadings(std::move(*readings), *deployment, options);
  const Status status = WriteReadingsCsv(cleansed, *out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("kept %zu of %zu readings (dropped %zu outliers) -> %s\n",
              cleansed.size(), before, before - cleansed.size(),
              out->c_str());
  return 0;
}

int CmdRender(Flags& flags) {
  const auto dir = flags.Get("data");
  const auto out = flags.Get("out");
  if (!dir || !out) return Fail("render requires --data DIR --out FILE");
  const double heatmap_t = flags.GetDouble("heatmap-t", -1.0);
  auto data = LoadDataDir(*dir);
  if (!data.ok()) return Fail(data.status().ToString());
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;

  SvgCanvas canvas(data->plan.Bounds().Expanded(2.0));
  canvas.DrawFloorPlan(data->plan);
  canvas.DrawDeployment(data->deployment);
  if (heatmap_t >= 0.0) {
    EngineConfig config;
    const QueryEngine engine(data->plan, *data->graph, data->deployment,
                             data->ott, data->pois, config);
    const auto flows = engine.SnapshotTopK(
        heatmap_t, static_cast<int>(data->pois.size()), Algorithm::kJoin);
    canvas.DrawFlowHeatmap(data->pois, flows);
  }
  const Status status = canvas.WriteFile(*out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s\n", out->c_str());
  return 0;
}

// Long-running query-serving process over one dataset: starts the HTTP
// server with the /query/* endpoints (QueryService: deadlines, admission
// control) plus the exposition routes, with a profile flight recorder
// attached, and by default replays a rolling probe workload over the
// observation span so /metrics and /profiles/recent stay live even with
// no clients. --duration 0 serves until killed; CI passes a bounded
// duration and exercises the endpoints meanwhile. docs/SERVING.md covers
// the endpoint schema and the admission-control knobs.
int CmdServe(Flags& flags) {
  const int port = flags.GetInt("port", 0);
  const double duration = flags.GetDouble("duration", 0.0);
  const double interval = flags.GetDouble("interval", 0.25);
  const int k = flags.GetInt("k", 10);
  QueryServiceOptions service_options;
  service_options.queue_limit =
      flags.GetInt("queue-limit", service_options.queue_limit);
  service_options.max_queue_wait_ms = flags.GetInt(
      "max-queue-wait-ms",
      static_cast<int>(service_options.max_queue_wait_ms));
  service_options.default_deadline_ms = flags.GetInt(
      "deadline-ms", static_cast<int>(service_options.default_deadline_ms));
  service_options.trace_sample =
      flags.GetDouble("trace-sample", service_options.trace_sample);
  service_options.degrade_depth =
      flags.GetInt("degrade-depth", service_options.degrade_depth);
  const std::string probe = flags.GetOr("probe", "on");
  const std::string live = flags.GetOr("live", "on");
  const int stream_shards = flags.GetInt("stream-shards", 8);
  auto bundle = MakeEngine(flags);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  if (const int rc = CheckUnconsumed(flags); rc != 0) return rc;
  if (interval <= 0.0) return Fail("--interval must be > 0");
  if (probe != "on" && probe != "off") {
    return Fail("--probe must be on|off");
  }
  if (live != "on" && live != "off") {
    return Fail("--live must be on|off");
  }
  if (stream_shards <= 0) return Fail("--stream-shards must be > 0");
  if (service_options.queue_limit < 0) {
    return Fail("--queue-limit must be >= 0");
  }
  if (service_options.default_deadline_ms <= 0) {
    return Fail("--deadline-ms must be > 0");
  }
  if (service_options.trace_sample < 0.0 ||
      service_options.trace_sample > 1.0) {
    return Fail("--trace-sample must be in [0, 1]");
  }
  if (service_options.degrade_depth < 0) {
    return Fail("--degrade-depth must be >= 0 (0 disables)");
  }
  // --approx is the service's default evaluation mode (requests may
  // still override it per query with approx= / sample_budget=), and the
  // probes below run in it too.
  service_options.approx = bundle->approx;
  QuerySpec sweep{.k = k, .approx = bundle->approx};
  if (const Status valid = ValidateQuerySpec(sweep); !valid.ok()) {
    return Fail(valid.ToString());
  }
  const LoadedDataset& data = bundle->dataset();
  if (data.ott.empty()) return Fail("dataset has no tracking records");

  ProfileRecorder recorder;
  bundle->engine->AttachProfileRecorder(&recorder);

  // Live monitor (--live on): replay the dataset's tracking records as a
  // reading stream so /query/live answers continuous top-k against the
  // same deployment. Each record becomes two readings (its endpoints);
  // per-object replay keeps every object's readings time-ordered, which
  // is all Ingest requires (cross-object interleaving is free).
  std::unique_ptr<StreamingMonitor> monitor;
  if (live == "on") {
    StreamingOptions stream_options;
    stream_options.vmax = flags.GetDouble("vmax", 1.1);
    stream_options.shards = stream_shards;
    // Never expire the replayed history: the probe and clients may query
    // any timestamp in the observation span.
    stream_options.expiry_seconds =
        std::max(600.0, data.ott.max_time() - data.ott.min_time() + 1.0);
    monitor = std::make_unique<StreamingMonitor>(data.deployment, data.pois,
                                                 stream_options);
    std::vector<RawReading> replay;
    replay.reserve(data.ott.size() * 2);
    for (ObjectId object : data.ott.objects()) {
      for (RecordIndex index : data.ott.ChainOf(object)) {
        const TrackingRecord& record = data.ott.record(index);
        replay.push_back({object, record.device_id, record.ts});
        replay.push_back({object, record.device_id, record.te});
      }
    }
    const Status ingest_status = monitor->IngestBatch(replay);
    if (!ingest_status.ok()) return Fail(ingest_status.ToString());
  }

  QueryService service(bundle->engine.get(), service_options,
                       monitor.get());

  ExpoServer server;
  service.RegisterRoutes(&server);
  server.Handle("/metrics", "text/plain; version=0.0.4", [] {
    return MetricsRegistry::Default().DumpText();
  });
  server.Handle("/healthz", "application/json", [&data] {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"status\":\"ok\",\"pois\":%zu,\"objects\":%zu,"
                  "\"records\":%zu}",
                  data.pois.size(), data.ott.objects().size(),
                  data.ott.size());
    return std::string(buf);
  });
  server.Handle("/profiles/recent", "application/json",
                [&recorder] { return recorder.ToJson(); });
  const Status status = server.Start(port);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("serving on http://127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  // Probe workload (--probe on): sweep the observation span, alternating
  // algorithms, so the latency histograms and the flight recorder keep
  // turning over even with no clients. Benchmarks measuring pure serving
  // latency pass --probe off to keep the engine quiet between requests.
  const double t0 = data.ott.min_time();
  const double t1 = data.ott.max_time();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration);
  int rounds = 0;
  while (duration <= 0.0 || std::chrono::steady_clock::now() < deadline) {
    if (probe == "on") {
      const double t = t0 + (t1 - t0) * ((rounds % 16) + 0.5) / 16.0;
      sweep.algorithm =
          rounds % 2 == 0 ? Algorithm::kJoin : Algorithm::kIterative;
      ProbeAt(*bundle->engine, sweep, t, t0, t1);
      // Keep the streaming.* metrics turning over too (the first poll at
      // an unchanged stream clock recomputes; later ones reuse tallies).
      if (monitor != nullptr) {
        monitor->CurrentTopKEstimate(monitor->now(), k, bundle->approx);
      }
      ++rounds;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  // Shutdown order matters: stop accepting first, then drain the requests
  // already admitted (the service responds to each), and only then detach
  // the recorder the in-flight queries may still be writing through.
  server.Stop();
  service.Stop();
  bundle->engine->AttachProfileRecorder(nullptr);
  std::printf("served %d probe rounds\n", rounds);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: indoorflow_cli <generate|snapshot|interval|threshold|"
      "itinerary|timeline|stats|explain|serve|cleanse|render> "
      "[--flag value ...]\n"
      "  generate --out DIR [--dataset office|cph|mall] [--objects N]\n"
      "           [--duration S] [--range R] [--seed S] [--pois N]\n"
      "  snapshot --data DIR --t T [--k K] [--algo iterative|join]\n"
      "           [--topology off|partition|exact] [--vmax V]\n"
      "           [--metric flow|density]\n"
      "  (engine commands also take --cache on|off [--cache-mb N]\n"
      "           [--cache-shards N] — cross-query UR cache —\n"
      "           --threads N [--parallel-threshold N] — intra-query\n"
      "           fan-out, default 0 = the executor's full width,\n"
      "           1 = serial; see docs/TUNING.md — and\n"
      "           --approx exact|sampled|adaptive [--sample-budget N] —\n"
      "           sampling-based approximate iterative top-k with error\n"
      "           bounds; see docs/APPROXIMATION.md)\n"
      "  interval --data DIR --ts T --te T [--k K] [--algo ...]\n"
      "  threshold --data DIR --tau F (--t T | --ts T --te T) [--algo ...]\n"
      "  itinerary --data DIR --object ID [--t0 T] [--t1 T] [--step S]\n"
      "           [--min-presence P] [--min-duration S] [--max-area A]\n"
      "  timeline --data DIR --poi ID [--t0 T] [--t1 T] [--step S]\n"
      "  report   --data DIR [--k K] [--slots N]\n"
      "  stats    --data DIR [--warmup N] (JSON; INDOORFLOW_TRACE=FILE\n"
      "           additionally writes a chrome://tracing span file)\n"
      "  explain  --data DIR (--t T | --ts T --te T) [--k K] [--tau F]\n"
      "           [--algo iterative|join] [--metric flow|density]\n"
      "           [--format text|json]   (query EXPLAIN profile)\n"
      "  serve    --data DIR [--port P] [--duration S] [--interval S]\n"
      "           [--queue-limit N] [--max-queue-wait-ms MS]\n"
      "           [--deadline-ms MS] [--probe on|off]\n"
      "           [--degrade-depth N]   (downgrade exact queries to\n"
      "           sampled evaluation at queue depth N instead of\n"
      "           shedding; see docs/APPROXIMATION.md)\n"
      "           [--live on|off] [--stream-shards N]   (live monitor\n"
      "           replayed from the dataset; /query/live)\n"
      "           [--trace-sample F]   (request-trace head sampling)\n"
      "           (query endpoints /query/snapshot, /query/interval,\n"
      "           /query/join, /query/live plus /metrics, /healthz,\n"
      "           /profiles/recent, /traces/recent on 127.0.0.1; see\n"
      "           docs/SERVING.md)\n"
      "  cleanse  --readings F.csv --deployment F.csv --out F.csv\n"
      "  render   --data DIR --out FILE.svg [--heatmap-t T]\n");
  return 2;
}

int Dispatch(const std::string& command, Flags& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "snapshot") {
    return CmdQuery(flags, command, {.t = true, .k = true});
  }
  if (command == "interval") {
    return CmdQuery(flags, command, {.ts_te = true, .k = true});
  }
  if (command == "threshold") {
    return CmdQuery(flags, command, {.t = true, .ts_te = true, .tau = true});
  }
  if (command == "itinerary") return CmdItinerary(flags);
  if (command == "timeline") return CmdTimeline(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "explain") {
    return CmdQuery(flags, command,
                    {.t = true, .ts_te = true, .k = true, .tau = true});
  }
  if (command == "serve") return CmdServe(flags);
  if (command == "report") return CmdReport(flags);
  if (command == "cleanse") return CmdCleanse(flags);
  if (command == "render") return CmdRender(flags);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv, 2);
  if (!flags.ok()) {
    return Fail("bad argument '" + flags.bad() + "' (flags take values)");
  }
  // INDOORFLOW_LOG_* configures the structured log sink (level, format,
  // file); INDOORFLOW_TRACE=FILE turns on the Chrome-trace span sink for
  // any subcommand; StopTracing finalizes the JSON array on the way out.
  InitLoggingFromEnv();
  InitTracingFromEnv();
  const int rc = Dispatch(argv[1], flags);
  StopTracing();
  return rc;
}

}  // namespace
}  // namespace indoorflow

int main(int argc, char** argv) { return indoorflow::Run(argc, argv); }
