// What every workload shares: run options, the result it reports, and
// the on-disk datasets it loads.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/spans.h"
#include "driver/stats.h"
#include "src/core/engine.h"
#include "src/indoor/door_graph.h"
#include "src/indoor/floor_plan.h"
#include "src/indoor/poi.h"
#include "src/tracking/deployment.h"
#include "src/tracking/ott.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the dataset files are written to and loaded from.
  std::string data_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// False when any correctness check failed.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The contract's metrics: end-to-end ones untraced, per-layer ones
  /// traced.
  std::vector<Metric> metrics;
  /// Informational lines printed before the result: the workload's own
  /// metric names, tail percentiles and sample counts.
  std::vector<Metric> notes;
  /// Machine-independent work counts; a seed repeats them exactly.
  std::vector<std::pair<std::string, int64_t>> counters;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  void Count(const std::string& name, int64_t value) {
    counters.emplace_back(name, value);
  }
  void Fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
  /// Adds `<name>_p50_ms` and `<name>_tail_ms` notes plus the tail
  /// percentile and sample count.
  void NoteSummary(const std::string& name, const Summary& s);
};

/// Datasets as `indoorflow_cli generate` writes them, and as
/// `indoorflow_cli --data` loads them.
enum class DatasetKind { kOffice, kMall, kCph };

/// Generates the workload's dataset and writes plan.txt, pois.txt,
/// deployment.csv and ott.csv into `dir`. Not part of any timed phase.
void WriteDataset(DatasetKind kind, const std::string& dir);

struct LoadTimes {
  double tracking_ms = 0.0;  // deployment.csv + ott.csv
  double indoor_ms = 0.0;    // plan.txt + pois.txt + door graph
};

/// The loaded files, with the cross-file checks `indoorflow_cli` applies.
struct LoadedData {
  indoorflow::FloorPlan plan;
  std::unique_ptr<indoorflow::DoorGraph> graph;
  indoorflow::Deployment deployment;
  indoorflow::ObjectTrackingTable ott;
  indoorflow::PoiSet pois;
};

/// Loads `dir` the way `indoorflow_cli --data` does; aborts the run with a
/// message on a load error (the files were just written by WriteDataset).
std::unique_ptr<LoadedData> LoadDataset(const std::string& dir,
                                        LoadTimes* times);

/// Loaded data plus the engine built over it with default EngineConfig.
struct EngineSetup {
  std::unique_ptr<LoadedData> data;
  std::unique_ptr<indoorflow::QueryEngine> engine;
  LoadTimes load;
  double engine_build_ms = 0.0;
};
EngineSetup SetUpEngine(const std::string& dir);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 15;

/// Median of `values` (0 when empty).
double MedianOf(std::vector<double> values);

/// Runs `setup` `times` times and returns the median wall seconds; `keep`
/// receives the last instance.
template <typename T, typename SetUp>
double MedianSetupSeconds(int times, const SetUp& setup, T* keep);

/// Milliseconds between two NowNs() readings.
inline double Ms(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Two top-k answers are identical: same POIs in the same order, each
/// flow within `tol`.
bool SameTopK(const std::vector<indoorflow::PoiFlow>& a,
              const std::vector<indoorflow::PoiFlow>& b, double tol);

/// Two top-k answers agree per POI, as tests/differential_test.cc compares
/// them: same length, a POI in both has flows within `tol`, and a POI in
/// only one ties the other answer's k-th flow within `tol` (presences
/// summed in another order may break a tie at the cut differently).
bool AgreeTopK(const std::vector<indoorflow::PoiFlow>& a,
               const std::vector<indoorflow::PoiFlow>& b, double tol);

/// Deterministic 64-bit generator (splitmix64) for the workload schedules.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  int Below(int n);

 private:
  uint64_t state_;
};

/// The six end-to-end metrics every workload reports, under their shared
/// names (README.md maps them to each workload's own): the primary and
/// secondary operation's median and tail latency, the throughput, and the
/// set-up time.
void AddEndToEnd(const Summary& primary, const Summary& secondary,
                 double throughput_per_s, double setup_s, Result* result);

/// The QueryStats work counts of both algorithms (index 0 iterative, 1
/// join) under the names the benchmark reports them by:
/// core.objects_retrieved.iterative, core.regions_derived.join, ...
std::vector<std::pair<std::string, int64_t>> StatsCounts(
    const indoorflow::QueryStats (&stats)[2]);

/// Per-layer set-up metrics: tracking.load_ms, indoor.load_ms and
/// core.build_ms.
void AddSetupLayers(const LoadTimes& load, double build_ms, Result* result);

/// The serve-layer per-layer metrics (serve.*, driver.*, and
/// common.executor.* when `executor_metrics`) over `engine`, whose data
/// span [t0, t1]: a seeded pool of 48 /query/snapshot, /query/interval and
/// /query/join requests sent once, open loop at 8 requests/s, through
/// QueryService::Submit, then each twice through QueryService::Evaluate.
/// Every answer is checked against the engine's.
void MeasureServeLayers(const indoorflow::QueryEngine& engine, double t0,
                        double t1, Rng* rng, bool executor_metrics,
                        Result* result);

Result RunOffice(const Options& options);
Result RunMall(const Options& options);
Result RunLive(const Options& options);

// --- template definitions ----------------------------------------------

template <typename T, typename SetUp>
double MedianSetupSeconds(int times, const SetUp& setup, T* keep) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    *keep = T{};  // release the previous instance outside the timed span
    const int64_t start = NowNs();
    *keep = setup();
    seconds.push_back(Ms(start, NowNs()) / 1e3);
  }
  return MedianOf(seconds);
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
