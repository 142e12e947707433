// Dataset files, loading, engine set-up and the small helpers every
// workload shares.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "driver/bench.h"
#include "src/indoor/plan_io.h"
#include "src/sim/generators.h"
#include "src/tracking/io.h"

namespace perfbench {

using namespace indoorflow;

namespace {

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace

void WriteDataset(DatasetKind kind, const std::string& dir) {
  // The sizes below are the ones the workloads are defined on (README.md);
  // the generator seeds are fixed so every benchmark seed sees the same
  // dataset and only the operation schedule varies with the seed.
  Dataset ds;
  switch (kind) {
    case DatasetKind::kOffice: {
      // The ROADMAP measurement set: `indoorflow_cli generate --dataset
      // office --objects 2000 --duration 1800 --seed 7`.
      OfficeDatasetConfig config;
      config.num_objects = 2000;
      config.duration = 1800.0;
      config.detection_range = 1.5;
      config.num_pois = 75;
      config.seed = 7;
      ds = GenerateOfficeDataset(config);
      break;
    }
    case DatasetKind::kMall: {
      // `indoorflow_cli generate --dataset mall` at its default size.
      MallDatasetConfig config;
      config.num_shoppers = 300;
      config.window = 3600.0;
      config.detection_range = 1.5;
      config.num_pois = 75;
      config.seed = 42;
      ds = GenerateMallDataset(config);
      break;
    }
    case DatasetKind::kCph: {
      // The cph-like airport generator's defaults (2000 passengers).
      ds = GenerateCphLikeDataset(CphDatasetConfig{});
      break;
    }
  }
  Status status = WritePlanFile(ds.built.plan, dir + "/plan.txt");
  if (status.ok()) status = WritePoisFile(ds.pois, dir + "/pois.txt");
  if (status.ok()) {
    status = WriteDeploymentCsv(ds.deployment, dir + "/deployment.csv");
  }
  if (status.ok()) status = WriteOttCsv(ds.ott, dir + "/ott.csv");
  if (!status.ok()) Die("writing the dataset to " + dir, status);
}

std::unique_ptr<LoadedData> LoadDataset(const std::string& dir,
                                        LoadTimes* times) {
  auto data = std::make_unique<LoadedData>();
  const int64_t indoor_start = NowNs();
  auto plan = ReadPlanFile(dir + "/plan.txt");
  if (!plan.ok()) Die("loading plan.txt", plan.status());
  data->plan = std::move(*plan);
  auto pois = ReadPoisFile(dir + "/pois.txt");
  if (!pois.ok()) Die("loading pois.txt", pois.status());
  data->pois = std::move(*pois);
  data->graph = std::make_unique<DoorGraph>(data->plan);
  const int64_t tracking_start = NowNs();
  auto deployment = ReadDeploymentCsv(dir + "/deployment.csv");
  if (!deployment.ok()) Die("loading deployment.csv", deployment.status());
  data->deployment = std::move(*deployment);
  auto ott = ReadOttCsv(dir + "/ott.csv");
  if (!ott.ok()) Die("loading ott.csv", ott.status());
  data->ott = std::move(*ott);
  const int64_t end = NowNs();
  // The cross-file checks `indoorflow_cli` runs after loading.
  for (size_t i = 0; i < data->pois.size(); ++i) {
    if (data->pois[i].id != static_cast<PoiId>(i)) {
      Die("pois.txt", Status::InvalidArgument("not id-dense"));
    }
  }
  for (size_t i = 0; i < data->ott.size(); ++i) {
    const DeviceId device =
        data->ott.record(static_cast<RecordIndex>(i)).device_id;
    if (device < 0 ||
        static_cast<size_t>(device) >= data->deployment.size()) {
      Die("ott.csv", Status::InvalidArgument("unknown device"));
    }
  }
  if (times != nullptr) {
    times->indoor_ms = Ms(indoor_start, tracking_start);
    times->tracking_ms = Ms(tracking_start, end);
  }
  return data;
}

EngineSetup SetUpEngine(const std::string& dir) {
  EngineSetup setup;
  setup.data = LoadDataset(dir, &setup.load);
  const LoadedData& d = *setup.data;
  const int64_t start = NowNs();
  setup.engine = std::make_unique<QueryEngine>(
      d.plan, *d.graph, d.deployment, d.ott, d.pois, EngineConfig{});
  setup.engine_build_ms = Ms(start, NowNs());
  return setup;
}

bool SameTopK(const std::vector<PoiFlow>& a, const std::vector<PoiFlow>& b,
              double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].poi != b[i].poi) return false;
    if (!(std::abs(a[i].flow - b[i].flow) <= tol)) return false;
  }
  return true;
}

bool AgreeTopK(const std::vector<PoiFlow>& a, const std::vector<PoiFlow>& b,
               double tol) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  std::map<PoiId, double> in_b;
  for (const PoiFlow& f : b) in_b[f.poi] = f.flow;
  std::map<PoiId, double> in_a;
  for (const PoiFlow& f : a) in_a[f.poi] = f.flow;
  const auto close = [tol](double x, double y) {
    return std::abs(x - y) <= tol;
  };
  for (const PoiFlow& f : a) {
    const auto it = in_b.find(f.poi);
    if (it != in_b.end() ? !close(f.flow, it->second)
                         : !close(f.flow, b.back().flow)) {
      return false;
    }
  }
  for (const PoiFlow& f : b) {
    if (!in_a.contains(f.poi) && !close(f.flow, a.back().flow)) return false;
  }
  return true;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  const double unit = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

int Rng::Below(int n) {
  return static_cast<int>(Next() % static_cast<uint64_t>(n));
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void AddEndToEnd(const Summary& primary, const Summary& secondary,
                 double throughput_per_s, double setup_s, Result* result) {
  result->Add("primary_p50_ms", primary.p50, "ms");
  result->Add("primary_tail_ms", primary.tail, "ms");
  result->Add("secondary_p50_ms", secondary.p50, "ms");
  result->Add("secondary_tail_ms", secondary.tail, "ms");
  result->Add("throughput_per_s", throughput_per_s, "1/s");
  result->Add("setup_s", setup_s, "s");
}

std::vector<std::pair<std::string, int64_t>> StatsCounts(
    const QueryStats (&stats)[2]) {
  std::vector<std::pair<std::string, int64_t>> out;
  const char* names[2] = {"iterative", "join"};
  for (int a = 0; a < 2; ++a) {
    const std::string suffix = std::string(".") + names[a];
    out.emplace_back("core.objects_retrieved" + suffix,
                     stats[a].objects_retrieved);
    out.emplace_back("core.regions_derived" + suffix,
                     stats[a].regions_derived);
    out.emplace_back("core.presence_evaluations" + suffix,
                     stats[a].presence_evaluations);
    out.emplace_back("core.pois_evaluated" + suffix, stats[a].pois_evaluated);
  }
  return out;
}

void AddSetupLayers(const LoadTimes& load, double build_ms, Result* result) {
  result->Add("tracking.load_ms", load.tracking_ms, "ms");
  result->Add("indoor.load_ms", load.indoor_ms, "ms");
  result->Add("core.build_ms", build_ms, "ms");
}

void Result::NoteSummary(const std::string& name, const Summary& s) {
  Note(name + "_p50_ms", s.p50, "ms");
  Note(name + "_tail_ms", s.tail, "ms");
  Note(name + "_tail_pct", s.tail_pct, "%");
  Note(name + "_samples", static_cast<double>(s.n), "count");
}

}  // namespace perfbench
