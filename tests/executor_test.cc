// Tests for the shared work scheduler (src/common/executor.h): exactly-once
// index coverage, thread resolution, deadlock freedom under nesting, and —
// as ExecutorConcurrencyTest, which runs under ThreadSanitizer in CI — full
// engine queries racing on a hot pool with forced intra-query parallelism.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/executor.h"
#include "src/common/log.h"
#include "src/core/engine.h"
#include "src/core/flow_matrix.h"
#include "src/core/streaming.h"

namespace indoorflow {
namespace {

TEST(ExecutorTest, ResolveThreads) {
  EXPECT_EQ(Executor::ResolveThreads(1), 1);
  EXPECT_EQ(Executor::ResolveThreads(7), 7);
  EXPECT_EQ(Executor::ResolveThreads(Executor::kMaxThreads + 5),
            Executor::kMaxThreads);
  const int hw = Executor::ResolveThreads(0);
  EXPECT_GE(hw, 1);
  EXPECT_LE(hw, Executor::kMaxThreads);
  // All non-positive requests resolve the same way.
  EXPECT_EQ(Executor::ResolveThreads(-3), hw);
}

TEST(ExecutorTest, ThreadsFromEnvParsesStrictlyAndWarnsOnGarbage) {
  const int hw = Executor::ResolveThreads(0);

  // Valid values: positive integers (clamped), "0" = hardware request.
  EXPECT_EQ(Executor::ThreadsFromEnv("1"), 1);
  EXPECT_EQ(Executor::ThreadsFromEnv("7"), 7);
  EXPECT_EQ(Executor::ThreadsFromEnv("99999"), Executor::kMaxThreads);
  EXPECT_EQ(Executor::ThreadsFromEnv("0"), hw);
  EXPECT_EQ(Executor::ThreadsFromEnv("  3"), 3);  // strtol leniency

  // Unset / empty: hardware fallback without a warning.
  EXPECT_EQ(Executor::ThreadsFromEnv(nullptr), hw);
  EXPECT_EQ(Executor::ThreadsFromEnv(""), hw);

  // Garbage must not be silently truncated to a prefix (the old atoi
  // behavior) or silently ignored: it falls back to hardware concurrency
  // and logs a structured warning naming the offending value.
  const std::string path =
      ::testing::TempDir() + "/indoorflow_executor_env.log";
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());
  SetLogFormat(LogFormat::kText);
  SetLogLevel(LogLevel::kWarn);
  for (const char* bad :
       {"abc", "8x", "2.5", "-4", "999999999999999999999"}) {
    EXPECT_EQ(Executor::ThreadsFromEnv(bad), hw) << bad;
  }
  SetLogLevel(LogLevel::kInfo);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string log = content.str();
  EXPECT_NE(log.find("INDOORFLOW_THREADS"), std::string::npos) << log;
  EXPECT_NE(log.find("value=abc"), std::string::npos) << log;
  EXPECT_NE(log.find("value=-4"), std::string::npos) << log;
}

TEST(ExecutorTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                         size_t{1000}}) {
    for (const int parallelism : {1, 2, 8, 33}) {
      std::vector<std::atomic<int>> counts(n);
      for (auto& c : counts) c.store(0);
      Executor::Default().ParallelFor(n, parallelism, [&counts](size_t i) {
        counts[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1)
            << "n=" << n << " parallelism=" << parallelism << " i=" << i;
      }
    }
  }
}

TEST(ExecutorTest, ParallelForReportsLaneCount) {
  const auto noop = [](size_t) {};
  // Serial cases collapse to one lane.
  EXPECT_EQ(Executor::Default().ParallelFor(10, 1, noop), 1);
  EXPECT_EQ(Executor::Default().ParallelFor(0, 8, noop), 1);
  EXPECT_EQ(Executor::Default().ParallelFor(1, 8, noop), 1);
  // Lanes never exceed the item count or the requested parallelism.
  EXPECT_EQ(Executor::Default().ParallelFor(3, 8, noop), 3);
  EXPECT_EQ(Executor::Default().ParallelFor(100, 4, noop), 4);
}

// Nested fan-out must not deadlock even when every pool worker is busy:
// the calling thread always participates, so each batch has at least one
// lane that is not waiting on the queue.
TEST(ExecutorTest, NestedParallelForCompletes) {
  std::atomic<int> inner_total{0};
  Executor::Default().ParallelFor(8, 8, [&inner_total](size_t) {
    Executor::Default().ParallelFor(8, 8, [&inner_total](size_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

// A private pool with explicit worker counts behaves like the default one.
TEST(ExecutorTest, PrivatePoolRunsBatches) {
  Executor pool(3);
  EXPECT_EQ(pool.worker_count(), 3);
  std::vector<std::atomic<int>> counts(50);
  for (auto& c : counts) c.store(0);
  const int lanes = pool.ParallelFor(counts.size(), 8, [&counts](size_t i) {
    counts[i].fetch_add(1);
  });
  EXPECT_EQ(lanes, 8);
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// Indices are claimed from one shared cursor, not fixed strided lanes: an
// index that waits until every other index of its own section has run
// completes as long as a second lane takes part. Under strided lanes
// index 0 would wait on index 2 of its own lane forever; the timeout
// turns that into a failure instead of a hang.
TEST(ExecutorTest, IndexWaitingOnTheRestOfItsSectionCompletes) {
  Executor pool(2);
  constexpr size_t kN = 16;
  std::atomic<size_t> others_done{0};
  std::atomic<bool> index0_saw_all{false};
  pool.ParallelFor(kN, 2, [&](size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kN - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    index0_saw_all.store(others_done.load() == kN - 1);
  });
  EXPECT_TRUE(index0_saw_all.load());
  EXPECT_EQ(others_done.load(), kN - 1);
}

// On a pool whose only worker is busy, the caller drains the whole section
// itself and returns without waiting for its queued helper to start; the
// helper later finds every lane closed.
TEST(ExecutorTest, BusyPoolSectionCompletesOnCaller) {
  Executor pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.Submit([&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> counts(100);
  for (auto& c : counts) c.store(0);
  std::atomic<int> off_caller{0};
  const int lanes = pool.ParallelFor(counts.size(), 4, [&](size_t i) {
    counts[i].fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  EXPECT_EQ(off_caller.load(), 0);
  release.store(true);
  EXPECT_EQ(lanes, 4);
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

bool SameFlows(const std::vector<PoiFlow>& a, const std::vector<PoiFlow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical: intra-query fan-out must not reorder accumulation.
    if (a[i].poi != b[i].poi || a[i].flow != b[i].flow) return false;
  }
  return true;
}

// The TSan stress subject: several threads issue queries whose per-object
// work fans across the shared pool (threads=8, parallel_threshold=1 forces
// the parallel path even on this small dataset), while another thread
// ingests into a StreamingMonitor that also uses engine machinery. Answers
// must stay bit-identical to a fully serial engine throughout.
TEST(ExecutorConcurrencyTest, ParallelQueriesRaceOnHotPool) {
  OfficeDatasetConfig config;
  config.num_objects = 20;
  config.duration = 600.0;
  config.seed = 99;
  const Dataset dataset = GenerateOfficeDataset(config);

  EngineConfig serial_config;
  serial_config.threads = 1;
  const QueryEngine serial(dataset, serial_config);

  EngineConfig parallel_config;
  parallel_config.threads = 8;
  parallel_config.parallel_threshold = 1;
  const QueryEngine parallel(dataset, parallel_config);

  const std::vector<Timestamp> times = {60.0, 150.0, 300.0, 450.0, 590.0};
  std::vector<std::vector<PoiFlow>> want_snapshot;
  std::vector<std::vector<PoiFlow>> want_interval;
  for (const Timestamp t : times) {
    want_snapshot.push_back(serial.SnapshotTopK(t, 5, Algorithm::kJoin));
    want_interval.push_back(
        serial.IntervalTopK(t, t + 120.0, 5, Algorithm::kIterative));
  }

  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  constexpr int kQueryThreads = 6;
  workers.reserve(kQueryThreads + 1);
  for (int w = 0; w < kQueryThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < times.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(w)) % times.size();
          if (!SameFlows(parallel.SnapshotTopK(times[q], 5, Algorithm::kJoin),
                         want_snapshot[q]) ||
              !SameFlows(parallel.IntervalTopK(times[q], times[q] + 120.0, 5,
                                               Algorithm::kIterative),
                         want_interval[q])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Ingest into an independent monitor while the pool is hot, so executor
  // tasks interleave with streaming's own locking.
  workers.emplace_back([&done] {
    Deployment deployment;
    deployment.AddDevice(Circle{{5, 8}, 1.0});
    deployment.AddDevice(Circle{{15, 8}, 1.0});
    deployment.BuildIndex();
    PoiSet pois;
    pois.push_back(Poi{0, "room_a", Polygon::Rectangle(0, 4, 10, 12)});
    pois.push_back(Poi{1, "room_b", Polygon::Rectangle(10, 4, 20, 12)});
    StreamingOptions options;
    options.vmax = 1.0;
    StreamingMonitor monitor(deployment, pois, options);
    double t = 0.0;
    while (!done.load()) {
      for (ObjectId o = 0; o < 4; ++o) {
        ASSERT_TRUE(monitor.Ingest({o, o % 2, t}).ok());
      }
      (void)monitor.CurrentTopK(t, 2);
      t += 1.0;
    }
  });
  for (size_t w = 0; w + 1 < workers.size(); ++w) workers[w].join();
  done.store(true);
  workers.back().join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Batch fan-out and FlowMatrix materialization share the pool with query
// fan-out; running them concurrently must not corrupt either result.
TEST(ExecutorConcurrencyTest, BatchAndMatrixShareThePool) {
  OfficeDatasetConfig config;
  config.num_objects = 12;
  config.duration = 600.0;
  config.seed = 321;
  const Dataset dataset = GenerateOfficeDataset(config);
  EngineConfig engine_config;
  engine_config.threads = 4;
  engine_config.parallel_threshold = 1;
  const QueryEngine engine(dataset, engine_config);

  std::vector<Timestamp> times;
  for (double t = 30.0; t < 600.0; t += 30.0) times.push_back(t);
  const auto want_batch =
      engine.SnapshotTopKBatch(times, 5, Algorithm::kJoin, nullptr, 1);
  FlowMatrixOptions matrix_options;
  matrix_options.bucket_seconds = 60.0;
  matrix_options.threads = 1;
  const FlowMatrix want_matrix =
      FlowMatrix::Build(engine, 0.0, 600.0, matrix_options);

  std::atomic<int> mismatches{0};
  std::thread batcher([&] {
    for (int round = 0; round < 3; ++round) {
      const auto got =
          engine.SnapshotTopKBatch(times, 5, Algorithm::kJoin, nullptr, 8);
      if (got.size() != want_batch.size()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < got.size(); ++i) {
        if (!SameFlows(got[i], want_batch[i])) mismatches.fetch_add(1);
      }
    }
  });
  std::thread builder([&] {
    FlowMatrixOptions options = matrix_options;
    options.threads = 8;
    for (int round = 0; round < 3; ++round) {
      const FlowMatrix got = FlowMatrix::Build(engine, 0.0, 600.0, options);
      for (size_t b = 0; b < got.num_buckets(); ++b) {
        for (size_t p = 0; p < got.num_pois(); ++p) {
          if (got.FlowAt(b, static_cast<PoiId>(p)) !=
              want_matrix.FlowAt(b, static_cast<PoiId>(p))) {
            mismatches.fetch_add(1);
          }
        }
      }
    }
  });
  batcher.join();
  builder.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace indoorflow
