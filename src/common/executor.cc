#include "src/common/executor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace indoorflow {
namespace {

// Registry handles, resolved once (function-local static) so the hot path
// never takes the registry lock.
struct PoolMetrics {
  Counter& tasks;
  Gauge& queue_depth;
  Histogram& task_wait_us;
};

PoolMetrics& Metrics() {
  auto& reg = MetricsRegistry::Default();
  static PoolMetrics m{reg.counter("executor.tasks"),
                       reg.gauge("executor.queue_depth"),
                       reg.histogram("executor.task_wait_us")};
  return m;
}

int DefaultPoolSize() {
  return Executor::ThreadsFromEnv(std::getenv("INDOORFLOW_THREADS"));
}

// One ParallelFor invocation's shared bookkeeping. Lives in a shared_ptr
// because helper tasks may still sit in the pool queue after the batch
// completes (they claim no lane and exit, but must find valid memory).
struct BatchState {
  Mutex mu INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceRtree)
      INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceExecutor) =
          Mutex(LockRank::kExecutor);
  CondVar done_cv;
  size_t n = 0;
  size_t lanes = 0;
  // The one index cursor every lane draws from. It only hands out
  // distinct indices; results are published by the `pending` handshake
  // under `mu`.
  std::atomic<size_t> next_index{0};
  size_t next_lane INDOORFLOW_GUARDED_BY(mu) = 0;
  size_t pending INDOORFLOW_GUARDED_BY(mu) = 0;
  // Lanes that ran at least one index (ParallelFor's return value).
  size_t worked INDOORFLOW_GUARDED_BY(mu) = 0;
  std::function<void(size_t)> fn;
  // Request span the lanes parent under (null = untraced). Set before
  // the helpers are enqueued and read-only afterwards; the caller's
  // ParallelFor blocks until every lane finishes, so it outlives them.
  const Span* span_parent = nullptr;
};

// Runs fn on `first` and then on indices drawn from the shared cursor
// until it runs dry.
void DrainIndices(BatchState& state, size_t first) {
  for (size_t i = first; i < state.n; i = state.next_index++) state.fn(i);
}

// Claims lanes off `state` until none remain, each lane draining the
// shared index cursor. Runs on the calling thread *and* on pool workers;
// the caller's participation is what makes nested ParallelFor
// deadlock-free (progress never depends on a free worker). Once the
// cursor is dry, the lanes still unclaimed close at once, so the caller
// never waits on a helper that has not started.
void RunLanes(BatchState& state) {
  for (;;) {
    size_t lane;
    {
      MutexLock lock(state.mu);
      if (state.next_lane >= state.lanes) return;
      lane = state.next_lane++;
    }
    // The lane's first index is drawn before its span opens, so a lane
    // that finds the cursor dry leaves no trace.
    const size_t first = state.next_index++;
    const bool ran = first < state.n;
    if (ran && state.span_parent != nullptr) {
      // One child span per lane, recorded outside the batch lock.
      Span lane_span(state.span_parent, "lane " + std::to_string(lane));
      DrainIndices(state, first);
    } else if (ran) {
      DrainIndices(state, first);
    }
    MutexLock lock(state.mu);
    if (ran) ++state.worked;
    if (--state.pending == 0) state.done_cv.NotifyAll();
  }
}

}  // namespace

Executor& Executor::Default() {
  // Function-local static: constructed on first use, destroyed (workers
  // joined) at static teardown, so sanitizers see no leaked threads.
  static Executor pool(DefaultPoolSize());
  return pool;
}

int Executor::ResolveThreads(int threads) {
  if (threads > 0) return std::min(threads, kMaxThreads);
  unsigned hw = std::thread::hardware_concurrency();
  int resolved = hw == 0 ? 1 : static_cast<int>(hw);
  return std::min(resolved, kMaxThreads);
}

int Executor::ThreadsFromEnv(const char* value) {
  if (value == nullptr || *value == '\0') return ResolveThreads(0);
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  // Strict parse: the whole string must be one base-10 integer. "8x",
  // "abc", "2.5", negatives, and out-of-long values all fall back to the
  // hardware default — loudly, since a mistyped env var that silently
  // changes the pool size is exactly the bug this guards against.
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 0) {
    Log(LogLevel::kWarn, "executor",
        "ignoring invalid INDOORFLOW_THREADS; using hardware concurrency")
        .Field("value", value);
    return ResolveThreads(0);
  }
  // "0" is an explicit request for hardware concurrency; positive values
  // clamp to kMaxThreads like every other threads knob.
  return ResolveThreads(static_cast<int>(
      std::min(parsed, static_cast<long>(kMaxThreads))));
}

Executor::Executor(int threads) : worker_count_(ResolveThreads(threads)) {
  workers_.reserve(static_cast<size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void Executor::Submit(std::function<void()> fn) {
  Enqueue(std::move(fn));
}

void Executor::Enqueue(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    queue_.push_back(Task{std::move(fn), MonotonicNowNs()});
    Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
  }
  work_cv_.NotifyOne();
}

void Executor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutdown_) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    const int64_t start_ns = MonotonicNowNs();
    Metrics().task_wait_us.Record(
        static_cast<double>(start_ns - task.enqueue_ns) / 1000.0);
    task.fn();
    Metrics().tasks.Add(1);
    if (TracingEnabled()) {
      const int64_t end_ns = MonotonicNowNs();
      EmitTraceEvent("executor.task", start_ns / 1000,
                     (end_ns - start_ns) / 1000);
    }
  }
}

int Executor::ParallelFor(size_t n, int parallelism,
                          const std::function<void(size_t)>& fn,
                          const Span* span_parent) {
  const size_t want =
      parallelism > 0 ? static_cast<size_t>(parallelism) : size_t{1};
  const size_t lanes = std::min(want, n);
  if (lanes <= 1) {
    if (span_parent != nullptr && n > 0) {
      Span lane_span(span_parent, "lane 0");
      for (size_t i = 0; i < n; ++i) fn(i);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
    return 1;
  }
  auto state = std::make_shared<BatchState>();
  state->n = n;
  state->lanes = lanes;
  state->fn = fn;
  state->span_parent = span_parent;
  {
    MutexLock lock(state->mu);
    state->pending = lanes;
  }
  // The caller covers one lane itself, so at most lanes - 1 helpers are
  // useful; beyond worker_count_ they would only queue up behind each
  // other. A helper that starts after the caller drained the cursor finds
  // every lane closed and returns at once.
  const int helpers =
      std::min(static_cast<int>(lanes) - 1, worker_count_);
  for (int i = 0; i < helpers; ++i) {
    Enqueue([state] { RunLanes(*state); });
  }
  RunLanes(*state);
  MutexLock lock(state->mu);
  while (state->pending > 0) state->done_cv.Wait(state->mu);
  return static_cast<int>(state->worked);
}

}  // namespace indoorflow
