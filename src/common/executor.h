// Shared work scheduler: a process-wide, lazily started thread pool.
//
// Every parallel call site in the library — batch snapshot queries,
// FlowMatrix materialization, and the intra-query object fan-out of the
// per-object kernel in query_pipeline.cc — schedules onto one shared pool
// instead of spawning per-call std::threads. That bounds process-wide
// concurrency under multi-tenant load (one pool-size cap instead of one
// thread herd per call) and amortizes thread creation across queries.
//
// Work distribution: ParallelFor hands indices out from one shared
// cursor, so whichever lane is free takes the next index. A lane that
// draws a few expensive indices does not hold up the rest of the section,
// and a helper that starts late takes whatever is left. On a busy pool
// (a loaded query service, an outer ParallelFor) the caller drains the
// cursor itself; helpers that start after that find nothing left to do.
//
// Determinism contract: which thread runs which index is
// scheduling-dependent, so no lane owns a fixed index set. Results stay
// deterministic because callers write per-index slots and reduce them in
// index order afterwards; that is bit-identical to a serial run (the
// pattern the query paths use; enforced by
// tests/parallel_differential_test.cc).
//
// Deadlock freedom under nesting: the caller of ParallelFor participates —
// it claims and runs lanes itself while pool workers help — so a lane that
// itself calls ParallelFor (e.g. a batch query whose per-timestamp queries
// fan out again) always makes progress even when every pool worker is
// busy. Waiting happens only on lane *completion*, never on queue space.
//
// Observability: the pool exports `executor.*` registry metrics (queue
// depth gauge, task counter, task wait-time histogram) and emits one
// Chrome-trace span per executed task when tracing is on (INDOORFLOW_TRACE).

#ifndef INDOORFLOW_COMMON_EXECUTOR_H_
#define INDOORFLOW_COMMON_EXECUTOR_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace indoorflow {

class Span;  // src/common/trace.h

class Executor {
 public:
  /// Hard cap on any pool's size; requests beyond it are clamped.
  static constexpr int kMaxThreads = 256;

  /// The process-wide pool, started lazily on first use and sized by the
  /// INDOORFLOW_THREADS environment variable when set (clamped to
  /// [1, kMaxThreads]), else by the hardware concurrency. Thread-safe;
  /// the returned reference is valid for the process lifetime.
  static Executor& Default();

  /// Resolves a user-facing `threads` knob the one canonical way:
  /// `threads > 0` means itself (clamped to kMaxThreads); `threads <= 0`
  /// means the hardware concurrency (at least 1). Every call site that
  /// accepts a threads option (EngineConfig::threads,
  /// FlowMatrixOptions::threads, SnapshotTopKBatch) resolves through
  /// here, so the fallback cannot drift between them.
  static int ResolveThreads(int threads);

  /// Resolves an `INDOORFLOW_THREADS` environment value the strict way:
  /// a positive integer means itself (clamped to kMaxThreads), "0" means
  /// hardware concurrency, and anything else — non-numeric, negative,
  /// trailing garbage, overflow — logs a structured warning and falls
  /// back to hardware concurrency instead of being silently ignored.
  /// `value` may be null or empty (no warning, hardware fallback).
  static int ThreadsFromEnv(const char* value);

  /// A pool with `threads` workers (resolved via ResolveThreads).
  /// Destruction drains nothing: queued tasks are completed, then the
  /// workers join. Prefer Default() outside tests.
  explicit Executor(int threads = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int worker_count() const { return worker_count_; }

  /// Runs fn(i) for every i in [0, n), fanning across up to `parallelism`
  /// concurrent lanes (the caller's thread plus pool workers). Blocks
  /// until every index has run. `parallelism <= 1` (or n <= 1) executes
  /// serially on the caller with no scheduling overhead at all.
  ///
  /// Thread safety: safe to call from any thread, including from inside a
  /// lane of another ParallelFor on the same pool (see the deadlock note
  /// above). `fn` must be safe to invoke concurrently from multiple
  /// threads for distinct indices; each index runs exactly once.
  ///
  /// Returns the number of lanes that ran at least one index: at least 1
  /// and at most min(parallelism, n); 1 means the loop ran serially or,
  /// on a busy pool, its caller drained the whole section alone. A thread
  /// runs at most one such lane (a lane ends only when the cursor is
  /// dry), so this is the number of threads that took part.
  ///
  /// When `span_parent` is an active request span (src/common/trace.h),
  /// every lane that runs work — including the serial fallback — records
  /// one child span ("lane <w>") covering the indices it drew from the
  /// shared cursor; a lane claimed after the cursor ran dry records none,
  /// so the trace holds as many lane spans as the return value. Null
  /// (the default, and every unsampled request) costs one pointer
  /// compare per lane.
  int ParallelFor(size_t n, int parallelism,
                  const std::function<void(size_t)>& fn,
                  const Span* span_parent = nullptr);

  /// Schedules `fn` to run exactly once on a pool worker, FIFO behind
  /// whatever is already queued (including ParallelFor helper tasks).
  /// Never blocks and never drops: tasks submitted before destruction are
  /// completed during it. Unlike ParallelFor there is no completion wait —
  /// callers needing one arrange it themselves (the serving layer counts
  /// in-flight requests; see src/serve/query_service.cc). `fn` must not
  /// block indefinitely: a worker stuck in one task is a worker the whole
  /// process loses.
  void Submit(std::function<void()> fn) INDOORFLOW_LOCKS_EXCLUDED(mu_);

 private:
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void Enqueue(std::function<void()> fn) INDOORFLOW_LOCKS_EXCLUDED(mu_);
  void WorkerLoop() INDOORFLOW_LOCKS_EXCLUDED(mu_);

  int worker_count_ = 0;
  Mutex mu_ INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceRtree)
      INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceExecutor) =
          Mutex(LockRank::kExecutor);
  CondVar work_cv_;
  std::deque<Task> queue_ INDOORFLOW_GUARDED_BY(mu_);
  bool shutdown_ INDOORFLOW_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace indoorflow

#endif  // INDOORFLOW_COMMON_EXECUTOR_H_
