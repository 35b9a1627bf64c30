// Process-wide worker-thread budget for the sweep runner's run-level
// parallelism (each simulation itself is single-threaded).
//
// Every auto-sized sweep wants "as many threads as there are spare cores",
// but sweeps can overlap — a sweep started from inside another sweep's
// worker, or concurrent sweeps from independent callers — and naively each
// would spawn its own full pool. The budget is a simple atomic pool
// initialized to hardware_concurrency - 1 (the caller's own thread is not
// counted): acquire takes up to `want` threads, release returns them. The
// sweep that starts first gets the cores; later ones degrade gracefully to
// zero extra workers (inline execution) instead of thrashing.
#ifndef LAMINAR_SRC_COMMON_THREAD_BUDGET_H_
#define LAMINAR_SRC_COMMON_THREAD_BUDGET_H_

namespace laminar {

class ThreadBudget {
 public:
  // Takes up to `want` worker threads from the pool; returns how many were
  // granted (possibly 0). Pass the grant to Release() when done.
  static int Acquire(int want);
  static void Release(int count);

  // Remaining budget right now (for tests and diagnostics).
  static int Available();

  // Overrides the pool size (tests). Resets outstanding grants.
  static void ResetForTest(int total);
};

}  // namespace laminar

#endif  // LAMINAR_SRC_COMMON_THREAD_BUDGET_H_
