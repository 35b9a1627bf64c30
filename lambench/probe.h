// Layer probes for the traced benchmark run.
//
// Every Laminar event is a (family, kind) continuation dispatched through the
// simulator's ContinuationRegistry. ProbedLaminar is a LaminarSystem whose
// Setup() override calls the base and then replaces each registered
// ContinuationClient with a proxy that forwards RunContinuation and
// RestoreContinuation, so each component's public entry point is timed per
// event kind without touching the program. The spans land in a SpanRecorder,
// which keeps them in memory and derives per-layer self time (duration minus
// the child spans it encloses, e.g. the manager's pull_complete fired
// synchronously from the relay's pull_done).
#ifndef LAMBENCH_PROBE_H_
#define LAMBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/laminar_system.h"
#include "src/sim/continuation.h"

namespace lambench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Layer table ------------------------------------------------------------------
// A layer is one timed boundary: a continuation (family, kind), or one of the
// benchmark-side spans around setup and the snapshot walk.
enum Layer : int {
  kLayerSetup = 0,          // driver Setup() (construction is timed outside)
  kLayerSnapshotWrite,      // in-run TakeSnapshot component walk
  kLayerSnapshotVerify,     // in-run VerifySnapshot component walk
  kLayerSnapshotAdopt,      // direct-boot adoption component walk
  kLayerSnapshotRemint,     // RestoreContinuation re-mint of a pending event
  kLayerFirstContinuation,  // first of the (family, kind) layers
};

// Metric-name stem of every layer, e.g. "rollout.replica.advance".
const std::vector<std::string>& LayerNames();
int NumLayers();
// Layer of continuation (family, kind); -1 if the kind has no name.
int ContinuationLayer(int family, uint16_t kind);

// Span recorder -----------------------------------------------------------------
struct Span {
  int32_t layer = 0;
  int32_t parent = -1;  // index into spans(), -1 = top level
  int32_t run = 0;      // which simulated run (leg) the span belongs to
  int64_t start_ns = 0; // relative to the recorder's epoch
  int64_t end_ns = 0;
};

struct LayerTotals {
  int64_t calls = 0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span and returns its index; spans nest strictly.
  int Open(int layer) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back().index;
    s.run = run_;
    s.start_ns = Now();
    int index = static_cast<int>(spans_.size());
    spans_.push_back(s);
    stack_.push_back({index, 0});
    return index;
  }
  void Close(int index);

  void set_run(int run) { run_ = run; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<LayerTotals>& totals() const { return totals_; }
  // Top-level spans closed so far that were continuation dispatches, i.e.
  // events the engine popped off the heap (nested dispatches excluded).
  int64_t top_level_dispatches() const { return top_level_dispatches_; }
  // Sum of the self time of every closed span.
  double total_self_s() const;
  // Writes spans as CSV (index,name,parent,run,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  struct OpenSpan {
    int index;
    int64_t child_ns;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
  std::vector<LayerTotals> totals_;
  int64_t top_level_dispatches_ = 0;
};

// Proxied Laminar driver ---------------------------------------------------------
enum class ProbeMode {
  kOff,        // plain LaminarSystem behaviour
  kFirstFire,  // record when the first continuation fires, then unwrap
  kSpans,      // wrap every registered client and record spans
};

class ContinuationProxy;

class ProbedLaminar : public laminar::LaminarSystem {
 public:
  ProbedLaminar(laminar::RlSystemConfig config, ProbeMode mode, SpanRecorder* spans);
  ~ProbedLaminar() override;

  // Runs only construction-time wiring plus Setup(), for set-up timing.
  void SetupOnly() { Setup(); }

  // Components the Setup() override wrapped.
  int wrapped() const { return static_cast<int>(proxies_.size()); }
  // Registered components that are not (or no longer) one of this driver's
  // proxies; empty when coverage is complete. Only meaningful in kSpans mode.
  std::vector<int32_t> UnwrappedComponents();
  // When the first RunContinuation after Setup() fired (any mode but kOff).
  bool fired() const { return fired_; }
  Clock::time_point first_fire() const { return first_fire_; }
  // kSpans: top-level dispatches recorded when the first in-run snapshot was
  // written (-1 if none was), i.e. the events executed before the barrier.
  int64_t dispatches_at_snapshot() const { return dispatches_at_snapshot_; }

  // Called by the proxies on every RunContinuation.
  void OnFire() {
    if (!fired_) {
      FirstFire();
    }
  }
  SpanRecorder* spans() { return spans_; }
  // Stops recording: later calls (the benchmark's own post-run probes of the
  // finished driver) run unrecorded.
  void DetachSpans() { spans_ = nullptr; }

 protected:
  void Setup() override;
  void SnapshotComponents(laminar::SnapshotTx& tx) override;

 private:
  void FirstFire();
  void Unwrap();

  ProbeMode mode_;
  SpanRecorder* spans_;
  std::vector<std::unique_ptr<ContinuationProxy>> proxies_;
  bool fired_ = false;
  Clock::time_point first_fire_;
  int64_t dispatches_at_snapshot_ = -1;
};

// Every registered component id of `registry`, in (family, instance) order.
std::vector<int32_t> RegisteredComponents(const laminar::ContinuationRegistry& registry);

}  // namespace lambench

#endif  // LAMBENCH_PROBE_H_
