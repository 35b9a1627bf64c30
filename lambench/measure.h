// Measurement: timed runs of one workload, the output checks every run must
// pass, and the assembly of end-to-end and per-layer metrics.
//
// An "op" is one simulated run: each untraced rep, each traced rep, and each
// direct-boot restore leg. An op fails when any of its output checks fails;
// failures are counted against ops attempted.
#ifndef LAMBENCH_MEASURE_H_
#define LAMBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lambench/probe.h"
#include "lambench/workloads.h"
#include "src/core/config.h"

namespace lambench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int samples = 0;  // reps behind the value (1 for deterministic counts)
};

// One rep of a workload: each of its simulated runs plus, where the workload
// has one, the direct-boot restore leg that finishes each run from its
// mid-run snapshot. Times are summed over the runs, per-run figures averaged.
struct RepResult {
  int ops = 0;
  int failed_ops = 0;
  std::vector<std::string> errors;

  double run_s = 0.0;      // construction + Run() of every leg
  double cpu_s = 0.0;      // process CPU time over the same span
  double restore_s = 0.0;  // restore leg: blob handed over -> first continuation
  double adopt_s = 0.0;    // restore leg: parse + adopt + re-mint (program's own)
  std::vector<laminar::SystemReport> reports;  // final report of each run
  // Determinism witness: events, report summary CSV and per-iteration CSV.
  std::string witness;
  size_t pending_peak = 0;  // event-slab high-water mark over the final legs

  // Traced reps only.
  double construct_s = 0.0;     // driver construction of every leg
  double engine_self_s = 0.0;   // run_s - construction - every span's self time
  std::vector<LayerTotals> layers;  // per-layer calls and self time
  // Non-event layers, timed by calling their public entry points on each
  // finished driver (0 when the workload has no snapshot / trace capture).
  double snapshot_write_s = 0.0;
  double snapshot_parse_s = 0.0;
  double snapshot_verify_s = 0.0;
  double snapshot_bytes = 0.0;
  double trace_export_s = 0.0;
  double trace_bytes = 0.0;
};

// Witness string of a finished run.
std::string Witness(const laminar::SystemReport& report);

// Runs one rep. `spans` non-null = traced rep (registry wrapped, spans
// recorded into it); it should be fresh for the rep.
RepResult RunRep(const Workload& w, SpanRecorder* spans);

struct MeasureOptions {
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run's spans are written (CSV); empty = not written.
  std::string spans_path;
};

struct MeasureResult {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  int untraced_reps = 0;
  int traced_reps = 0;
  int setup_reps = 0;
};

MeasureResult Measure(const Workload& w, const MeasureOptions& opt);

}  // namespace lambench

#endif  // LAMBENCH_MEASURE_H_
