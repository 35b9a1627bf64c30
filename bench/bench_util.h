// Shared helpers for the figure/table reproduction harnesses.
#ifndef LAMINAR_BENCH_BENCH_UTIL_H_
#define LAMINAR_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/run.h"
#include "src/exp/sweep.h"

namespace laminar {

// Standard throughput-experiment configuration (paper §8 "Settings"):
// global batch 8192 = 512 prompts x 16 responses, 16 mini-batches,
// per-rollout concurrency 1024. Iteration counts are scaled down from the
// paper's 10+5 to keep the full sweep fast; the simulator is deterministic,
// so fewer samples suffice.
RlSystemConfig ThroughputConfig(SystemKind system, ModelScale scale, int total_gpus,
                                TaskKind task = TaskKind::kMathReasoning);

// Convergence-experiment configuration (paper Table 3): mini-batch 2048
// (4 mini-batch steps), per-rollout concurrency 256, FIFO sampling.
RlSystemConfig ConvergenceConfig(SystemKind system, ModelScale scale, int total_gpus);

// Fans a config grid out across hardware threads (src/exp/sweep.h). Results
// come back in submission order and are identical to calling RunExperiment()
// on each config serially. Harnesses build the grid in display order, sweep
// once, then walk the reports with a cursor. When --trace-out is armed (see
// InitBenchTracing), every experiment captures a full trace and the files are
// written in submission order after the sweep.
std::vector<SystemReport> RunSweep(const std::vector<RlSystemConfig>& configs);

// --trace-out support -----------------------------------------------------
// Every harness accepts `--trace-out <path>` (or --trace-out=<path>): each
// experiment then records a structured trace, written as
// "<base>.<NNN><ext>" in submission order — Chrome/Perfetto JSON when the
// path ends in ".json", the compact binary format otherwise. Notices go to
// stderr so table output on stdout stays byte-identical. An output path
// whose directory is missing or unwritable (--trace-out or --snapshot-out)
// is reported as "trace: cannot write PATH" (or "snapshot: ...") and exits
// with status 1 before any experiment runs.
void InitBenchTracing(int argc, char** argv);
bool BenchTracingEnabled();
// Enables trace capture on `cfg` when --trace-out was given (for harnesses
// that build drivers directly instead of going through RunSweep).
void ArmTrace(RlSystemConfig& cfg);
// Writes the report's trace (if any) to the next numbered output file; a
// failed write is reported on stderr and exits with status 1.
void MaybeWriteTrace(const SystemReport& report);

// Warm-start snapshots --------------------------------------------------------
// Every harness accepts `--snapshot-at <T>` (or =<T>): each experiment then
// pauses at the first event boundary at or past T simulated seconds and captures
// an LMSNAP1 state snapshot. A snapshot is an observation, never a
// perturbation, so the printed tables are byte-identical with or without it.
// `--snapshot-out <path>` writes each experiment's snapshot as a
// "<base>.<NNN><ext>" warm-start file (submission order, like --trace-out).
// `--restore-from <file>` direct-boots the config the file was taken from:
// the file stores that config's submission index among all the configs the
// harness passes to RunSweep, and only the config at that index adopts the
// blob and re-mints the event heap, in wall-clock independent of the barrier
// time (DESIGN.md §13). Every other config runs from t=0. A file that is not
// a bench warm-start file exits with status 2 before any experiment runs; a
// config at that index whose Label() differs from the file's label, or that
// is not a Laminar config, exits with status 2 naming the label before its
// grid runs; a harness that never reaches the index exits with status 2 when
// it ends. A warm-start file that cannot be written is reported on stderr and
// exits with status 1.
// All notices and mismatch reports go to stderr; stdout never moves.
void ArmSnapshot(RlSystemConfig& cfg);
bool BenchSnapshotEnabled();

// Prints a section header.
void Banner(const std::string& title);

// Formats "123,456" tokens/s.
std::string Tps(double v);

}  // namespace laminar

#endif  // LAMINAR_BENCH_BENCH_UTIL_H_
