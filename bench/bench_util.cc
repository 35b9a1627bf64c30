#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "src/common/table.h"
#include "src/snapshot/snapshot.h"
#include "src/trace/trace_io.h"

namespace laminar {
namespace {

std::string g_trace_out;     // empty = tracing off
int g_trace_index = 0;       // per-process trace file counter
double g_snapshot_at = 0.0;  // 0 = no snapshot barrier
std::string g_snapshot_out;  // empty = don't write warm-start files
int g_snapshot_index = 0;    // per-process snapshot file counter
int g_sweep_next = 0;        // submission index of the next RunSweep config
bool g_restore_armed = false;
bool g_restore_reached = false;  // RunSweep reached g_restore.sweep_index
SnapshotFile g_restore;          // decoded --restore-from file

// Exit hook of a --restore-from run: a file whose config index the harness
// never submitted restored nothing, which must not pass for success.
void CheckRestoreReached() {
  if (g_restore_reached) {
    return;
  }
  std::fflush(stdout);
  std::fprintf(stderr, "--restore-from: config #%lld (\"%s\") is not in this harness\n",
               static_cast<long long>(g_restore.sweep_index), g_restore.scenario_text.c_str());
  std::_Exit(2);
}

void LoadRestoreFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "--restore-from: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream data;
  data << in.rdbuf();
  std::string error;
  if (!DecodeSnapshotFile(data.str(), &g_restore, &error)) {
    std::fprintf(stderr, "--restore-from: %s: %s\n", path, error.c_str());
    std::exit(2);
  }
  if (g_restore.sweep_index < 0) {
    std::fprintf(stderr, "--restore-from: %s: not a bench warm-start file (a fuzz "
                 "scenario's file restores through laminar_fuzz)\n", path);
    std::exit(2);
  }
  g_restore_armed = true;
  std::atexit(CheckRestoreReached);
}

// "<base>.<NNN><ext>": the `index`-th output file of a --trace-out or
// --snapshot-out path, numbered before the path's extension (if any).
std::string NumberedPath(const std::string& path, int index) {
  std::string base = path;
  std::string ext;
  size_t slash = base.find_last_of('/');
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    ext = base.substr(dot);
    base.resize(dot);
  }
  char num[16];
  std::snprintf(num, sizeof(num), ".%03d", index);
  return base + num + ext;
}

// Exits 1 with "<what>: cannot write PATH" unless the directory that will
// hold `path`'s numbered files exists and is writable, so a bad output path
// fails before any experiment runs rather than after the whole sweep.
void CheckOutputDirectory(const char* what, const std::string& path) {
  if (path.empty()) {
    return;
  }
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, std::max<size_t>(slash, 1));
  if (access(dir.c_str(), W_OK | X_OK) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", what, path.c_str());
    std::exit(1);
  }
}

// --restore-from: arms the blob into the config the file was taken from, the
// one at the file's submission index, when `configs` (whose first config has
// submission index `base`) holds it (see bench_util.h).
void ArmRestore(std::vector<RlSystemConfig>& configs, int base) {
  int64_t i = g_restore.sweep_index - base;
  if (i < 0 || i >= static_cast<int64_t>(configs.size())) {
    return;
  }
  g_restore_reached = true;
  RlSystemConfig& cfg = configs[static_cast<size_t>(i)];
  const std::string& label = g_restore.scenario_text;
  if (cfg.Label() != label) {
    std::fprintf(stderr, "--restore-from: config #%lld is \"%s\", but the file was "
                 "taken from \"%s\"\n", static_cast<long long>(g_restore.sweep_index),
                 cfg.Label().c_str(), label.c_str());
    std::exit(2);
  }
  if (cfg.system != SystemKind::kLaminar) {
    std::fprintf(stderr, "--restore-from: label \"%s\": direct-boot restore supports "
                 "only laminar\n", label.c_str());
    std::exit(2);
  }
  cfg.restore_from = std::make_shared<const std::string>(g_restore.blob);
  cfg.snapshot_at_seconds = 0.0;
}

// Reports a restored run's boot check and, under --snapshot-out, writes the
// warm-start file of the config with submission index `sweep_index`.
void MaybeWriteSnapshot(const SystemReport& report, int sweep_index) {
  if (!report.restored && g_snapshot_at <= 0.0) {
    return;
  }
  if (report.snapshot == nullptr) {
    std::fprintf(stderr, "snapshot: %s: no snapshot captured (barrier past the "
                 "end of the run?)\n", report.label.c_str());
    return;
  }
  if (report.restored) {
    bool bytes_equal = *report.snapshot == g_restore.blob;
    std::fprintf(stderr, "snapshot: %s: direct-boot restore vs %s at t=%.6g s in "
                 "%.3f s wall: %zu field mismatch(es), blob %s\n",
                 report.label.c_str(),
                 g_restore.scenario_text.empty() ? "(unlabeled)"
                                                 : g_restore.scenario_text.c_str(),
                 g_restore.snapshot_at, report.restore_wall_seconds,
                 report.snapshot_mismatches.size(),
                 bytes_equal ? "byte-identical" : "DIFFERS");
    for (const std::string& m : report.snapshot_mismatches) {
      std::fprintf(stderr, "snapshot:   %s\n", m.c_str());
    }
  }
  if (!g_snapshot_out.empty()) {
    std::string path = NumberedPath(g_snapshot_out, g_snapshot_index++);
    SnapshotFile file;
    file.scenario_text = report.label;
    file.sweep_index = sweep_index;
    file.snapshot_at = report.snapshot_taken_at_seconds;
    file.blob = *report.snapshot;
    std::ofstream out(path, std::ios::binary);
    std::string encoded = EncodeSnapshotFile(file);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    out.close();
    if (!out) {
      std::fprintf(stderr, "snapshot: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "snapshot: %s: %zu bytes at t=%.6g s -> %s\n",
                 report.label.c_str(), encoded.size(), file.snapshot_at, path.c_str());
  }
}

}  // namespace

void InitBenchTracing(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--snapshot-at") == 0 && i + 1 < argc) {
      g_snapshot_at = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--snapshot-at=", 14) == 0) {
      g_snapshot_at = std::atof(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0 && i + 1 < argc) {
      g_snapshot_out = argv[++i];
    } else if (std::strncmp(argv[i], "--snapshot-out=", 15) == 0) {
      g_snapshot_out = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--restore-from") == 0 && i + 1 < argc) {
      LoadRestoreFile(argv[++i]);
    } else if (std::strncmp(argv[i], "--restore-from=", 15) == 0) {
      LoadRestoreFile(argv[i] + 15);
    }
  }
  CheckOutputDirectory("trace", g_trace_out);
  CheckOutputDirectory("snapshot", g_snapshot_out);
}

bool BenchTracingEnabled() { return !g_trace_out.empty(); }

void ArmTrace(RlSystemConfig& cfg) {
  if (BenchTracingEnabled()) {
    cfg.trace.enabled = true;
  }
}

bool BenchSnapshotEnabled() {
  return g_snapshot_at > 0.0 || g_restore_armed;
}

void ArmSnapshot(RlSystemConfig& cfg) {
  if (g_snapshot_at > 0.0) {
    cfg.snapshot_at_seconds = g_snapshot_at;
  }
}

void MaybeWriteTrace(const SystemReport& report) {
  if (!BenchTracingEnabled() || report.trace == nullptr) {
    return;
  }
  std::string path = NumberedPath(g_trace_out, g_trace_index++);
  if (!WriteTraceFile(*report.trace, path)) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "trace: %zu events (%llu emitted) -> %s\n", report.trace->size(),
               static_cast<unsigned long long>(report.trace->total_emitted()),
               path.c_str());
}

RlSystemConfig ThroughputConfig(SystemKind system, ModelScale scale, int total_gpus,
                                TaskKind task) {
  RlSystemConfig cfg;
  cfg.system = system;
  cfg.scale = scale;
  cfg.task = task;
  cfg.total_gpus = total_gpus;
  cfg.global_batch = 8192;
  cfg.group_size = 16;
  cfg.num_minibatches = 16;
  cfg.max_concurrency = 1024;
  cfg.warmup_iterations = 2;
  cfg.measure_iterations = 3;
  cfg.seed = 2026;
  return cfg;
}

RlSystemConfig ConvergenceConfig(SystemKind system, ModelScale scale, int total_gpus) {
  RlSystemConfig cfg = ThroughputConfig(system, scale, total_gpus);
  cfg.num_minibatches = 4;  // mini-batch size 2048 (Table 3)
  cfg.max_concurrency = 256;
  cfg.sampler = SamplerKind::kFifo;
  cfg.warmup_iterations = 0;
  return cfg;
}

std::vector<SystemReport> RunSweep(const std::vector<RlSystemConfig>& configs) {
  int base = g_sweep_next;
  g_sweep_next += static_cast<int>(configs.size());
  if (!BenchTracingEnabled() && !BenchSnapshotEnabled()) {
    return RunExperiments(configs);
  }
  std::vector<RlSystemConfig> armed = configs;
  for (RlSystemConfig& cfg : armed) {
    ArmTrace(cfg);
    ArmSnapshot(cfg);
  }
  if (g_restore_armed) {
    ArmRestore(armed, base);
  }
  std::vector<SystemReport> reports = RunExperiments(armed);
  for (size_t i = 0; i < reports.size(); ++i) {
    MaybeWriteTrace(reports[i]);
    MaybeWriteSnapshot(reports[i], base + static_cast<int>(i));
  }
  return reports;
}

void Banner(const std::string& title) {
  std::string bar(title.size() + 8, '=');
  std::printf("\n%s\n==  %s  ==\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

std::string Tps(double v) { return Table::Int(v); }

}  // namespace laminar
