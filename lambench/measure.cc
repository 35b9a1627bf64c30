#include "lambench/measure.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/core/report_io.h"
#include "src/snapshot/snapshot.h"
#include "src/trace/trace_io.h"

namespace lambench {
namespace {

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Starts a new peak-RSS window. Freed heap pages go back to the kernel
// first, so memory the benchmark used and freed between the reps (set-ups,
// reference kernels) is not in the baseline; then the kernel's high-water
// mark is reset to the current RSS.
bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak RSS (VmHWM) since the last ResetPeakRss(), in MB; -1 if unreadable.
double PeakRssMbSinceReset() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1.0;
  }
  double mb = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;  // the kernel reports kB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

// Output checks on one finished leg; appends what failed to `errors`.
void CheckReport(const laminar::RlSystemConfig& cfg, const laminar::SystemReport& r,
                 const char* leg, std::vector<std::string>* errors) {
  auto fail = [&](const std::string& what) { errors->push_back(std::string(leg) + ": " + what); };
  int target = cfg.warmup_iterations + cfg.measure_iterations;
  if (r.iterations_completed != target) {
    fail("iterations_completed " + std::to_string(r.iterations_completed) + " != target " +
         std::to_string(target));
  }
  if (r.invariant_violations != 0) {
    fail("invariant_violations = " + std::to_string(r.invariant_violations));
  }
  if (!(r.throughput_tokens_per_sec > 0.0)) {
    fail("no measured throughput");
  }
  if (cfg.serving.enabled) {
    int64_t settled = r.serving_completed + r.serving_timed_out + r.serving_failed +
                      r.serving_rejected + r.serving_inflight_at_end;
    if (r.serving_requests != settled) {
      fail("serving conservation: requests " + std::to_string(r.serving_requests) +
           " != completed+timed_out+failed+rejected+in_flight " + std::to_string(settled));
    }
  }
}

struct Leg {
  laminar::SystemReport report;
  std::unique_ptr<ProbedLaminar> driver;
  double construct_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  Clock::time_point start;
};

uint32_t XorShift(uint32_t& x) {
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return x;
}

// Allocates and fills 2000 vectors of 8-63 words, then frees them: many
// small allocations and writes, like a driver set-up or the simulator's own
// per-event bookkeeping. About 150 us on a 4-core Xeon.
void AllocationPass() {
  std::vector<std::vector<uint64_t>> blocks;
  uint32_t x = 2463534242u;
  for (uint64_t i = 0; i < 2000; ++i) {
    blocks.emplace_back(8 + XorShift(x) % 56, i);
  }
  uint64_t sum = 0;
  for (const std::vector<uint64_t>& b : blocks) {
    sum += b.back();
  }
  LAMINAR_CHECK(sum == 1999u * 2000u / 2u);
}

// A fixed, program-independent workload: fill and sort 2^19 pseudo-random
// words, insert 2^18 keys into a hash map and look each one up, then run 300
// allocation passes (cache misses and allocation, like the simulator's own
// tables). Its time tracks the host's current speed, so run time / reference
// time cancels most of the drift a shared host puts into both, while any
// change to the simulator moves only the numerator.
double ReferenceKernelSeconds() {
  std::vector<uint32_t> words(1u << 19);
  Clock::time_point t0 = Clock::now();
  uint32_t x = 2463534242u;
  for (uint32_t& v : words) {
    v = XorShift(x);
  }
  std::sort(words.begin(), words.end());
  std::unordered_map<uint32_t, uint32_t> table;
  constexpr uint32_t kKeys = 1u << 18;
  const uint32_t key_stream = x;
  for (uint32_t i = 0; i < kKeys; ++i) {
    table[XorShift(x)] = i;
  }
  x = key_stream;
  uint32_t found = 0;
  for (uint32_t i = 0; i < kKeys; ++i) {
    found += table.find(XorShift(x))->second == i ? 1 : 0;
  }
  for (int i = 0; i < 300; ++i) {
    AllocationPass();
  }
  double seconds = SecondsBetween(t0, Clock::now());
  LAMINAR_CHECK(std::is_sorted(words.begin(), words.end()) && found == kKeys);
  return seconds;
}

// The set-up yardstick: one allocation pass, about as long as one set-up and
// made of the same kind of work. A shared host's speed can flip by up to
// 1.6x for tens of milliseconds at a time (seen on a 4-core Xeon VM), which a
// set-up of tens to hundreds of microseconds sees in full and a median over
// one run does not average out. Timed right before each set-up, the yardstick sees the same
// speed, so the ratio of the two cancels it.
double SetupReferenceSeconds() {
  Clock::time_point t0 = Clock::now();
  AllocationPass();
  return SecondsBetween(t0, Clock::now());
}

// The yardstick's median time on the host the bounds were set on (4-core
// Xeon, Release build; 120-180 us between the reps of the three workloads);
// setup_s = median(set-up / yardstick) x this.
constexpr double kSetupReferenceHostSeconds = 150e-6;

Leg RunLeg(laminar::RlSystemConfig cfg, ProbeMode mode, SpanRecorder* spans) {
  Leg leg;
  double cpu0 = CpuNow();
  leg.start = Clock::now();
  leg.driver = std::make_unique<ProbedLaminar>(std::move(cfg), mode, spans);
  Clock::time_point built = Clock::now();
  leg.report = leg.driver->Run();
  Clock::time_point done = Clock::now();
  leg.cpu_s = CpuNow() - cpu0;
  leg.construct_s = SecondsBetween(leg.start, built);
  leg.run_s = SecondsBetween(leg.start, done);
  return leg;
}

template <typename F>
double Timed(F&& f) {
  Clock::time_point t0 = Clock::now();
  f();
  return SecondsBetween(t0, Clock::now());
}

// Driver construction plus Setup() of one run, in host seconds.
double TimeSetup(const laminar::RlSystemConfig& cfg) {
  Clock::time_point t0 = Clock::now();
  ProbedLaminar driver(cfg, ProbeMode::kOff, nullptr);
  driver.SetupOnly();
  return SecondsBetween(t0, Clock::now());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Traced reps: the registry must stay fully wrapped, and every event the
// engine executed must have passed a proxy as a top-level dispatch.
void CheckCoverage(ProbedLaminar& driver, int64_t dispatched, uint64_t executed,
                   const char* leg, std::vector<std::string>* errors) {
  std::vector<int32_t> missing = driver.UnwrappedComponents();
  if (driver.wrapped() == 0 || !missing.empty()) {
    errors->push_back(std::string(leg) + ": " + std::to_string(missing.size()) +
                      " registered components left unwrapped (first comp " +
                      (missing.empty() ? std::string("-") : std::to_string(missing[0])) + ")");
  }
  if (dispatched != static_cast<int64_t>(executed)) {
    errors->push_back(std::string(leg) + ": " + std::to_string(dispatched) +
                      " proxied dispatches for " + std::to_string(executed) +
                      " executed events");
  }
}

}  // namespace

std::string Witness(const laminar::SystemReport& report) {
  return "events," + std::to_string(report.simulated_events) + "\n" +
         laminar::ReportSummaryCsv(report) + laminar::IterationsCsv(report);
}

namespace {

// One simulated run of a rep (and its restore leg), accumulated into `out`.
// Per-run figures are added as sums; RunRep divides them by the run count.
void RunOne(const Workload& w, const laminar::RlSystemConfig& base, SpanRecorder* spans,
            int run_index, RepResult* out) {
  const bool traced = spans != nullptr;
  const bool restore = w.snapshot_at_seconds > 0.0;
  auto leg_errors = [out](std::vector<std::string>& errors) {
    ++out->ops;
    if (!errors.empty()) {
      ++out->failed_ops;
    }
    out->errors.insert(out->errors.end(), errors.begin(), errors.end());
    errors.clear();
  };

  laminar::RlSystemConfig cfg = base;
  cfg.snapshot_at_seconds = w.snapshot_at_seconds;
  const int64_t run_dispatches = traced ? spans->top_level_dispatches() : 0;
  if (traced) {
    spans->set_run(2 * run_index);
  }
  Leg full = RunLeg(cfg, traced ? ProbeMode::kSpans : ProbeMode::kOff, spans);
  std::vector<std::string> errors;
  CheckReport(base, full.report, "run", &errors);
  if (traced) {
    CheckCoverage(*full.driver, spans->top_level_dispatches() - run_dispatches,
                  full.report.simulated_events, "run", &errors);
  }
  leg_errors(errors);
  out->run_s += full.run_s;
  out->cpu_s += full.cpu_s;
  out->construct_s += full.construct_s;

  Leg* last = &full;
  Leg boot;
  if (restore) {
    if (full.report.snapshot == nullptr) {
      errors.push_back("run reached no snapshot barrier at " +
                       std::to_string(w.snapshot_at_seconds) + " s");
    } else {
      // The restore leg needs only the blob, the witness and the barrier's
      // dispatch count of the uninterrupted leg. Its driver and report (with
      // the trace capture) are freed first, so the two legs are never
      // resident together and the peak RSS is one run's.
      const std::shared_ptr<const std::string> blob = full.report.snapshot;
      const std::string full_witness = Witness(full.report);
      const int64_t at_barrier =
          traced ? full.driver->dispatches_at_snapshot() - run_dispatches : 0;
      full.driver.reset();
      full.report = laminar::SystemReport{};
      laminar::RlSystemConfig boot_cfg = base;
      boot_cfg.restore_from = blob;
      const int64_t boot_dispatches = traced ? spans->top_level_dispatches() : 0;
      if (traced) {
        spans->set_run(2 * run_index + 1);
      }
      boot = RunLeg(boot_cfg, traced ? ProbeMode::kSpans : ProbeMode::kFirstFire, spans);
      last = &boot;
      CheckReport(base, boot.report, "restore", &errors);
      if (Witness(boot.report) != full_witness) {
        errors.push_back("restore: final report differs from the uninterrupted run's");
      }
      if (boot.report.snapshot == nullptr || *boot.report.snapshot != *blob) {
        errors.push_back("restore: boot-barrier re-snapshot differs from the blob");
      }
      if (!boot.driver->fired()) {
        errors.push_back("restore: no continuation fired after the boot");
      }
      if (traced) {
        // The restored engine resumes its executed-event count from the
        // blob; only the events after the barrier pass this leg's proxies.
        CheckCoverage(*boot.driver, spans->top_level_dispatches() - boot_dispatches,
                      boot.report.simulated_events - static_cast<uint64_t>(at_barrier),
                      "restore", &errors);
      }
      out->run_s += boot.run_s;
      out->cpu_s += boot.cpu_s;
      out->construct_s += boot.construct_s;
      out->restore_s += SecondsBetween(boot.start, boot.driver->first_fire());
      out->adopt_s += boot.report.restore_wall_seconds;
    }
    leg_errors(errors);
  }

  out->witness += Witness(last->report);
  out->pending_peak = std::max(out->pending_peak, last->driver->sim().event_pool_slots());
  if (traced && restore && last == &boot) {
    // Non-event layers through their public entry points, on the finished
    // driver: write the end-of-run state, verify the live state against it
    // (must be clean), and parse it.
    ProbedLaminar& d = *last->driver;
    d.DetachSpans();
    std::string blob;
    out->snapshot_write_s += Timed([&] { blob = d.TakeSnapshot(); });
    std::vector<std::string> mismatches;
    out->snapshot_verify_s += Timed([&] { mismatches = d.VerifySnapshot(blob); });
    laminar::SnapshotReader reader;
    std::string parse_error;
    bool parsed = false;
    out->snapshot_parse_s += Timed([&] { parsed = reader.Parse(blob, &parse_error); });
    out->snapshot_bytes += static_cast<double>(blob.size());
    if (!mismatches.empty() || !parsed) {
      ++out->failed_ops;
      out->errors.push_back("end-of-run snapshot does not verify/parse: " +
                            (parsed ? mismatches.front() : parse_error));
    }
  }
  if (traced && last->report.trace != nullptr) {
    std::string bytes;
    out->trace_export_s += Timed([&] { bytes = laminar::TraceToBinary(*last->report.trace); });
    out->trace_bytes += static_cast<double>(bytes.size());
  }
  out->reports.push_back(std::move(last->report));
  out->reports.back().trace = nullptr;  // the capture buffer is large and read only above
}

}  // namespace

RepResult RunRep(const Workload& w, SpanRecorder* spans) {
  RepResult out;
  for (size_t i = 0; i < w.runs.size(); ++i) {
    RunOne(w, w.runs[i], spans, static_cast<int>(i), &out);
  }
  double n = static_cast<double>(w.runs.size());
  for (double* per_run : {&out.restore_s, &out.adopt_s, &out.snapshot_write_s,
                          &out.snapshot_parse_s, &out.snapshot_verify_s, &out.snapshot_bytes,
                          &out.trace_export_s, &out.trace_bytes}) {
    *per_run /= n;
  }
  if (spans != nullptr) {
    out.layers = spans->totals();
    out.engine_self_s = out.run_s - out.construct_s - spans->total_self_s();
  }
  return out;
}

namespace {

// Simulated per-layer counts of one finished run; identical under any
// host-only change.
std::vector<Metric> SimulatedLayerCounts(const laminar::SystemReport& r) {
  double trained = 0.0;
  for (const laminar::IterationStats& it : r.iterations) {
    trained += it.tokens;
  }
  double generated = static_cast<double>(r.total_decode_tokens + r.total_prefill_tokens);
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto n = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"rollout.kv_utilization", r.avg_kv_utilization, "ratio", 1},
      {"rollout.decode_batch_mean", r.avg_decode_batch, "count", 1},
      {"rollout.busy_fraction", r.rollout_busy_fraction, "ratio", 1},
      {"rollout.preemptions", n(r.total_preemptions), "count", 1},
      {"relay.rollout_wait_p99_s", r.rollout_wait_p99_seconds, "sim_s", 1},
      {"relay.actor_stall_mean_s", r.actor_stall_mean_seconds, "sim_s", 1},
      {"repack.events", n(r.repack_events), "count", 1},
      {"repack.sources_released", n(r.repack_sources_released), "count", 1},
      {"repack.migrated", n(r.repack_trajectories_migrated), "count", 1},
      {"repack.release_ratio", ratio(n(r.repack_sources_released), n(r.repack_events)),
       "ratio", 1},
      {"data.decode_tokens", n(r.total_decode_tokens), "tokens", 1},
      {"data.trained_tokens", trained, "tokens", 1},
      {"data.trained_share", ratio(trained, generated), "ratio", 1},
      {"fault.injected", n(r.faults_injected), "count", 1},
      {"fault.trajectories_dropped", n(r.trajectories_dropped), "count", 1},
      {"fault.duplicates_suppressed", n(r.duplicates_suppressed), "count", 1},
      {"fault.invariant_violations", n(r.invariant_violations), "count", 1},
      {"serving.requests", n(r.serving_requests), "count", 1},
      {"serving.admitted", n(r.serving_admitted), "count", 1},
      {"serving.rejected", n(r.serving_rejected), "count", 1},
      {"serving.timed_out", n(r.serving_timed_out), "count", 1},
      {"serving.failed", n(r.serving_failed), "count", 1},
      {"serving.deadline_misses", n(r.serving_deadline_misses), "count", 1},
      {"serving.preemptions", n(r.serving_preemptions), "count", 1},
      {"serving.slo_attainment", r.serving_slo_attainment, "ratio", 1},
      {"serving.p99_s", r.serving_latency_p99_seconds, "sim_s", 1},
  };
}

// The counts of several runs: counts and tokens add up, ratios and
// simulated times are averaged.
std::vector<Metric> SimulatedLayerCounts(const std::vector<laminar::SystemReport>& reports) {
  std::vector<Metric> out = SimulatedLayerCounts(laminar::SystemReport{});
  for (const laminar::SystemReport& r : reports) {
    std::vector<Metric> one = SimulatedLayerCounts(r);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].value += one[i].value;
    }
  }
  for (Metric& m : out) {
    if (m.unit != "count" && m.unit != "tokens" && !reports.empty()) {
      m.value /= static_cast<double>(reports.size());
    }
  }
  return out;
}

// Mean of a report field over a rep's runs.
template <typename F>
double MeanOver(const std::vector<laminar::SystemReport>& reports, F field) {
  double sum = 0.0;
  for (const laminar::SystemReport& r : reports) {
    sum += field(r);
  }
  return reports.empty() ? 0.0 : sum / static_cast<double>(reports.size());
}

}  // namespace

MeasureResult Measure(const Workload& w, const MeasureOptions& opt) {
  MeasureResult res;
  Clock::time_point start = Clock::now();
  auto elapsed = [&] { return SecondsBetween(start, Clock::now()); };

  // Set-up samples and reference-kernel timings are interleaved with the
  // reps, so all three span the same window of host speed. The reference
  // kernel gets about a fifth of the rep time and set-up about a tenth; each
  // set-up is paired with a yardstick run.
  std::vector<double> setup;
  std::vector<double> setup_ratio;  // set-up / the yardstick timed before it
  double rep_total_s = 0.0;
  double reference_total_s = 0.0;
  int reference_passes = 0;
  double setup_total_s = 0.0;
  auto between_reps = [&] {
    do {
      reference_total_s += ReferenceKernelSeconds();
      ++reference_passes;
    } while (reference_total_s < rep_total_s / 5.0);
    // The rep just run evicted the caches; one untimed set-up warms them so
    // every sample times the same warm set-up.
    TimeSetup(w.runs.front());
    while (setup.size() < 15 || setup_total_s < rep_total_s / 9.0) {
      double yardstick = SetupReferenceSeconds();
      setup.push_back(TimeSetup(w.runs[setup.size() % w.runs.size()]));
      setup_ratio.push_back(setup.back() / yardstick);
      setup_total_s += setup.back();
    }
  };
  between_reps();

  std::string witness;
  auto absorb = [&](RepResult& rep, const char* kind) {
    res.attempted += rep.ops;
    res.failed += rep.failed_ops;
    for (const std::string& e : rep.errors) {
      res.errors.push_back(std::string(kind) + " " + e);
    }
    if (witness.empty()) {
      witness = rep.witness;
    } else if (rep.witness != witness) {
      ++res.failed;
      res.errors.push_back(std::string(kind) + ": determinism witness differs across reps");
    }
  };

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::unique_ptr<SpanRecorder> last_spans;
  auto run_traced = [&] {
    auto spans = std::make_unique<SpanRecorder>();
    RepResult rep = RunRep(w, spans.get());
    rep_total_s += rep.run_s;
    absorb(rep, "traced");
    if (!traced.empty()) {
      traced.back().reports.clear();  // only the last rep's reports are read
    }
    traced.push_back(std::move(rep));
    last_spans = std::move(spans);
  };
  // Peak RSS of each untraced rep alone: the window opens right before it.
  std::vector<double> rep_rss;
  auto run_plain = [&] {
    if (!ResetPeakRss()) {
      res.errors.push_back("cannot reset the peak RSS (/proc/self/clear_refs)");
    }
    RepResult rep = RunRep(w, nullptr);
    rep_rss.push_back(PeakRssMbSinceReset());
    if (rep_rss.back() < 0.0) {
      res.errors.push_back("cannot read the peak RSS (/proc/self/status)");
    }
    rep_total_s += rep.run_s;
    absorb(rep, "untraced");
    rep.reports.clear();  // keep only what the metrics need
    plain.push_back(std::move(rep));
  };

  if (!opt.trace) {
    while (plain.size() < 3 || elapsed() < opt.seconds) {
      run_plain();
      between_reps();
    }
    // Check only: a traced run must reproduce the untraced witness.
    run_traced();
  } else {
    while (plain.size() < 2 || traced.size() < 2 || elapsed() < opt.seconds) {
      if (plain.size() <= traced.size()) {
        run_plain();
      } else {
        run_traced();
      }
      between_reps();
    }
  }
  res.setup_reps = static_cast<int>(setup.size());
  res.untraced_reps = static_cast<int>(plain.size());
  res.traced_reps = static_cast<int>(traced.size());
  if (last_spans != nullptr && !opt.spans_path.empty() && !last_spans->WriteCsv(opt.spans_path)) {
    res.errors.push_back("cannot write spans to " + opt.spans_path);
  }

  auto med = [](const std::vector<RepResult>& reps, auto field) {
    std::vector<double> v;
    for (const RepResult& r : reps) {
      v.push_back(field(r));
    }
    return Median(std::move(v));
  };
  const std::vector<laminar::SystemReport>& reports = traced.back().reports;
  double events = 0.0;
  for (const laminar::SystemReport& r : reports) {
    events += static_cast<double>(r.simulated_events);
  }
  int np = static_cast<int>(plain.size());
  int nt = static_cast<int>(traced.size());
  double run_s = med(plain, [](const RepResult& r) { return r.run_s; });

  if (!opt.trace) {
    // Means, not medians: the host's speed flips between levels, a rep
    // averages over them, and so does a mean over many kernel passes, while
    // a median of either can land on one level.
    double run_mean_s = 0.0;
    for (const RepResult& r : plain) {
      run_mean_s += r.run_s / np;
    }
    res.metrics = {
        {"run_ref", run_mean_s / (reference_total_s / reference_passes), "ref", np},
        {"setup_s", Median(setup_ratio) * kSetupReferenceHostSeconds, "s", res.setup_reps},
        {"peak_rss_mb", Median(rep_rss), "MB", np},
        {"sim_tokens_per_s",
         MeanOver(reports, [](const auto& r) { return r.throughput_tokens_per_sec; }), "tok/s",
         1},
        {"sim_staleness_mean",
         MeanOver(reports, [](const auto& r) { return r.mean_consume_staleness; }), "versions",
         1},
    };
    return res;
  }

  double traced_run_s = med(traced, [](const RepResult& r) { return r.run_s; });
  res.metrics = {
      {"host.run_s", run_s, "s", np},
      {"host.cpu_s", med(plain, [](const RepResult& r) { return r.cpu_s; }), "s", np},
      {"host.setup_s", Median(setup), "s", res.setup_reps},
      {"sim.engine.events", events, "count", 1},
      {"sim.engine.events_per_s", events / run_s, "1/s", np},
      {"sim.engine.self_s", med(traced, [](const RepResult& r) { return r.engine_self_s; }),
       "s", nt},
      {"sim.engine.pending_peak", static_cast<double>(traced.back().pending_peak), "count", 1},
  };
  const std::vector<std::string>& names = LayerNames();
  for (size_t l = 0; l < names.size(); ++l) {
    res.metrics.push_back(
        {names[l] + ".calls", static_cast<double>(traced.back().layers[l].calls), "count", 1});
    res.metrics.push_back(
        {names[l] + ".self_s", med(traced, [l](const RepResult& r) { return r.layers[l].self_s; }),
         "s", nt});
  }
  res.metrics.push_back(
      {"snapshot.write_s", med(traced, [](const RepResult& r) { return r.snapshot_write_s; }),
       "s", nt});
  res.metrics.push_back(
      {"snapshot.parse_s", med(traced, [](const RepResult& r) { return r.snapshot_parse_s; }),
       "s", nt});
  res.metrics.push_back(
      {"snapshot.verify_s", med(traced, [](const RepResult& r) { return r.snapshot_verify_s; }),
       "s", nt});
  res.metrics.push_back(
      {"snapshot.adopt_s", med(plain, [](const RepResult& r) { return r.adopt_s; }), "s", np});
  res.metrics.push_back(
      {"snapshot.restore_s", med(plain, [](const RepResult& r) { return r.restore_s; }), "s",
       np});
  res.metrics.push_back({"snapshot.bytes", traced.back().snapshot_bytes, "bytes", 1});
  res.metrics.push_back(
      {"trace.export_s", med(traced, [](const RepResult& r) { return r.trace_export_s; }), "s",
       nt});
  res.metrics.push_back({"trace.bytes", traced.back().trace_bytes, "bytes", 1});
  for (Metric& m : SimulatedLayerCounts(reports)) {
    res.metrics.push_back(std::move(m));
  }
  res.metrics.push_back({"tracing.overhead_s", traced_run_s - run_s, "s", std::min(np, nt)});
  return res;
}

}  // namespace lambench
