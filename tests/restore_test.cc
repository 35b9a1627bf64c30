// Direct-boot restore suite (DESIGN.md §13): a run restarted from an LMSNAP1
// blob must be indistinguishable from one that never stopped — identical
// fingerprint (reports, iterations, series, ledger, binary trace) and an
// identical boot-barrier re-snapshot — with the serving tier on or off, and
// under crash-restart chaos. A verify rerun (snapshot_verify) re-reaches the
// barrier from t=0 and must land on the same bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/laminar_system.h"
#include "src/core/run.h"
#include "src/fault/injector.h"
#include "src/sim/continuation.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot.h"
#include "src/verify/oracles.h"

namespace laminar {
namespace {

RlSystemConfig RestoreConfig() {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 256;
  cfg.max_concurrency = 128;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = 4321;
  cfg.invariants_enabled = true;
  cfg.ledger_enabled = true;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = 0;
  return cfg;
}

// One cell of the restore-equivalence matrix: snapshot `base` mid-run, rerun
// from t=0 verifying every field against the blob at the barrier, direct-boot
// from the blob (adopt + re-mint), and require byte-identical fingerprints
// and blobs everywhere.
void CheckRestoreEquivalence(const RlSystemConfig& base) {
  SystemReport full = RunExperiment(base);
  ASSERT_GT(full.simulated_seconds, 0.0);
  std::string want = RunFingerprint(full);

  RlSystemConfig snapped = base;
  snapped.snapshot_at_seconds = 0.5 * full.simulated_seconds;
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  ASSERT_FALSE(a.snapshot->empty());
  EXPECT_EQ(RunFingerprint(a), want) << "snapshot perturbed the run";

  // Verify rerun: re-execute from t=0, pausing at the same barrier to verify
  // field-by-field.
  RlSystemConfig rerun = snapped;
  rerun.snapshot_verify = a.snapshot;
  SystemReport b = RunExperiment(rerun);
  ASSERT_NE(b.snapshot, nullptr);
  EXPECT_EQ(*b.snapshot, *a.snapshot);
  EXPECT_TRUE(b.snapshot_mismatches.empty())
      << b.snapshot_mismatches.size()
      << " mismatches; first: " << b.snapshot_mismatches.front();
  EXPECT_EQ(RunFingerprint(b), want);

  // Direct boot: O(1)-of-the-prefix adoption, then run to completion.
  RlSystemConfig boot = base;
  boot.restore_from = a.snapshot;
  // Also field-diff the adopted state against the blob, so a drifted boot
  // names the offending fields instead of just failing the byte compare.
  boot.snapshot_verify = a.snapshot;
  SystemReport r = RunExperiment(boot);
  EXPECT_TRUE(r.restored);
  EXPECT_TRUE(r.snapshot_mismatches.empty())
      << r.snapshot_mismatches.size()
      << " adopted-state mismatches; first: " << r.snapshot_mismatches.front();
  EXPECT_EQ(r.invariant_violations, 0) << "direct boot violated invariants";
  ASSERT_NE(r.snapshot, nullptr);
  // The boot-barrier re-snapshot byte-equals the blob we booted from: the
  // adopted state IS the serialized state.
  EXPECT_EQ(*r.snapshot, *a.snapshot) << "boot re-snapshot drifted";
  // And the continued run is indistinguishable from never having stopped.
  EXPECT_EQ(RunFingerprint(r), want) << "direct boot diverged";
}

TEST(DirectBootTest, ResumesByteIdenticalToFullRun) {
  CheckRestoreEquivalence(RestoreConfig());
}

// Regression (found by the fuzzer's always-on restore oracle, seeds 0/4/6):
// tool-calling scenarios drifted on direct boot — the boot-barrier
// re-snapshot was not byte-identical to the blob.
TEST(DirectBootTest, ToolCallingResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.task = TaskKind::kToolCalling;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, ServingTierResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.serving.enabled = true;
  cfg.serving.base_rate_per_sec = 2.0;
  cfg.serving.diurnal_amplitude = 0.6;
  cfg.serving.diurnal_period_seconds = 300.0;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, CrashRestartChaosResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 99;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, ServingPlusChaosResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.serving.enabled = true;
  cfg.serving.base_rate_per_sec = 2.0;
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 7;
  CheckRestoreEquivalence(cfg);
}

// Regression: snapshot taken INSIDE a machine-stall window. The blob then
// carries a frozen machine (beats stopped, replicas mid-freeze) and a pending
// stall-thaw continuation, and the direct boot must resume the stall exactly
// — same thaw instant, same redirected work, same RNG draw positions in every
// forked stream (a warm start that re-seeded a stream from scratch instead of
// adopting (seed, draws) from the blob would desynchronize every later
// length/score draw and show up here as a fingerprint diff).
TEST(DirectBootTest, SnapshotInsideStallWindowResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  SystemReport probe = RunExperiment(cfg);
  ASSERT_GT(probe.simulated_seconds, 60.0);
  double mid = 0.5 * probe.simulated_seconds;
  // Stall window [mid-15, mid+45] brackets the barrier. The stall outlives
  // the miss threshold, so at the barrier the machine is reported dead with a
  // replacement in flight, redirected work is back in the pool, and the
  // now-moot thaw continuation is still pending in the heap — all of which
  // must ride the blob.
  FaultEvent stall{mid - 15.0, FaultKind::kMachineStall, 0, 60.0};

  auto run_scripted = [&stall](const RlSystemConfig& c) {
    auto driver = MakeDriver(c);
    static_cast<LaminarSystem*>(driver.get())->ScheduleFault(stall);
    return driver->Run();
  };

  SystemReport full = run_scripted(cfg);
  EXPECT_GE(full.faults_injected, 1);
  std::string want = RunFingerprint(full);

  RlSystemConfig snapped = cfg;
  snapped.snapshot_at_seconds = mid;
  SystemReport a = run_scripted(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  EXPECT_EQ(RunFingerprint(a), want) << "snapshot perturbed the stalled run";

  // Direct boot. The scripted fault is NOT re-scheduled: it already fired
  // before the barrier, and its thaw rides the blob's event heap.
  RlSystemConfig boot = cfg;
  boot.restore_from = a.snapshot;
  SystemReport r = RunExperiment(boot);
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.invariant_violations, 0);
  ASSERT_NE(r.snapshot, nullptr);
  EXPECT_EQ(*r.snapshot, *a.snapshot) << "boot re-snapshot drifted mid-stall";
  EXPECT_EQ(RunFingerprint(r), want) << "direct boot diverged out of the stall";
}

// Direct boot is Laminar-only: the baseline drivers do not serialize their
// orchestration state, so restoring one must stop before Setup with a
// message naming the system instead of running on a half-adopted state.
TEST(DirectBootDeathTest, BaselineSystemsStopWithANamedMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (SystemKind system : {SystemKind::kVerlSync, SystemKind::kOneStep,
                            SystemKind::kStreamGen, SystemKind::kPartialRollout}) {
    RlSystemConfig cfg = RestoreConfig();
    cfg.system = system;
    cfg.snapshot_at_seconds = 100.0;
    SystemReport snapped = RunExperiment(cfg);
    ASSERT_NE(snapped.snapshot, nullptr) << SystemKindName(system);

    RlSystemConfig boot = cfg;
    boot.snapshot_at_seconds = 0.0;
    boot.restore_from = snapped.snapshot;
    EXPECT_DEATH(RunExperiment(boot),
                 std::string("direct-boot restore supports only laminar, not ") +
                     SystemKindName(system))
        << SystemKindName(system);
  }
}

// Minimal continuation client owning one reconstructible PeriodicTask;
// records the sim time of every fire so cadences can be compared across a
// snapshot/adopt boundary.
class TickRecorder : public ContinuationClient {
 public:
  static constexpr uint16_t kTick = 0x7001;

  explicit TickRecorder(Simulator* sim)
      : sim_(sim),
        comp_(ContinuationComponentId(kContFamilySystem, 99)),
        task_(sim, 1.0, comp_, kTick,
              [this] { fires_.push_back(sim_->Now().seconds()); }) {
    sim_->continuations().Register(comp_, this);
  }
  ~TickRecorder() override { sim_->continuations().Unregister(comp_); }

  void Start() { task_.Start(); }
  const std::vector<double>& fires() const { return fires_; }

  void RunContinuation(uint16_t kind, const ContinuationPayload&) override {
    ASSERT_EQ(kind, kTick);
    task_.Fire();
  }
  void RestoreContinuation(uint16_t kind, const ContinuationPayload&,
                           SimTime at) override {
    ASSERT_EQ(kind, kTick);
    task_.RestorePending(at);
  }

 private:
  Simulator* sim_;
  int32_t comp_;
  PeriodicTask task_;
  std::vector<double> fires_;
};

// Regression: a PeriodicTask tick re-arms its own event slot in place
// (RearmCurrentAfter flips the slot to kRearmed rather than retiring it), so
// a snapshot taken at the barrier immediately after the fire — the smallest
// representable instant past fire_time — sees the next tick only if the heap
// walk treats kRearmed slots as live. If it does not, the blob silently
// drops every periodic driver (heartbeats, repack monitor, serving sweep)
// whose tick coincides with the barrier, and the direct boot goes quiet.
TEST(DirectBootTest, RearmedPeriodicTickSurvivesSnapshotAtBarrier) {
  const double barrier =
      std::nextafter(1.0, std::numeric_limits<double>::infinity());

  Simulator sim;
  TickRecorder rec(&sim);
  rec.Start();
  sim.RunUntil(SimTime(barrier));
  ASSERT_EQ(rec.fires(), std::vector<double>({1.0}));
  ASSERT_EQ(sim.pending_events(), 1u)
      << "re-armed tick not pending before the snapshot";

  SnapshotWriter writer;
  SnapshotTx tx(&writer);
  sim.Snapshot(tx);
  std::string blob = writer.Finish();

  Simulator boot;
  TickRecorder boot_rec(&boot);
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(blob, &error)) << error;
  SnapshotTx adopt(&reader, SnapshotMode::kAdopt);
  boot.Snapshot(adopt);
  ASSERT_TRUE(adopt.mismatches().empty());
  boot.RemintRestoredEvents();
  EXPECT_EQ(boot.pending_events(), 1u) << "re-armed tick dropped on adopt";

  // The adopted heap re-serializes to the exact bytes it was booted from.
  SnapshotWriter rewriter;
  SnapshotTx retx(&rewriter);
  boot.Snapshot(retx);
  EXPECT_EQ(rewriter.Finish(), blob) << "boot re-snapshot drifted";

  // Identical cadence from the barrier on: the restored task fires at 2, 3,
  // 4, 5 exactly as the uninterrupted one does.
  sim.RunUntil(SimTime(5.5));
  boot.RunUntil(SimTime(5.5));
  EXPECT_EQ(rec.fires(), std::vector<double>({1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(boot_rec.fires(), std::vector<double>({2.0, 3.0, 4.0, 5.0}));
}

// A blob's event_heap entry names its component by id. An id no client is
// registered under — unknown, or negative as only a corrupt blob can carry —
// stops the re-mint instead of dropping the event.
TEST(DirectBootDeathTest, RemintRejectsUnregisteredComponents) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A one-event `sim` section: a TickRecorder tick at t=2 owned by `comp`.
  auto blob_with_comp = [](uint32_t comp) {
    std::string entry(48, '\0');
    uint64_t key = std::bit_cast<uint64_t>(2.0);
    for (int i = 0; i < 8; ++i) {
      entry[i] = static_cast<char>(key >> (8 * i));
    }
    for (int i = 0; i < 4; ++i) {
      entry[8 + i] = static_cast<char>(comp >> (8 * i));
    }
    entry[12] = static_cast<char>(TickRecorder::kTick & 0xFF);
    entry[13] = static_cast<char>(TickRecorder::kTick >> 8);
    SnapshotWriter w;
    w.BeginSection("sim");
    w.F64("now", 1.5);
    w.U64("executed", 1);
    w.U64("live_events", 1);
    w.Bytes("event_heap", entry);
    w.EndSection();
    return w.Finish();
  };
  auto adopt = [](Simulator& sim, const std::string& blob) {
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(blob, &error)) << error;
    SnapshotTx tx(&reader, SnapshotMode::kAdopt);
    sim.Snapshot(tx);
    ASSERT_TRUE(tx.mismatches().empty()) << tx.mismatches().front();
  };

  // Control: with the owner registered the entry re-mints and fires.
  const uint32_t recorder_comp = ContinuationComponentId(kContFamilySystem, 99);
  Simulator ok;
  TickRecorder rec(&ok);
  adopt(ok, blob_with_comp(recorder_comp));
  ok.RemintRestoredEvents();
  ok.RunUntil(SimTime(2.5));
  EXPECT_EQ(rec.fires(), std::vector<double>({2.0}));

  Simulator unknown;
  adopt(unknown, blob_with_comp(recorder_comp));
  EXPECT_DEATH(unknown.RemintRestoredEvents(), "no continuation client for component 99");

  Simulator negative;
  adopt(negative, blob_with_comp(0xFFFFFFFFu));
  EXPECT_DEATH(negative.RemintRestoredEvents(), "no continuation client for component -1");
}

}  // namespace
}  // namespace laminar
