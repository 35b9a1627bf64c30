// Snapshot suite (DESIGN.md §13): LMSNAP1 byte-format round trips and
// tamper detection, the three-mode SnapshotTx contract, RNG state capture,
// full-system snapshots that are byte-identical across reruns and
// invisible in run fingerprints, verify-mode restore with zero mismatches,
// and scripted kCrashRestart drills audited by the invariant checker.
#include "src/snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/laminar_system.h"
#include "src/core/run.h"
#include "src/fault/injector.h"
#include "src/verify/oracles.h"

namespace laminar {
namespace {

TEST(SnapshotFormatTest, WriterReaderRoundTripIsExact) {
  SnapshotWriter w;
  w.BeginSection("outer");
  w.U64("answer", 42);
  w.I64("debt", -7);
  w.F64("negzero", -0.0);
  w.F64("tiny", 1e-300);
  w.BeginSection("inner");
  w.Bytes("blob", std::string("nul\0nul", 7));
  w.EndSection();
  w.EndSection();
  std::string data = w.Finish();

  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.Parse(data, &error)) << error;
  const std::vector<SnapshotRecord>& recs = r.records();
  ASSERT_EQ(recs.size(), 9u);
  EXPECT_EQ(recs[0].kind, SnapshotRecordKind::kSection);
  EXPECT_EQ(recs[0].name, "outer");
  EXPECT_EQ(recs[1].kind, SnapshotRecordKind::kU64);
  EXPECT_EQ(recs[1].u64, 42u);
  EXPECT_EQ(recs[2].kind, SnapshotRecordKind::kI64);
  EXPECT_EQ(static_cast<int64_t>(recs[2].u64), -7);
  // Doubles are bit-cast: -0.0 and denormal-adjacent values survive exactly.
  EXPECT_EQ(recs[3].u64, SnapshotF64Bits(-0.0));
  EXPECT_EQ(SnapshotBitsF64(recs[4].u64), 1e-300);
  EXPECT_EQ(recs[5].kind, SnapshotRecordKind::kSection);
  EXPECT_EQ(recs[6].kind, SnapshotRecordKind::kBytes);
  EXPECT_EQ(recs[6].bytes, std::string("nul\0nul", 7));
  EXPECT_EQ(recs[7].kind, SnapshotRecordKind::kEndSection);
  EXPECT_EQ(recs[8].kind, SnapshotRecordKind::kEndSection);
}

TEST(SnapshotFormatTest, ChecksumCatchesCorruptionAndTruncation) {
  SnapshotWriter w;
  w.U64("x", 123456789);
  w.Bytes("y", "payload");
  std::string data = w.Finish();

  SnapshotReader ok;
  std::string error;
  ASSERT_TRUE(ok.Parse(data, &error)) << error;

  // Flip one payload byte: the trailing FNV no longer matches.
  std::string corrupt = data;
  corrupt[corrupt.size() / 2] ^= 0x01;
  SnapshotReader r1;
  EXPECT_FALSE(r1.Parse(corrupt, &error));

  // Drop the tail: truncation is detected, not silently accepted.
  SnapshotReader r2;
  EXPECT_FALSE(r2.Parse(data.substr(0, data.size() - 3), &error));

  // Wrong magic and empty input both fail.
  std::string bad_magic = data;
  bad_magic[0] = 'X';
  SnapshotReader r3;
  EXPECT_FALSE(r3.Parse(bad_magic, &error));
  SnapshotReader r4;
  EXPECT_FALSE(r4.Parse("", &error));
}

TEST(SnapshotFormatTest, ParseRejectsEveryOtherVersionByNumber) {
  SnapshotWriter w;
  w.U64("x", 1);
  std::string data = w.Finish();
  SnapshotReader ok;
  std::string error;
  ASSERT_TRUE(ok.Parse(data, &error)) << error;
  // The version is checked before the checksum, so a patched header names
  // the version it carries rather than reading as corruption.
  for (uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    std::string patched = data;
    for (int i = 0; i < 4; ++i) {
      patched[sizeof(kSnapshotMagic) + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    SnapshotReader r;
    EXPECT_FALSE(r.Parse(patched, &error));
    EXPECT_EQ(error, "unsupported snapshot version " + std::to_string(version));
  }
}

// A toy component exercising every SnapshotTx field kind through the same
// traversal in all three modes.
struct ToyComponent {
  uint64_t counter = 0;
  int64_t balance = 0;
  double gauge = 0.0;
  bool armed = false;
  std::vector<double> series;
  uint64_t digest = 0;  // summary of unrestorable state

  void Snapshot(SnapshotTx& tx) {
    tx.Begin("toy");
    tx.U64("counter", &counter);
    tx.I64("balance", &balance);
    tx.F64("gauge", &gauge);
    tx.Bool("armed", &armed);
    tx.F64Vec("series", &series);
    tx.DigestU64("digest", digest);
    tx.End();
  }
};

TEST(SnapshotTxTest, VerifyReportsEveryMismatchWithoutChecking) {
  ToyComponent a{10, -5, 2.5, true, {1.0, 2.0}, 999};
  SnapshotWriter w;
  SnapshotTx wtx(&w);
  a.Snapshot(wtx);
  std::string blob = w.Finish();

  // Identical state verifies clean.
  SnapshotReader r1;
  std::string error;
  ASSERT_TRUE(r1.Parse(blob, &error)) << error;
  SnapshotTx v1(&r1, SnapshotMode::kVerify);
  ToyComponent same = a;
  same.Snapshot(v1);
  EXPECT_TRUE(v1.ok()) << v1.mismatches().front();

  // Three drifted fields -> three mismatches, each naming its field path.
  ToyComponent drifted = a;
  drifted.counter = 11;
  drifted.gauge = 3.5;
  drifted.digest = 1000;
  SnapshotReader r2;
  ASSERT_TRUE(r2.Parse(blob, &error)) << error;
  SnapshotTx v2(&r2, SnapshotMode::kVerify);
  drifted.Snapshot(v2);
  ASSERT_EQ(v2.mismatches().size(), 3u);
  EXPECT_NE(v2.mismatches()[0].find("counter"), std::string::npos);
  EXPECT_NE(v2.mismatches()[1].find("gauge"), std::string::npos);
  EXPECT_NE(v2.mismatches()[2].find("digest"), std::string::npos);
}

TEST(SnapshotTxTest, AdoptAssignsValuesAndSkipsDigests) {
  ToyComponent a{10, -5, 2.5, true, {1.0, 2.0, 3.0}, 999};
  SnapshotWriter w;
  SnapshotTx wtx(&w);
  a.Snapshot(wtx);
  std::string blob = w.Finish();

  ToyComponent b;  // all defaults
  b.digest = 7;
  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.Parse(blob, &error)) << error;
  SnapshotTx adopt(&r, SnapshotMode::kAdopt);
  b.Snapshot(adopt);
  EXPECT_TRUE(adopt.ok());
  EXPECT_EQ(b.counter, 10u);
  EXPECT_EQ(b.balance, -5);
  EXPECT_EQ(b.gauge, 2.5);
  EXPECT_TRUE(b.armed);
  EXPECT_EQ(b.series, (std::vector<double>{1.0, 2.0, 3.0}));
  // Digest fields summarize unrestorable state: read-and-skipped on adopt.
  EXPECT_EQ(b.digest, 7u);
}

TEST(SnapshotTxTest, RngStateRoundTripsThroughAdopt) {
  Rng original(1234);
  original.Fork("warm-up");
  for (int i = 0; i < 17; ++i) {
    original.Uniform(0.0, 1.0);
  }
  SnapshotWriter w;
  SnapshotTx wtx(&w);
  original.Snapshot(wtx);
  std::string blob = w.Finish();

  // (seed, draws) is the complete RNG state: a fresh engine adopted from the
  // blob continues the draw stream bit-for-bit.
  Rng restored(999);
  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.Parse(blob, &error)) << error;
  SnapshotTx adopt(&r, SnapshotMode::kAdopt);
  restored.Snapshot(adopt);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(original.NextU64(), restored.NextU64()) << "draw " << i;
  }
}

TEST(SnapshotFileTest, WarmStartFileRoundTripsAndRejectsTampering) {
  SnapshotFile file;
  file.scenario_text = "# laminar fuzz scenario v1\nseed=7\n";
  file.sweep_index = 5;
  file.snapshot_at = 123.5;
  file.blob = std::string("inner\0blob", 10);
  std::string encoded = EncodeSnapshotFile(file);

  SnapshotFile back;
  std::string error;
  ASSERT_TRUE(DecodeSnapshotFile(encoded, &back, &error)) << error;
  EXPECT_EQ(back.scenario_text, file.scenario_text);
  EXPECT_EQ(back.sweep_index, 5);
  EXPECT_EQ(back.snapshot_at, file.snapshot_at);
  EXPECT_EQ(back.blob, file.blob);

  std::string corrupt = encoded;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(DecodeSnapshotFile(corrupt, &back, &error));
  EXPECT_FALSE(DecodeSnapshotFile("not a snapshot", &back, &error));
}

// ---------------------------------------------------------------------------
// Full-system coverage. Small enough to run in well under a second per run.

RlSystemConfig SnapConfig() {
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

TEST(SystemSnapshotTest, SnapshotIsAnObservationNotAPerturbation) {
  RlSystemConfig base = SnapConfig();
  SystemReport plain = RunExperiment(base);
  RlSystemConfig snapped = base;
  snapped.snapshot_at_seconds = 0.5 * plain.simulated_seconds;
  SystemReport observed = RunExperiment(snapped);
  // Everything the determinism oracle hashes — reports, ledger, binary
  // trace — is unchanged by pausing to snapshot.
  EXPECT_EQ(RunFingerprint(plain), RunFingerprint(observed));
}

TEST(SystemSnapshotTest, VerifyAgainstOwnBlobReportsZeroMismatches) {
  RlSystemConfig base = SnapConfig();
  SystemReport probe = RunExperiment(base);
  RlSystemConfig first = base;
  first.snapshot_at_seconds = 0.4 * probe.simulated_seconds;
  SystemReport a = RunExperiment(first);
  ASSERT_NE(a.snapshot, nullptr);
  ASSERT_FALSE(a.snapshot->empty());
  EXPECT_GT(a.snapshot_taken_at_seconds, 0.0);

  // A rerun re-reaches the barrier by deterministic replay and verifies
  // every field against the recorded blob: the restore path. It pauses at
  // exactly the same event, so the blobs match byte for byte.
  RlSystemConfig second = first;
  second.snapshot_verify = a.snapshot;
  SystemReport b = RunExperiment(second);
  ASSERT_NE(b.snapshot, nullptr);
  EXPECT_EQ(*a.snapshot, *b.snapshot);
  EXPECT_EQ(a.snapshot_taken_at_seconds, b.snapshot_taken_at_seconds);
  EXPECT_TRUE(b.snapshot_mismatches.empty())
      << b.snapshot_mismatches.size() << " mismatches; first: "
      << b.snapshot_mismatches.front();
}

TEST(SystemSnapshotTest, VerifyAgainstForeignBlobNamesDriftedFields) {
  RlSystemConfig base = SnapConfig();
  SystemReport probe = RunExperiment(base);
  RlSystemConfig first = base;
  first.snapshot_at_seconds = 0.5 * probe.simulated_seconds;
  SystemReport a = RunExperiment(first);
  ASSERT_NE(a.snapshot, nullptr);

  // A different workload seed reaches a genuinely different state: the
  // verify pass must say so, field by field, instead of silently passing.
  RlSystemConfig drifted = first;
  drifted.seed = base.seed + 1;
  drifted.snapshot_verify = a.snapshot;
  SystemReport c = RunExperiment(drifted);
  EXPECT_FALSE(c.snapshot_mismatches.empty());
}

TEST(SystemSnapshotTest, ManagerCounterDriftIsReportedByFieldName) {
  // The rollout manager's counters are named records, so a verify pass
  // against a blob from a different run says which counter drifted.
  RlSystemConfig base = SnapConfig();
  SystemReport probe = RunExperiment(base);
  RlSystemConfig first = base;
  first.snapshot_at_seconds = 0.5 * probe.simulated_seconds;
  SystemReport a = RunExperiment(first);
  ASSERT_NE(a.snapshot, nullptr);

  RlSystemConfig drifted = first;
  drifted.seed = base.seed + 1;
  drifted.snapshot_verify = a.snapshot;
  SystemReport c = RunExperiment(drifted);
  const char* counters[] = {
      "repack_events",      "sources_released",          "trajectories_migrated",
      "batches_assigned",   "failures_handled",          "trajectories_redirected",
      "slow_events",        "slow_recoveries",           "trajectories_drained_slow",
      "redirect_retries",   "trajectories_dropped",      "machine_stalls"};
  std::vector<std::string> named;
  for (const std::string& m : c.snapshot_mismatches) {
    for (const char* counter : counters) {
      if (m.find(std::string("rollout_manager/") + counter + ":") != std::string::npos) {
        named.push_back(m);
      }
    }
  }
  ASSERT_FALSE(c.snapshot_mismatches.empty());
  EXPECT_FALSE(named.empty()) << c.snapshot_mismatches.size()
                              << " mismatches, none names a manager counter; first: "
                              << c.snapshot_mismatches.front();
}

TEST(SystemSnapshotTest, ServingTierStateSnapshotsAndVerifies) {
  // With the online serving tier armed (DESIGN.md §14) the blob additionally
  // captures the traffic generator's rng/clock, the manager's ticket table,
  // backlog, and latency histogram — and stays byte-identical across a
  // rerun, with a verify-mode restore reporting zero mismatches.
  RlSystemConfig base = SnapConfig();
  base.serving.enabled = true;
  base.serving.base_rate_per_sec = 2.0;
  base.serving.diurnal_amplitude = 0.6;
  base.serving.diurnal_period_seconds = 300.0;
  SystemReport probe = RunExperiment(base);
  ASSERT_GT(probe.serving_requests, 0);
  RlSystemConfig snapped = base;
  snapped.snapshot_at_seconds = 0.5 * probe.simulated_seconds;
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  // The serving sections are actually present in the witness.
  EXPECT_NE(a.snapshot->find("serving_traffic"), std::string::npos);
  EXPECT_NE(a.snapshot->find("serving_latency_seconds"), std::string::npos);

  RlSystemConfig verify = snapped;
  verify.snapshot_verify = a.snapshot;
  SystemReport b = RunExperiment(verify);
  ASSERT_NE(b.snapshot, nullptr);
  EXPECT_EQ(*a.snapshot, *b.snapshot);
  EXPECT_TRUE(b.snapshot_mismatches.empty())
      << b.snapshot_mismatches.size() << " mismatches; first: "
      << b.snapshot_mismatches.front();

  // And with the tier off, no serving section leaks into the blob.
  EXPECT_EQ(probe.snapshot, nullptr);
  RlSystemConfig off = SnapConfig();
  off.snapshot_at_seconds = snapped.snapshot_at_seconds;
  SystemReport c = RunExperiment(off);
  ASSERT_NE(c.snapshot, nullptr);
  EXPECT_EQ(c.snapshot->find("serving_traffic"), std::string::npos);
}

TEST(CrashRestartTest, ScriptedDrillRecoversAndPassesInvariants) {
  RlSystemConfig cfg = SnapConfig();
  SystemReport probe = RunExperiment(cfg);
  int target = cfg.warmup_iterations + cfg.measure_iterations;

  auto driver = MakeDriver(cfg);
  auto* sys = static_cast<LaminarSystem*>(driver.get());
  // Kill the trainer process mid-run; it restores from its last LMSNAP1
  // checkpoint and resumes after a 30 s restart.
  sys->ScheduleFault({0.4 * probe.simulated_seconds, FaultKind::kCrashRestart,
                      0, 30.0});
  SystemReport rep = driver->Run();
  EXPECT_EQ(rep.iterations_completed, target);
  EXPECT_GE(rep.faults_injected, 1);
  EXPECT_GT(rep.invariant_checks, 0);
  EXPECT_EQ(rep.invariant_violations, 0)
      << "crash-restart drill violated invariants";
  // The crash costs time: the run is strictly longer than the clean one.
  EXPECT_GT(rep.simulated_seconds, probe.simulated_seconds);
}

TEST(CrashRestartTest, DrillIsDeterministic) {
  RlSystemConfig cfg = SnapConfig();
  auto run_once = [&cfg]() {
    auto driver = MakeDriver(cfg);
    static_cast<LaminarSystem*>(driver.get())
        ->ScheduleFault({90.0, FaultKind::kCrashRestart, 0, 45.0});
    return driver->Run();
  };
  SystemReport a = run_once();
  SystemReport b = run_once();
  EXPECT_EQ(RunFingerprint(a), RunFingerprint(b));
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(CrashRestartTest, StochasticCrashChaosCompletesCleanly) {
  RlSystemConfig cfg = SnapConfig();
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 77;
  cfg.chaos.start_seconds = 30.0;
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.chaos.crash_restart_per_hour = 60.0;
  cfg.chaos.crash_restart_recovery_seconds = 20.0;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_EQ(rep.iterations_completed,
            cfg.warmup_iterations + cfg.measure_iterations);
  EXPECT_GE(rep.faults_injected, 1);
  EXPECT_EQ(rep.invariant_violations, 0);
}

TEST(CrashRestartTest, SnapshotAndCrashCompose) {
  // The hardest composition: stochastic crash-restart chaos AND a snapshot
  // barrier, verified by a rerun — the blob and the fingerprint must both be
  // byte-identical, and the snapshot must not perturb the run.
  RlSystemConfig cfg = SnapConfig();
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 91;
  cfg.chaos.start_seconds = 30.0;
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.chaos.crash_restart_per_hour = 40.0;
  cfg.chaos.crash_restart_recovery_seconds = 25.0;
  SystemReport probe = RunExperiment(cfg);

  RlSystemConfig snapped = cfg;
  snapped.snapshot_at_seconds = 0.6 * probe.simulated_seconds;
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  RlSystemConfig verify = snapped;
  verify.snapshot_verify = a.snapshot;
  SystemReport b = RunExperiment(verify);
  ASSERT_NE(b.snapshot, nullptr);
  EXPECT_EQ(*a.snapshot, *b.snapshot);
  EXPECT_TRUE(b.snapshot_mismatches.empty());
  EXPECT_EQ(RunFingerprint(a), RunFingerprint(b));
  EXPECT_EQ(RunFingerprint(a), RunFingerprint(probe));
}

}  // namespace
}  // namespace laminar
