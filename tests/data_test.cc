#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/data/experience_buffer.h"
#include "src/data/partial_response_pool.h"
#include "src/data/prompt_pool.h"
#include "src/data/trajectory.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"

namespace laminar {
namespace {

TrajectoryRecord Rec(TrajId id, int version, int64_t prompt_id = 0) {
  TrajectoryRecord r;
  r.id = id;
  r.prompt_id = prompt_id;
  r.weight_versions = {version};
  r.spec.prompt_tokens = 10;
  r.spec.AppendSegment({100, 0.0, 0});
  return r;
}

TEST(TrajectoryRecordTest, StalenessAndMixedVersionAccessors) {
  TrajectoryRecord r = Rec(1, 3);
  r.finish_actor_version = 5;
  r.consume_actor_version = 7;
  EXPECT_EQ(r.inherent_staleness(), 2);
  EXPECT_EQ(r.consume_staleness(), 4);
  EXPECT_FALSE(r.mixed_version());
  EXPECT_EQ(r.num_versions(), 1);
  r.weight_versions = {3, 3, 4, 5};
  EXPECT_TRUE(r.mixed_version());
  EXPECT_EQ(r.num_versions(), 3);
  EXPECT_EQ(r.generation_version(), 3);
  EXPECT_EQ(r.latest_version(), 5);
}

TEST(TrajectoryCursorTest, ProgressAccessors) {
  TrajectoryRecord r = Rec(1, 0);
  r.spec.ClearSegments();
  r.spec.AppendSegment({100, 1.0, 30});
  r.spec.AppendSegment({50, 0.0, 0});
  r.spec.AppendSegment({20, 0.0, 0});
  TrajectoryCursor c = TrajectoryCursor::Start(r);
  EXPECT_EQ(c.id, 1);
  EXPECT_EQ(c.context_tokens, 10);
  EXPECT_EQ(c.remaining_in_segment(r.spec), 100);
  c.decoded_in_segment = 40;
  EXPECT_EQ(c.remaining_in_segment(r.spec), 60);
  // Resolving a sandbox call appends the segment's feedback and moves on.
  c.ResolveEnvCall(r.spec);
  EXPECT_EQ(c.segment_index, 1);
  EXPECT_EQ(c.decoded_in_segment, 0);
  EXPECT_EQ(c.context_tokens, 10 + 30);
  EXPECT_EQ(c.current_segment(r.spec).decode_tokens, 50);
  c.segment_index = 3;
  EXPECT_TRUE(c.finished(r.spec));
}

TEST(PromptPoolTest, GroupsShareDifficultyAndPromptId) {
  PromptPool pool(WorkloadGenerator(WorkloadConfig{}, Rng(1)), 16, Rng(2));
  auto group = pool.NextGroup(0);
  ASSERT_EQ(group.size(), 16u);
  for (const auto& rec : group) {
    EXPECT_EQ(rec.prompt_id, group[0].prompt_id);
    EXPECT_DOUBLE_EQ(rec.difficulty, group[0].difficulty);
  }
  // Ids are unique and group indices dense.
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group[i].group_index, static_cast<int>(i));
  }
}

TEST(PromptPoolTest, BatchMustBeWholeGroups) {
  PromptPool pool(WorkloadGenerator(WorkloadConfig{}, Rng(1)), 16, Rng(2));
  auto batch = pool.NextBatch(64, 0);
  EXPECT_EQ(batch.size(), 64u);
  EXPECT_EQ(pool.prompts_issued(), 4);
  EXPECT_DEATH(pool.NextBatch(10, 0), "whole number");
}

TEST(ExperienceBufferTest, FifoSamplesOldestFirst) {
  ExperienceBuffer buf(MakeFifoSampler());
  for (int i = 0; i < 10; ++i) {
    buf.Push(Rec(i, i));
  }
  EXPECT_TRUE(buf.CanSample(10));
  auto batch = buf.Sample(3, 10);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[2].id, 2);
  EXPECT_EQ(buf.size(), 7u);
  // Consume version stamped.
  EXPECT_EQ(batch[0].consume_actor_version, 10);
}

TEST(ExperienceBufferTest, FreshnessSamplerPrefersNewVersions) {
  ExperienceBuffer buf(MakeFreshnessSampler());
  buf.Push(Rec(0, 1));
  buf.Push(Rec(1, 5));
  buf.Push(Rec(2, 3));
  auto batch = buf.Sample(2, 6);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedSkipsStaleWhenPossible) {
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));  // staleness 10 at version 10
  buf.Push(Rec(1, 9));
  buf.Push(Rec(2, 10));
  auto batch = buf.Sample(2, 10);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedFallsBackWhenStarved) {
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));
  buf.Push(Rec(1, 0));
  auto batch = buf.Sample(2, 10);  // all stale; must still fill
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ExperienceBufferTest, StalenessCappedFallbackPrefersLeastStale) {
  // Regression: the fallback used to fill from the lowest buffer index — the
  // oldest, most-stale data — instead of the least-stale over-bound records.
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));   // staleness 10 at actor version 10
  buf.Push(Rec(1, 5));   // staleness 5
  buf.Push(Rec(2, 9));   // staleness 1: within bound
  auto batch = buf.Sample(2, 10);
  ASSERT_EQ(batch.size(), 2u);
  // One fresh record plus the least-stale fallback (id 1, not id 0).
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedFallbackScansWholeBuffer) {
  // The least-stale over-bound record may sit anywhere in the buffer, so the
  // classification pass must consider every record (no early exit) before the
  // fallback ranks the over-bound ones.
  ExperienceBuffer buf(MakeStalenessCappedSampler(1));
  buf.Push(Rec(0, 0));   // staleness 10
  buf.Push(Rec(1, 10));  // fresh
  buf.Push(Rec(2, 3));   // staleness 7
  buf.Push(Rec(3, 8));   // staleness 2: least stale of the over-bound, last
  auto batch = buf.Sample(2, 10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 3);
}

TEST(ExperienceBufferTest, DropOldestEviction) {
  ExperienceBuffer buf(MakeFifoSampler(), 3, EvictionPolicy::kDropOldest);
  for (int i = 0; i < 5; ++i) {
    buf.Push(Rec(i, i));
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_evicted(), 2);
  auto batch = buf.Sample(1, 5);
  EXPECT_EQ(batch[0].id, 2);
}

TEST(ExperienceBufferTest, DropStalestEviction) {
  ExperienceBuffer buf(MakeFifoSampler(), 2, EvictionPolicy::kDropStalest);
  buf.Push(Rec(0, 7));
  buf.Push(Rec(1, 2));
  buf.Push(Rec(2, 9));  // evicts id 1 (version 2)
  auto batch = buf.Sample(2, 9);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, CountsTokens) {
  ExperienceBuffer buf(MakeFifoSampler());
  buf.Push(Rec(0, 0));
  EXPECT_EQ(buf.total_tokens_pushed(), 110);
}

TEST(PartialResponsePoolTest, UpdateRemoveAndTakeByReplica) {
  PartialResponsePool pool;
  TrajectoryCursor w1 = pool.Issue(Rec(1, 0));
  w1.context_tokens = 500;
  w1.kv_resident = true;
  TrajectoryCursor w2 = pool.Issue(Rec(2, 0));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.Checkpointed(1));
  pool.Update(w1, /*owner=*/3);
  pool.Update(w2, /*owner=*/4);
  EXPECT_TRUE(pool.Checkpointed(1));
  EXPECT_EQ(pool.total_context_tokens(), 510);

  auto lost = pool.TakeByReplica(3);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].id, 1);
  EXPECT_EQ(lost[0].context_tokens, 500);
  // The cache died with the machine.
  EXPECT_FALSE(lost[0].kv_resident);
  // The record stays in the store; only its checkpoint was taken.
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Checkpointed(1));

  TrajectoryRecord out;
  EXPECT_TRUE(pool.MarkCompleted(2, &out));
  EXPECT_EQ(out.id, 2);
  EXPECT_EQ(out.spec.prompt_tokens, 10);
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.MarkCompleted(2));
  EXPECT_EQ(pool.duplicate_completions(), 1);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(PartialResponsePoolTest, UpdateOverwritesProgress) {
  PartialResponsePool pool;
  TrajectoryCursor w = pool.Issue(Rec(1, 0));
  pool.Update(w, 0);
  w.decoded_in_segment = 42;
  pool.Update(w, 0);
  auto got = pool.TakeByReplica(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].decoded_in_segment, 42);
  EXPECT_EQ(pool.updates(), 2);
}

// Recovery returns the checkpointed view of the record too: versions the
// live holder appended after its last checkpoint are truncated away.
TEST(PartialResponsePoolTest, TakeByReplicaTruncatesVersionsToTheCheckpoint) {
  PartialResponsePool pool;
  TrajectoryCursor w = pool.Issue(Rec(1, 3));
  pool.Update(w, 0);
  pool.record(1).weight_versions.push_back(4);
  ASSERT_EQ(pool.TakeByReplica(0).size(), 1u);
  EXPECT_EQ(pool.record(1).weight_versions, std::vector<int>({3}));
}

TEST(PartialResponsePoolTest, RemoveOfMissingIdStillTombstones) {
  PartialResponsePool pool;
  // A trajectory that finished without ever checkpointing has no saved
  // progress, but its completion must still enter the terminal ledger.
  pool.Issue(Rec(7, 0));
  EXPECT_FALSE(pool.Checkpointed(7));
  EXPECT_TRUE(pool.MarkCompleted(7));
  EXPECT_TRUE(pool.IsTerminal(7));
  EXPECT_FALSE(pool.Contains(7));
  EXPECT_EQ(pool.completed(), 1);
  // ...so a late Update from a stale owner cannot resurrect it.
  TrajectoryCursor stale = TrajectoryCursor::Start(Rec(7, 0));
  EXPECT_FALSE(pool.Update(stale, /*owner=*/0));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stale_updates(), 1);
}

// Found by the scenario fuzzer (tests/corpus/env_boundary_restore.scenario):
// FinishSegment checkpoints a trajectory when it enters its sandbox call, at
// which point the current segment is fully decoded but not yet advanced. If
// the hosting machine then dies, restoring that checkpoint verbatim hands
// AssignWork a trajectory with remaining_in_segment() == 0, which trips the
// replica's progress check. The restore must resolve the env interaction the
// same way ExtractAllWork does: append the feedback, advance the segment.
TEST(PartialResponsePoolTest, RestoreResolvesEnvBoundaryCheckpoint) {
  auto two_turns = [](TrajId id) {
    TrajectoryRecord r = Rec(id, 0);
    r.spec.prompt_tokens = 10;
    r.spec.ClearSegments();
    r.spec.AppendSegment({/*decode=*/100, /*env_latency=*/3.0, /*feedback=*/64});
    r.spec.AppendSegment({/*decode=*/50, 0.0, 0});
    return r;
  };
  PartialResponsePool pool;
  TrajectoryCursor w = pool.Issue(two_turns(1));
  w.context_tokens = 110;     // prompt + the fully decoded first segment
  w.decoded_in_segment = 100; // at the env boundary: remaining_in_segment() == 0
  w.kv_resident = true;
  pool.Update(w, /*owner=*/0);

  auto restored = pool.TakeByReplica(0);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].segment_index, 1);
  EXPECT_EQ(restored[0].decoded_in_segment, 0);
  EXPECT_EQ(restored[0].remaining_in_segment(pool.record(1).spec), 50);
  // Sandbox output joined the context and must be re-prefilled with the rest.
  EXPECT_EQ(restored[0].context_tokens, 110 + 64);
  EXPECT_FALSE(restored[0].kv_resident);

  // A mid-segment checkpoint is restored untouched.
  TrajectoryCursor mid = pool.Issue(two_turns(2));
  mid.context_tokens = 40;
  mid.decoded_in_segment = 30;
  pool.Update(mid, /*owner=*/0);
  auto untouched = pool.TakeByReplica(0);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].segment_index, 0);
  EXPECT_EQ(untouched[0].decoded_in_segment, 30);
  EXPECT_EQ(untouched[0].context_tokens, 40);
}

TEST(PartialResponsePoolTest, TakeByReplicaWithNoMatchingEntries) {
  PartialResponsePool pool;
  EXPECT_TRUE(pool.TakeByReplica(3).empty());
  pool.Update(pool.Issue(Rec(1, 0)), /*owner=*/2);
  // The wrong owner's take leaves other replicas' checkpoints untouched.
  EXPECT_TRUE(pool.TakeByReplica(3).empty());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Checkpointed(1));
}

TEST(PartialResponsePoolTest, ReUpdateByNewOwnerMovesOwnership) {
  PartialResponsePool pool;
  pool.Update(pool.Issue(Rec(1, 0)), /*owner=*/1);

  // Migration: the manager takes the work off the failed owner and the new
  // host checkpoints it under its own id.
  auto taken = pool.TakeByReplica(1);
  ASSERT_EQ(taken.size(), 1u);
  taken[0].decoded_in_segment = 17;
  EXPECT_TRUE(pool.Update(taken[0], /*owner=*/2));

  // The old owner can no longer see (or steal back) the trajectory.
  EXPECT_TRUE(pool.TakeByReplica(1).empty());
  auto moved = pool.TakeByReplica(2);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].id, 1);
  EXPECT_EQ(moved[0].decoded_in_segment, 17);
}

TEST(PartialResponsePoolTest, TerminalLedgerSuppressesDuplicates) {
  PartialResponsePool pool;
  pool.Update(pool.Issue(Rec(1, 0)), 0);
  pool.Issue(Rec(2, 0));

  EXPECT_TRUE(pool.MarkCompleted(1));
  // Duplicate completion (e.g. a drained replica racing its migrated clone).
  EXPECT_FALSE(pool.MarkCompleted(1));
  EXPECT_EQ(pool.completed(), 1);
  EXPECT_EQ(pool.duplicate_completions(), 1);
  // A drop after completion is also suppressed: the outcome already happened.
  EXPECT_FALSE(pool.MarkDropped(1));
  EXPECT_EQ(pool.dropped(), 0);

  // Drop-first ordering works the same way.
  EXPECT_TRUE(pool.MarkDropped(2));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.MarkCompleted(2));
  EXPECT_EQ(pool.dropped(), 1);
  EXPECT_EQ(pool.completed(), 1);
  EXPECT_TRUE(pool.IsTerminal(2));
  EXPECT_EQ(pool.size(), 0u);
}

TEST(PartialResponsePoolTest, ContextTokenTotalsTrackTakesAndCompletions) {
  PartialResponsePool pool;
  auto add = [&](TrajId id, int64_t tokens, int owner) {
    TrajectoryCursor w = pool.Issue(Rec(id, 0));
    w.context_tokens = tokens;
    pool.Update(w, owner);
  };
  add(1, 500, /*owner=*/1);
  add(2, 300, /*owner=*/1);
  add(3, 200, /*owner=*/2);
  EXPECT_EQ(pool.total_context_tokens(), 1000);

  int64_t taken_tokens = 0;
  for (const TrajectoryCursor& w : pool.TakeByReplica(1)) {
    taken_tokens += w.context_tokens;
  }
  EXPECT_EQ(taken_tokens, 800);
  EXPECT_EQ(pool.total_context_tokens(), 200);

  pool.MarkCompleted(3);
  EXPECT_EQ(pool.total_context_tokens(), 0);
  EXPECT_EQ(pool.size(), 2u);  // 1 and 2 are still in flight, uncheckpointed
}

// ---------------------------------------------------------------------------
// Recovery order: TakeByReplica returns work in ascending TrajId, whatever
// order the ids were checkpointed, completed and dropped in, and a pool
// adopted from a snapshot keeps recovering in that order.

std::string WritePool(PartialResponsePool& pool) {
  SnapshotWriter w;
  SnapshotTx tx(&w);
  pool.Snapshot(tx);
  return w.Finish();
}

// Adopts `blob` into `pool`; returns the adopt pass's field mismatches.
std::vector<std::string> AdoptPool(const std::string& blob, PartialResponsePool& pool) {
  SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(reader.Parse(blob, &error)) << error;
  SnapshotTx tx(&reader, SnapshotMode::kAdopt);
  pool.Snapshot(tx);
  return tx.mismatches();
}

void UpdateScrambled(PartialResponsePool& pool, TrajId first, TrajId last, uint64_t seed) {
  std::vector<TrajId> ids;
  for (TrajId id = first; id < last; ++id) {
    ids.push_back(id);
  }
  std::shuffle(ids.begin(), ids.end(), std::mt19937_64(seed));
  for (size_t i = 0; i < ids.size(); ++i) {
    // Ids from an earlier call are re-checkpointed; terminal ones go stale.
    if (!pool.Contains(ids[i]) && !pool.IsTerminal(ids[i])) {
      pool.Issue(Rec(ids[i], 0));
    }
    TrajectoryCursor w = TrajectoryCursor::Start(Rec(ids[i], 0));
    w.context_tokens += ids[i];
    pool.Update(w, static_cast<int>(ids[i] % 3));
    if (i % 7 == 3) {
      pool.MarkCompleted(ids[i - 2]);
    }
    if (i % 11 == 5) {
      pool.MarkDropped(ids[i - 4]);
    }
  }
}

std::vector<TrajId> TakeIds(PartialResponsePool& pool, int replica) {
  std::vector<TrajId> ids;
  for (const TrajectoryCursor& w : pool.TakeByReplica(replica)) {
    EXPECT_EQ(w.context_tokens, pool.record(w.id).spec.prompt_tokens + w.id);
    ids.push_back(w.id);
  }
  return ids;
}

TEST(PartialResponsePoolTest, TakeByReplicaIsAscendingIdAndSurvivesAdopt) {
  PartialResponsePool pool;
  UpdateScrambled(pool, 14, 160, 0x5EED);
  PartialResponsePool adopted;
  std::string blob = WritePool(pool);
  std::vector<std::string> mismatches = AdoptPool(blob, adopted);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(WritePool(adopted), blob);
  // Both pools then see the same further traffic, new ids and re-updates.
  UpdateScrambled(pool, 150, 230, 0xF00D);
  UpdateScrambled(adopted, 150, 230, 0xF00D);

  size_t taken = 0;
  for (int replica = 0; replica < 3; ++replica) {
    std::vector<TrajId> ids = TakeIds(pool, replica);
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<TrajId>()) == ids.end())
        << "replica " << replica << " recovered out of ascending id order";
    EXPECT_EQ(TakeIds(adopted, replica), ids) << "replica " << replica;
    taken += ids.size();
  }
  EXPECT_GT(taken, 100u);
  EXPECT_EQ(pool.size(), adopted.size());
  EXPECT_EQ(pool.total_context_tokens(), 0);
  EXPECT_EQ(adopted.total_context_tokens(), 0);
}

// A hand-built partial_pool section listing `ids` (checkpointed by owner 0)
// in the given order, with `terminal` marked in the tombstone bitmap.
std::string PoolBlob(const std::vector<TrajId>& ids, const std::vector<TrajId>& terminal) {
  SnapshotWriter w;
  w.BeginSection("partial_pool");
  for (const char* name :
       {"updates", "completed", "dropped", "duplicate_completions", "stale_updates"}) {
    w.I64(name, 0);
  }
  std::vector<uint8_t> bitmap(64, 0);
  for (TrajId id : terminal) {
    bitmap[static_cast<size_t>(id)] = 1;
  }
  ByteSink tombstones;
  tombstones.U64(bitmap.size());
  tombstones.Raw(bitmap.data(), bitmap.size());
  w.Bytes("terminal", tombstones.Take());
  ByteSink entries;
  entries.U64(ids.size());
  for (TrajId id : ids) {
    TrajectoryRecord rec = Rec(id, 0);
    PackRecord(entries, rec);
    entries.Bool(true);
    entries.I32(0);
    entries.U64(rec.weight_versions.size());
    PackCursor(entries, TrajectoryCursor::Start(rec));
  }
  w.Bytes("entries", entries.Take());
  w.U64("size", ids.size());
  w.I64("context_tokens", 0);
  w.EndSection();
  return w.Finish();
}

TEST(PartialResponsePoolTest, AdoptRejectsMalformedEntries) {
  PartialResponsePool ok;
  EXPECT_TRUE(AdoptPool(PoolBlob({3, 5}, {4}), ok).empty());
  EXPECT_TRUE(ok.Checkpointed(3));
  EXPECT_TRUE(ok.Checkpointed(5));
  EXPECT_TRUE(ok.IsTerminal(4));

  PartialResponsePool descending;
  EXPECT_DEATH(AdoptPool(PoolBlob({5, 3}, {}), descending), "strictly ascending");
  PartialResponsePool repeated;
  EXPECT_DEATH(AdoptPool(PoolBlob({3, 3}, {}), repeated), "strictly ascending");
  PartialResponsePool tombstoned;
  EXPECT_DEATH(AdoptPool(PoolBlob({3, 5}, {5}), tombstoned), "entry 5 is terminal");
  PartialResponsePool serving;
  EXPECT_DEATH(AdoptPool(PoolBlob({kServingIdBase + 3}, {}), serving), "out of range");
}

}  // namespace
}  // namespace laminar
