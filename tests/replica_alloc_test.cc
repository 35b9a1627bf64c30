// Allocation regression test for the replica's checkpoint path. A checkpoint
// is a cursor-plus-owner write into the trajectory store's slot, so once the
// replica's containers, the store's slab and the engine's event slab have
// grown to the working-set size, a full hand-over -> admit -> checkpoint ->
// env boundary -> rejoin -> segment-finish cycle allocates nothing. A
// counting global operator new (this binary only) makes any regression
// visible as a count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/cluster/hardware.h"
#include "src/data/partial_response_pool.h"
#include "src/llm/model_spec.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};

// Out of line, so the compiler does not pair std::free with operator new
// and warn about a mismatch it cannot see is intended.
[[gnu::noinline]] void FreeBlock(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { FreeBlock(p); }
void operator delete[](void* p) noexcept { FreeBlock(p); }
void operator delete(void* p, std::size_t) noexcept { FreeBlock(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeBlock(p); }

namespace laminar {
namespace {

constexpr int kBatch = 16;
constexpr int kTurns = 6;
constexpr int kCountedBatches = 8;

// A tool-calling shaped record: every turn but the last ends in a sandbox
// call whose feedback joins the context. The shape depends on the id's slot
// in its batch only, so every batch replays the same schedule. The version
// is pre-stamped, as the replica would stamp it at first admission.
TrajectoryRecord ToolRecord(TrajId id) {
  int64_t k = id % kBatch;
  TrajectoryRecord rec;
  rec.id = id;
  rec.weight_versions = {0};
  rec.spec.prompt_tokens = 128 + 16 * (k % 7);
  for (int t = 0; t < kTurns; ++t) {
    bool last = t + 1 == kTurns;
    rec.spec.AppendSegment({32 + 8 * ((k + t) % 5), last ? 0.0 : 0.25 + 0.1 * (k % 3),
                            last ? 0 : 24});
  }
  return rec;
}

TEST(ReplicaAllocationTest, SteadyStateCheckpointCycleAllocatesNothing) {
  Simulator sim;
  PartialResponsePool store;
  ReplicaConfig rc;
  // Half the batch waits for a slot, so admissions (and their checkpoints)
  // keep happening while the counted batch runs.
  rc.max_concurrency = kBatch / 2;
  DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
  RolloutReplica replica(&sim, rc, decode, decode.KvCapacityTokens(), &store);
  int64_t admit_checkpoints = 0;
  int64_t env_checkpoints = 0;
  replica.set_on_progress([&](const TrajectoryCursor& cursor, int owner) {
    ASSERT_TRUE(store.Update(cursor, owner));
    ++(cursor.decoded_in_segment > 0 ? env_checkpoints : admit_checkpoints);
  });
  // Completions are recorded here and retired into the store's ledger after
  // the count: tombstoning grows the O(issued) terminal bitmap, which is
  // the driver's bookkeeping, not the replica's cycle.
  std::vector<TrajId> done;
  done.reserve(2 * kBatch);
  replica.set_on_complete([&done](TrajId id) { done.push_back(id); });
  auto run_batch = [&](TrajId first, int64_t* allocations) {
    std::vector<TrajectoryCursor> works;
    for (TrajId id = first; id < first + kBatch; ++id) {
      works.push_back(store.Issue(ToolRecord(id)));
    }
    admit_checkpoints = 0;
    env_checkpoints = 0;
    g_allocations = 0;
    g_counting = true;
    replica.AssignWork(std::move(works));
    sim.RunUntilIdle();
    g_counting = false;
    *allocations = g_allocations.load();
    for (TrajId id : done) {
      ASSERT_TRUE(store.MarkCompleted(id));
    }
    done.clear();
  };

  // Warm-up batch: grows every container (the replica's, the store's and the
  // engine's event slab) to the working-set size of one batch.
  int64_t warmup_allocations = 0;
  run_batch(0, &warmup_allocations);
  ASSERT_EQ(store.size(), 0u);

  // Several counted batches: a queue whose storage drifts through memory (a
  // node-based deque takes a fresh block every few pushes) cannot hide in
  // one batch's slack.
  for (int batch = 1; batch <= kCountedBatches; ++batch) {
    int64_t allocations = 0;
    run_batch(batch * kBatch, &allocations);
    ASSERT_EQ(store.size(), 0u);
    // The counted run covered the whole cycle: the hand-over into the
    // waiting queue, the admission of every trajectory (half at once, half as
    // slots free up) and kTurns - 1 sandbox-call boundaries (each a
    // checkpoint, a rejoin and a segment finish) for every trajectory.
    EXPECT_EQ(admit_checkpoints, kBatch);
    EXPECT_EQ(env_checkpoints, kBatch * (kTurns - 1));
    EXPECT_EQ(allocations, 0) << "heap allocations in counted batch " << batch << " over "
                              << admit_checkpoints + env_checkpoints << " checkpoints";
  }
}

}  // namespace
}  // namespace laminar
