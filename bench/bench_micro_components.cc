// Micro-benchmarks of the hot simulator/algorithm components
// (google-benchmark): event queue, Best-Fit consolidation, broadcast math,
// decode-latency model, policy update, trainer iteration, replica decode
// advance, trajectory store checkpoint/complete, trace emission and LMTRACE1
// encoding.
#include <benchmark/benchmark.h>

#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/data/experience_buffer.h"
#include "src/data/partial_response_pool.h"
#include "src/llm/decode_model.h"
#include "src/llm/model_spec.h"
#include "src/llm/train_cost.h"
#include "src/policy/policy.h"
#include "src/relay/broadcast_model.h"
#include "src/repack/best_fit.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "src/trainer/trainer.h"
#include "tests/lambda_events.h"

namespace laminar {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    LambdaEvents events(&sim);
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      events.At(SimTime(static_cast<double>(i % 97)), [&fired] { ++fired; });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    LambdaEvents events(&sim);
    std::vector<EventId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) {
      ids.push_back(events.At(SimTime(1.0 + i), [] {}));
    }
    for (int i = 0; i < n; i += 2) {
      sim.Cancel(ids[i]);
    }
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(16384);

void BM_BestFitConsolidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<ReplicaSnapshot> snaps;
  for (int i = 0; i < n; ++i) {
    ReplicaSnapshot s;
    s.replica_id = i;
    s.kv_used_frac = rng.Uniform(0.0, 0.6);
    s.kv_prev_frac = s.kv_used_frac + rng.Uniform(-0.1, 0.1);
    s.num_reqs = static_cast<int>(rng.UniformInt(1, 120));
    s.num_waiting = 0;
    s.busy = true;
    s.eligible = true;
    snaps.push_back(s);
  }
  RepackParams params;
  params.batch_bound = 256;
  for (auto _ : state) {
    RepackPlan plan = BestFitConsolidation(snaps, params);
    benchmark::DoNotOptimize(plan.moves.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BestFitConsolidation)->Arg(16)->Arg(128)->Arg(1024);

void BM_BroadcastOptimalTime(benchmark::State& state) {
  BroadcastParams params;
  params.message_bytes = 145.4e9;
  params.byte_time = 1.0 / 50e9;
  for (auto _ : state) {
    for (int nodes = 2; nodes <= 128; ++nodes) {
      benchmark::DoNotOptimize(OptimalBroadcastTime(params, nodes));
    }
  }
}
BENCHMARK(BM_BroadcastOptimalTime);

void BM_DecodeStepLatency(benchmark::State& state) {
  DecodeModel model(Qwen25_32B(), MachineSpec{}, 4);
  for (auto _ : state) {
    for (int batch = 1; batch <= 512; batch *= 2) {
      benchmark::DoNotOptimize(model.StepLatency(batch, 3000.0));
    }
  }
}
BENCHMARK(BM_DecodeStepLatency);

void BM_PolicyUpdateMinibatch(benchmark::State& state) {
  Policy policy{PolicyConfig{}};
  Rng rng(2);
  std::vector<TrajectoryRecord> batch;
  for (int i = 0; i < 512; ++i) {
    TrajectoryRecord rec;
    rec.prompt_id = i / 16;
    rec.difficulty = rng.Uniform();
    rec.weight_versions = {0};
    policy.ScoreTrajectory(rec, rng);
    batch.push_back(rec);
  }
  std::span<const TrajectoryRecord> minibatch(batch);
  for (auto _ : state) {
    UpdateStats stats = policy.UpdateMinibatch(minibatch, RlAlgorithm::kGrpo);
    benchmark::DoNotOptimize(stats.grad_norm);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PolicyUpdateMinibatch);

// One full-batch trainer iteration at the default shape: sample 8192 scored
// records (512 prompt groups of 16, interleaved as completions arrive) from
// a filled buffer, record the batch statistics, run 16 mini-batch updates
// and publish. Refilling the buffer is untimed.
void BM_TrainerFullBatchIteration(benchmark::State& state) {
  constexpr int kGlobalBatch = 8192;
  Simulator sim;
  ExperienceBuffer buffer(MakeFifoSampler());
  Policy policy{PolicyConfig{}};
  TrainerConfig tc;
  tc.global_batch = kGlobalBatch;
  tc.num_minibatches = 16;
  tc.auto_continue = false;
  Trainer trainer(&sim, tc, TrainCostModel(Qwen25_7B(), GpuSpec{}, 8), &buffer, &policy);
  trainer.set_publish_fn([](int) { return 0.0; });
  trainer.Start();
  Rng rng(4);
  std::vector<TrajectoryRecord> records;
  for (int i = 0; i < kGlobalBatch; ++i) {
    TrajectoryRecord rec;
    rec.id = i;
    rec.prompt_id = i / 16;
    rec.difficulty = rng.Uniform();
    rec.weight_versions = {0};
    rec.spec.prompt_tokens = 512;
    rec.spec.AppendSegment(TrajectorySegment{1024, 0.0, 0});
    policy.ScoreTrajectory(rec, rng);
    records.push_back(rec);
  }
  rng.Shuffle(records);
  for (auto _ : state) {
    state.PauseTiming();
    for (const TrajectoryRecord& rec : records) {
      buffer.Push(rec);
    }
    state.ResumeTiming();
    trainer.NotifyData();
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(policy.parameters().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kGlobalBatch);
  state.counters["version"] = trainer.version();
}
BENCHMARK(BM_TrainerFullBatchIteration)->Unit(benchmark::kMillisecond);

// One replica decoding a fixed batch of single-segment responses long
// enough that none finishes, with a cache far larger than the run can fill:
// every iteration is one advance event (the step cap's worth of decode
// steps). Time per iteration is the host cost of one decode event at the
// given batch size.
void BM_ReplicaDecodeAdvance(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  ReplicaConfig rc;
  rc.max_concurrency = batch;
  DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
  PartialResponsePool store;
  RolloutReplica replica(&sim, rc, decode, 1.0e15, &store);
  std::vector<TrajectoryCursor> works;
  for (int i = 0; i < batch; ++i) {
    TrajectoryRecord rec;
    rec.id = i;
    rec.spec.prompt_tokens = 256 + i % 512;
    rec.spec.AppendSegment(TrajectorySegment{int64_t{1} << 40, 0.0, 0});
    works.push_back(store.Issue(std::move(rec)));
  }
  replica.AssignWork(std::move(works));
  sim.Step();  // the first advance also carries the admission prefill
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Step());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["batch"] = static_cast<double>(replica.metrics().batch_size.current());
}
BENCHMARK(BM_ReplicaDecodeAdvance)->Arg(64)->Arg(256)->Arg(1024);

// Store traffic at a steady in-flight window of state.range(0) trajectories.
// Each iteration advances one randomly chosen trajectory by one step of its
// life: an admission checkpoint, a sandbox-boundary checkpoint, or its
// completion — which moves the record out (into a reused sink, standing in
// for the experience buffer) — and the issue of the prompt that replaces it.
// Steps land on random trajectories, as events do in a run, so with a large
// window the slot and index accesses miss the cache.
void BM_StoreCheckpointComplete(benchmark::State& state) {
  const TrajId window = state.range(0);
  PartialResponsePool store;
  TrajectorySpec spec;
  spec.prompt_tokens = 512;
  spec.AppendSegment(TrajectorySegment{256, 1.5, 64});
  spec.AppendSegment(TrajectorySegment{128, 0.0, 0});
  auto issue = [&store, &spec](TrajId id) {
    TrajectoryRecord rec;
    rec.id = id;
    rec.spec = spec;
    rec.weight_versions = {0};
    return store.Issue(std::move(rec));
  };
  std::vector<TrajectoryCursor> inflight;
  std::vector<int> stage(static_cast<size_t>(window), 0);
  for (TrajId id = 0; id < window; ++id) {
    inflight.push_back(issue(id));
  }
  TrajectoryRecord sink;
  TrajId next = window;
  Rng rng(3);
  for (auto _ : state) {
    size_t i = static_cast<size_t>(rng.UniformInt(0, window - 1));
    TrajectoryCursor& c = inflight[i];
    switch (stage[i]++) {
      case 0:  // admission
        store.Update(c, 1);
        break;
      case 1:  // sandbox-call boundary
        c.decoded_in_segment = 256;
        c.context_tokens += 256;
        store.Update(c, 1);
        break;
      default:  // completion, and the prompt that replaces it
        store.MarkCompleted(c.id, &sink);
        benchmark::DoNotOptimize(sink.id);
        c = issue(next++);
        stage[i] = 0;
        break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreCheckpointComplete)->Arg(1024)->Arg(65536);

// Event names a traced chaos run emits; most are longer than the
// 15-character small-string limit.
constexpr const char* kTraceNames[] = {
    "replica/traj_complete", "replica/decode_busy",   "replica/kv_used",
    "replica/batch_size",    "manager/serving_admit", "manager/serving_reject",
    "relay/arrival",         "relay/pull_wait",       "trainer/iteration",
    "data/buffer_depth",     "fault/suspect_dead",    "invariant/check",
};
constexpr size_t kNumTraceNames = sizeof(kTraceNames) / sizeof(kTraceNames[0]);

// One emission through the sink front-end: name interning plus the append.
// A 64k-event ring keeps memory flat however many iterations run.
void BM_TraceSinkEmit(benchmark::State& state) {
  Simulator sim;
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = size_t{1} << 16;
  TraceSink sink(&sim, config);
  size_t i = 0;
  for (auto _ : state) {
    const char* name = kTraceNames[i % kNumTraceNames];
    switch (i % 3) {
      case 0:
        sink.Span(TraceComponent::kReplica, name, static_cast<int32_t>(i % 16), SimTime(0.0),
                  SimTime(1.0), static_cast<int64_t>(i));
        break;
      case 1:
        sink.Instant(TraceComponent::kManager, name, -1, static_cast<int64_t>(i));
        break;
      default:
        sink.Counter(TraceComponent::kData, name, -1, static_cast<double>(i));
        break;
    }
    ++i;
  }
  benchmark::DoNotOptimize(sink.buffer().total_emitted());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSinkEmit);

// LMTRACE1 encoding of a full-capture trace of state.range(0) events (120k
// is the size a 30 s chaos_serving_16gpu run ends with).
void BM_TraceToBinary(benchmark::State& state) {
  const int64_t n = state.range(0);
  TraceBuffer buffer;
  Rng rng(11);
  for (int64_t i = 0; i < n; ++i) {
    TraceEvent e;
    e.time = 0.01 * static_cast<double>(i);
    e.duration = rng.Uniform(0.0, 2.0);
    e.arg = static_cast<int64_t>(rng.UniformInt(-1, 1 << 20));
    e.value = rng.Uniform(0.0, 1.0);
    e.name = buffer.InternName(kTraceNames[i % kNumTraceNames]);
    e.entity = static_cast<int32_t>(rng.UniformInt(-1, 63));
    e.component = static_cast<TraceComponent>(i % kNumTraceComponents);
    e.kind = static_cast<TraceEventKind>(i % 3);
    buffer.Add(e);
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = TraceToBinary(buffer);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TraceToBinary)->Arg(120000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace laminar

BENCHMARK_MAIN();
