// Microbenchmark of the raw discrete-event core: how many events per second
// the Simulator can schedule, cancel and fire, independent of any RL model.
// Every figure harness is millions of these events, so this is the number
// that bounds how fast the whole reproduction can run.
//
// Scenarios:
//  * schedule+fire   — a self-sustaining population of timers; each event
//                      fires and schedules its successor (the rollout
//                      steady-state pattern).
//  * schedule/cancel — every fired event schedules two successors and
//                      cancels one of them (heartbeat / timeout pattern).
//  * cancel-heavy    — 90% of scheduled events are cancelled before firing;
//                      stresses tombstone reclamation in the heap.
//  * periodic churn  — many PeriodicTasks ticking (repack checks,
//                      heartbeats); stresses the rearm path.
//
// Every event is a continuation descriptor dispatched through the registry,
// the one path the simulator has.
#include "bench/bench_util.h"
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Result {
  const char* name;
  uint64_t events;
  double seconds;
};

constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

// Base of the scenario clients: registers as the simulator's only component.
class ScenarioClient : public ContinuationClient {
 public:
  explicit ScenarioClient(Simulator* sim) : sim_(sim) {
    sim_->continuations().Register(kComp, this);
  }
  ~ScenarioClient() override { sim_->continuations().Unregister(kComp); }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {
    LAMINAR_CHECK(false) << "bench scenarios are never restored";
  }

 protected:
  Simulator* sim_;
};

// Each fired event schedules exactly one successor, keeping `population`
// events in flight at pseudo-random future times.
class FireClient : public ScenarioClient {
 public:
  explicit FireClient(Simulator* sim) : ScenarioClient(sim), rng_(7) {}
  void Schedule() { sim_->ScheduleContinuationAfter(rng_.Uniform(0.1, 10.0), kComp, 0); }
  void RunContinuation(uint16_t, const ContinuationPayload&) override { Schedule(); }

 private:
  Rng rng_;
};

Result ScheduleFire(uint64_t target_events, int population) {
  Simulator sim;
  FireClient client(&sim);
  for (int i = 0; i < population; ++i) {
    client.Schedule();
  }
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"schedule+fire", sim.executed_events(), Seconds(start)};
}

// Each fired event schedules a "work" successor and a "timeout" guard, then
// cancels the previous guard — one Cancel per fire, like heartbeat liveness.
class CancelClient : public ScenarioClient {
 public:
  enum : uint16_t { kWork = 0, kGuard = 1 };
  CancelClient(Simulator* sim, int population)
      : ScenarioClient(sim), rng_(11),
        guards_(static_cast<size_t>(population), kInvalidEventId) {}
  void ScheduleWork(int slot) {
    sim_->ScheduleContinuationAfter(rng_.Uniform(0.1, 5.0), kComp, kWork,
                                    ContinuationPayload::Of(slot));
  }
  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    if (kind == kGuard) {
      return;
    }
    size_t slot = static_cast<size_t>(p.a);
    ScheduleWork(static_cast<int>(slot));
    if (guards_[slot] != kInvalidEventId) {
      sim_->Cancel(guards_[slot]);
    }
    guards_[slot] = sim_->ScheduleContinuationAfter(1000.0, kComp, kGuard);
  }

 private:
  Rng rng_;
  std::vector<EventId> guards_;
};

Result ScheduleCancel(uint64_t target_events, int population) {
  Simulator sim;
  CancelClient client(&sim, population);
  for (int i = 0; i < population; ++i) {
    client.ScheduleWork(i);
  }
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"schedule/cancel", sim.executed_events(), Seconds(start)};
}

// Fired events do nothing.
class NoopClient : public ScenarioClient {
 public:
  using ScenarioClient::ScenarioClient;
  void RunContinuation(uint16_t, const ContinuationPayload&) override {}
};

// 90% of scheduled events never fire: schedule a burst, cancel most of it,
// step through the survivors. Exercises tombstone skipping and slot reuse.
Result CancelHeavy(uint64_t target_events) {
  Simulator sim;
  NoopClient client(&sim);
  Rng rng(13);
  uint64_t scheduled = 0;
  Clock::time_point start = Clock::now();
  std::vector<EventId> burst;
  burst.reserve(1000);
  while (sim.executed_events() < target_events) {
    burst.clear();
    for (int i = 0; i < 1000; ++i) {
      burst.push_back(sim.ScheduleContinuationAfter(rng.Uniform(0.1, 10.0), kComp, 0));
      ++scheduled;
    }
    for (size_t i = 0; i < burst.size(); ++i) {
      if (i % 10 != 0) {
        sim.Cancel(burst[i]);
      }
    }
    sim.RunUntilIdle(100);
  }
  // Count schedule+cancel operations as events too: the scenario's cost is
  // dominated by them, not by the 10% that fire.
  return {"cancel-heavy", scheduled, Seconds(start)};
}

// Many periodic timers with coprime-ish periods ticking concurrently; the
// tick kind is the task's index.
class PeriodicClient : public ScenarioClient {
 public:
  PeriodicClient(Simulator* sim, int tasks) : ScenarioClient(sim) {
    pool_.reserve(static_cast<size_t>(tasks));
    for (int i = 0; i < tasks; ++i) {
      pool_.push_back(std::make_unique<PeriodicTask>(sim, 0.37 + 0.01 * i, kComp,
                                                     static_cast<uint16_t>(i),
                                                     [this] { ++ticks_; }));
      pool_.back()->Start();
    }
  }
  void RunContinuation(uint16_t kind, const ContinuationPayload&) override {
    pool_[kind]->Fire();
  }

 private:
  uint64_t ticks_ = 0;
  std::vector<std::unique_ptr<PeriodicTask>> pool_;
};

Result PeriodicChurn(uint64_t target_events, int tasks) {
  Simulator sim;
  PeriodicClient client(&sim, tasks);
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"periodic churn", sim.executed_events(), Seconds(start)};
}

void Run() {
  const uint64_t kEvents = 4'000'000;
  std::printf("Simulator core microbenchmark (%llu events per scenario)\n",
              static_cast<unsigned long long>(kEvents));
  std::vector<Result> results;
  results.push_back(ScheduleFire(kEvents, 1024));
  results.push_back(ScheduleCancel(kEvents, 1024));
  results.push_back(CancelHeavy(kEvents / 4));
  results.push_back(PeriodicChurn(kEvents, 512));

  Table table({"scenario", "events", "seconds", "events/sec"});
  uint64_t total_events = 0;
  double total_seconds = 0.0;
  for (const Result& r : results) {
    total_events += r.events;
    total_seconds += r.seconds;
    table.AddRow({r.name, Table::Int(static_cast<double>(r.events)), Table::Num(r.seconds, 3),
                  Table::Int(static_cast<double>(r.events) / r.seconds)});
  }
  table.AddRow({"all scenarios", Table::Int(static_cast<double>(total_events)),
                Table::Num(total_seconds, 3),
                Table::Int(static_cast<double>(total_events) / total_seconds)});
  table.Print();
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  laminar::Run();
  return 0;
}
