// The full Laminar system (paper §3): trajectory-level asynchrony via the
// relay tier, the rollout manager with dynamic repack, the partial-response
// pool, and an asynchronous trainer.
#ifndef LAMINAR_SRC_CORE_LAMINAR_SYSTEM_H_
#define LAMINAR_SRC_CORE_LAMINAR_SYSTEM_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/core/driver_base.h"
#include "src/fault/fault_process.h"
#include "src/fault/heartbeat.h"
#include "src/fault/injector.h"
#include "src/fault/invariants.h"
#include "src/relay/relay_tier.h"
#include "src/rollout/manager.h"

namespace laminar {

class LaminarSystem : public DriverBase {
 public:
  // Continuation kinds for the system driver's pending events (DESIGN.md
  // §13). kContRefreshPull only ever fires synchronously through a relay
  // PullTicket; the rest park on the event heap.
  enum Continuation : uint16_t {
    kContActorPublish = 0,    // broadcast landed: {a=version}
    kContHeartbeatRevive = 1, // replacement machine beats again: {a=machine}
    kContRelayRestart = 2,    // relay process revival: {a=machine}
    kContSpeedRestore = 3,    // fail-slow severity lifts: {a=replica}
    kContServingArrival = 4,  // pending_serving_ arrives
    kContInvariantSweep = 5,  // periodic invariant sweep tick
    kContRefreshPull = 6,     // partial-rollout pull: {a=replica, c=got}
  };

  explicit LaminarSystem(RlSystemConfig config) : DriverBase(std::move(config)) {}

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  // Exposed for fault-injection benches and tests.
  RelayTier* relays() { return relays_.get(); }
  RolloutManager* manager() { return manager_.get(); }
  HeartbeatMonitor* heartbeats() { return heartbeats_.get(); }
  FaultInjector* injector() { return injector_.get(); }
  InvariantChecker* invariants() { return invariants_.get(); }

  // Queues a scripted fault. Callable before Run() (the event is handed to
  // the injector once Setup builds it) or from inside the simulation; both
  // routes share the chaos engine's handlers and validation.
  void ScheduleFault(const FaultEvent& event);

 protected:
  void Setup() override;
  void Begin() override;
  void Finalize(SystemReport& report) override;
  void OnIteration(const IterationStats& stats) override;
  // Appends the Laminar subsystems (relay tier, manager, heartbeats,
  // injector, trainer checkpoint) to the base witness.
  void SnapshotComponents(SnapshotTx& tx) override;

 private:
  // Appendix-C hybrid: mid-generation weight adoption on top of Laminar.
  void ApplyPartialRollout(int version);
  void OnRefreshPull(int replica_id, int got);
  void RestartRelayAfter(int machine, double delay_seconds);
  void OnRelayRestartFire(int machine);
  void OnHeartbeatRevive(int machine);
  void OnSpeedRestore(int replica_id);
  // Online serving tier (DESIGN.md §14): schedules the next generated
  // arrival; each arrival re-arms the pump.
  void PumpServing();
  void OnServingArrivalFire();

  std::unique_ptr<RelayTier> relays_;
  std::unique_ptr<RolloutManager> manager_;
  // Null unless cfg_.serving.enabled; seeded from root_rng_.Fork("serving"),
  // so arming it never perturbs the existing RNG streams.
  std::unique_ptr<ServingTrafficGenerator> serving_traffic_;
  std::unique_ptr<HeartbeatMonitor> heartbeats_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<InvariantChecker> invariants_;
  std::unique_ptr<PeriodicTask> invariant_sweep_;
  std::vector<FaultEvent> pending_faults_;
  // The one in-flight serving arrival (the pump schedules exactly one ahead);
  // serialized so a direct boot re-delivers it without replaying the
  // generator.
  ServingRequest pending_serving_;
  bool serving_pending_ = false;
  // Publish -> broadcast-landed delay, derived from the relay config at
  // Setup(); the pending kContActorPublish event carries only the version.
  double distribution_delay_ = 0.0;
  // The trainer's last durable checkpoint (LMSNAP1): taken at Begin(),
  // refreshed after every completed iteration and after every trainer fault.
  // kCrashRestart restores from exactly this blob.
  std::string trainer_checkpoint_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CORE_LAMINAR_SYSTEM_H_
