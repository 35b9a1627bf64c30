#include "lambench/probe.h"

#include <fstream>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/fault/heartbeat.h"
#include "src/fault/injector.h"
#include "src/relay/relay_tier.h"
#include "src/rollout/manager.h"
#include "src/rollout/replica.h"
#include "src/snapshot/snapshot.h"
#include "src/trainer/trainer.h"

namespace lambench {
namespace {

using laminar::ContinuationClient;
using laminar::ContinuationPayload;
using laminar::SimTime;

struct KindName {
  int family;
  uint16_t kind;
  const char* name;
};

// Every continuation kind the Laminar driver can dispatch, named
// <module>.<component>.<kind> after the src/ module that owns it (module and
// component collapse where they coincide: relay, trainer).
const std::vector<KindName>& KindNames() {
  using laminar::DriverBase;
  using laminar::FaultInjector;
  using laminar::HeartbeatMonitor;
  using laminar::LaminarSystem;
  using laminar::RelayTier;
  using laminar::RolloutManager;
  using laminar::RolloutReplica;
  using laminar::Trainer;
  static const std::vector<KindName> kNames = {
      {laminar::kContFamilyReplica, RolloutReplica::kContAdvance, "rollout.replica.advance"},
      {laminar::kContFamilyReplica, RolloutReplica::kContEnvRejoin,
       "rollout.replica.env_rejoin"},
      {laminar::kContFamilyManager, RolloutManager::kContTick, "rollout.manager.tick"},
      {laminar::kContFamilyManager, RolloutManager::kContServingTick,
       "rollout.manager.serving_tick"},
      {laminar::kContFamilyManager, RolloutManager::kContPullComplete,
       "rollout.manager.pull_complete"},
      {laminar::kContFamilyManager, RolloutManager::kContRedirectRetry,
       "rollout.manager.redirect_retry"},
      {laminar::kContFamilyManager, RolloutManager::kContMachineReplaced,
       "rollout.manager.machine_replaced"},
      {laminar::kContFamilyManager, RolloutManager::kContStallThaw,
       "rollout.manager.stall_thaw"},
      {laminar::kContFamilyRelayTier, RelayTier::kContArrival, "relay.arrival"},
      {laminar::kContFamilyRelayTier, RelayTier::kContPullDone, "relay.pull_done"},
      {laminar::kContFamilyTrainer, Trainer::kContTrainDone, "trainer.train_done"},
      {laminar::kContFamilyTrainer, Trainer::kContMinibatchDone, "trainer.minibatch_done"},
      {laminar::kContFamilyTrainer, Trainer::kContPublishDone, "trainer.publish_done"},
      {laminar::kContFamilyTrainer, Trainer::kContRecover, "trainer.recover"},
      {laminar::kContFamilyTrainer, Trainer::kContCrashRecover, "trainer.crash_recover"},
      {laminar::kContFamilyHeartbeat, HeartbeatMonitor::kContSweep, "fault.heartbeat.sweep"},
      {laminar::kContFamilyHeartbeat, HeartbeatMonitor::kContStallHeal,
       "fault.heartbeat.stall_heal"},
      {laminar::kContFamilyInjector, FaultInjector::kContFire, "fault.injector.fire"},
      {laminar::kContFamilySystem, LaminarSystem::kContInvariantSweep,
       "fault.invariants.sweep"},
      {laminar::kContFamilySystem, LaminarSystem::kContServingArrival,
       "core.system.serving_arrival"},
      {laminar::kContFamilySystem, LaminarSystem::kContActorPublish,
       "core.system.actor_publish"},
      {laminar::kContFamilySystem, LaminarSystem::kContHeartbeatRevive,
       "core.system.heartbeat_revive"},
      {laminar::kContFamilySystem, LaminarSystem::kContRelayRestart,
       "core.system.relay_restart"},
      {laminar::kContFamilySystem, LaminarSystem::kContSpeedRestore,
       "core.system.speed_restore"},
      {laminar::kContFamilySystem, LaminarSystem::kContRefreshPull,
       "core.system.refresh_pull"},
      {laminar::kContFamilyDriver, DriverBase::kContRateTick, "core.driver.rate_tick"},
  };
  return kNames;
}

struct LayerIndex {
  std::vector<std::string> names;
  // (family, kind) -> layer; kinds are small except the driver's 0xF000 base.
  std::vector<std::vector<int>> by_family;
};

const LayerIndex& Index() {
  static const LayerIndex kIndex = [] {
    LayerIndex idx;
    idx.names = {"core.setup", "snapshot.write", "snapshot.verify", "snapshot.adopt",
                 "snapshot.remint"};
    idx.by_family.resize(laminar::kContFamilyCount);
    for (const KindName& k : KindNames()) {
      uint16_t slot = k.kind & 0x0FFF;  // folds the driver's 0xF000 base
      auto& fam = idx.by_family[static_cast<size_t>(k.family)];
      if (fam.size() <= slot) {
        fam.resize(slot + 1u, -1);
      }
      fam[slot] = static_cast<int>(idx.names.size());
      idx.names.push_back(k.name);
    }
    return idx;
  }();
  return kIndex;
}

}  // namespace

const std::vector<std::string>& LayerNames() { return Index().names; }
int NumLayers() { return static_cast<int>(Index().names.size()); }

int ContinuationLayer(int family, uint16_t kind) {
  const LayerIndex& idx = Index();
  if (family < 0 || family >= laminar::kContFamilyCount) {
    return -1;
  }
  const auto& fam = idx.by_family[static_cast<size_t>(family)];
  uint16_t slot = kind & 0x0FFF;
  bool driver_kind = (kind & 0xF000) != 0;
  if (driver_kind != (family == laminar::kContFamilyDriver) || slot >= fam.size()) {
    return -1;
  }
  return fam[slot];
}

// SpanRecorder ------------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()), totals_(Index().names.size()) {}

void SpanRecorder::Close(int index) {
  LAMINAR_CHECK(!stack_.empty() && stack_.back().index == index)
      << "spans must close innermost first";
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = Now();
  int64_t duration = s.end_ns - s.start_ns;
  LayerTotals& t = totals_[static_cast<size_t>(s.layer)];
  ++t.calls;
  t.self_s += static_cast<double>(duration - stack_.back().child_ns) * 1e-9;
  stack_.pop_back();
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  } else if (s.layer >= kLayerFirstContinuation) {
    ++top_level_dispatches_;
  }
}

double SpanRecorder::total_self_s() const {
  double sum = 0.0;
  for (const LayerTotals& t : totals_) {
    sum += t.self_s;
  }
  return sum;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<std::string>& names = LayerNames();
  out << "index,name,parent,run,start_ns,end_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << names[static_cast<size_t>(s.layer)] << ',' << s.parent << ','
        << s.run << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

// Proxies --------------------------------------------------------------------------

class ContinuationProxy : public ContinuationClient {
 public:
  ContinuationProxy(ProbedLaminar* owner, int32_t comp, ContinuationClient* inner)
      : owner_(owner), comp_(comp), family_(comp >> 16), inner_(inner) {}

  int32_t comp() const { return comp_; }
  ContinuationClient* inner() const { return inner_; }

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    owner_->OnFire();
    SpanRecorder* spans = owner_->spans();
    if (spans == nullptr) {
      inner_->RunContinuation(kind, p);
      return;
    }
    int layer = ContinuationLayer(family_, kind);
    LAMINAR_CHECK_GE(layer, 0) << "unnamed continuation kind " << kind << " of family "
                               << family_;
    int span = spans->Open(layer);
    inner_->RunContinuation(kind, p);
    spans->Close(span);
  }

  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override {
    SpanRecorder* spans = owner_->spans();
    if (spans == nullptr) {
      inner_->RestoreContinuation(kind, p, at);
      return;
    }
    int span = spans->Open(kLayerSnapshotRemint);
    inner_->RestoreContinuation(kind, p, at);
    spans->Close(span);
  }

 private:
  ProbedLaminar* owner_;
  int32_t comp_;
  int family_;
  ContinuationClient* inner_;
};

std::vector<int32_t> RegisteredComponents(const laminar::ContinuationRegistry& registry) {
  std::vector<int32_t> out;
  for (int family = 0; family < laminar::kContFamilyCount; ++family) {
    for (int instance = 0; instance <= 0xFFFF; ++instance) {
      int32_t comp = laminar::ContinuationComponentId(
          static_cast<laminar::ContinuationFamily>(family), instance);
      if (registry.Find(comp) != nullptr) {
        out.push_back(comp);
      }
    }
  }
  return out;
}

ProbedLaminar::ProbedLaminar(laminar::RlSystemConfig config, ProbeMode mode,
                             SpanRecorder* spans)
    : LaminarSystem(std::move(config)),
      mode_(mode),
      spans_(mode == ProbeMode::kSpans ? spans : nullptr) {
  LAMINAR_CHECK(mode != ProbeMode::kSpans || spans != nullptr);
}

ProbedLaminar::~ProbedLaminar() { Unwrap(); }

void ProbedLaminar::Setup() {
  if (spans_ == nullptr) {
    LaminarSystem::Setup();
  } else {
    int span = spans_->Open(kLayerSetup);
    LaminarSystem::Setup();
    spans_->Close(span);
  }
  if (mode_ == ProbeMode::kOff) {
    return;
  }
  laminar::ContinuationRegistry& registry = sim().continuations();
  for (int32_t comp : RegisteredComponents(registry)) {
    ContinuationClient* inner = registry.Find(comp);
    auto proxy = std::make_unique<ContinuationProxy>(this, comp, inner);
    registry.Unregister(comp);
    registry.Register(comp, proxy.get());
    proxies_.push_back(std::move(proxy));
  }
}

void ProbedLaminar::FirstFire() {
  fired_ = true;
  first_fire_ = Clock::now();
  if (mode_ == ProbeMode::kFirstFire) {
    // The proxy that called us stays alive (owned here); only the registry
    // entries go back to the real clients, so later events skip the proxy.
    Unwrap();
  }
}

void ProbedLaminar::Unwrap() {
  laminar::ContinuationRegistry& registry = sim().continuations();
  for (const auto& proxy : proxies_) {
    if (registry.Find(proxy->comp()) == proxy.get()) {
      registry.Unregister(proxy->comp());
      registry.Register(proxy->comp(), proxy->inner());
    }
  }
}

std::vector<int32_t> ProbedLaminar::UnwrappedComponents() {
  std::unordered_set<const ContinuationClient*> ours;
  for (const auto& proxy : proxies_) {
    ours.insert(proxy.get());
  }
  std::vector<int32_t> missing;
  const laminar::ContinuationRegistry& registry = sim().continuations();
  for (int32_t comp : RegisteredComponents(registry)) {
    if (ours.count(registry.Find(comp)) == 0) {
      missing.push_back(comp);
    }
  }
  return missing;
}

void ProbedLaminar::SnapshotComponents(laminar::SnapshotTx& tx) {
  if (spans_ == nullptr) {
    LaminarSystem::SnapshotComponents(tx);
    return;
  }
  int layer = kLayerSnapshotWrite;
  if (tx.writing() && dispatches_at_snapshot_ < 0) {
    dispatches_at_snapshot_ = spans_->top_level_dispatches();
  }
  if (tx.mode() == laminar::SnapshotMode::kVerify) {
    layer = kLayerSnapshotVerify;
  } else if (tx.mode() == laminar::SnapshotMode::kAdopt) {
    layer = kLayerSnapshotAdopt;
  }
  int span = spans_->Open(layer);
  LaminarSystem::SnapshotComponents(tx);
  spans_->Close(span);
}

}  // namespace lambench
