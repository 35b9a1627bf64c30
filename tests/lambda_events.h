// Lambda scheduling for tests and benches. The simulator stores only
// continuation descriptors, so code that wants "run this code at t" registers
// one LambdaEvents client: it keeps every scheduled body in a vector and
// schedules a descriptor whose payload `a` indexes it. Lambda events are not
// plain data, so a snapshot holding one cannot be restored.
#ifndef LAMINAR_TESTS_LAMBDA_EVENTS_H_
#define LAMINAR_TESTS_LAMBDA_EVENTS_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/continuation.h"
#include "src/sim/simulator.h"

namespace laminar {

class LambdaEvents : public ContinuationClient {
 public:
  explicit LambdaEvents(Simulator* sim) : sim_(sim) {
    sim_->continuations().Register(kComp, this);
  }
  ~LambdaEvents() override { sim_->continuations().Unregister(kComp); }
  LambdaEvents(const LambdaEvents&) = delete;
  LambdaEvents& operator=(const LambdaEvents&) = delete;

  EventId At(SimTime t, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return sim_->ScheduleContinuationAt(t, kComp, kLambda, Index(fns_.size() - 1));
  }
  EventId After(double delay, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return sim_->ScheduleContinuationAfter(delay, kComp, kLambda, Index(fns_.size() - 1));
  }

  // A PeriodicTask, owned here, whose ticks dispatch through this client.
  PeriodicTask& Periodic(double period, std::function<void()> fn) {
    tasks_.push_back(std::make_unique<PeriodicTask>(
        sim_, period, kComp, static_cast<uint16_t>(kPeriodicBase + tasks_.size()),
        std::move(fn)));
    return *tasks_.back();
  }

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    if (kind >= kPeriodicBase) {
      tasks_[kind - kPeriodicBase]->Fire();
      return;
    }
    // Run from a local: the body may schedule more lambdas (growing fns_).
    // Put it back afterwards, since the event may have re-armed itself.
    size_t i = static_cast<size_t>(p.a);
    std::function<void()> fn = std::move(fns_[i]);
    fn();
    fns_[i] = std::move(fn);
  }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {
    LAMINAR_CHECK(false) << "a test lambda event cannot be restored from a snapshot";
  }

 private:
  // An unused instance of the system family (drivers take instance 0).
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem, 100);
  static constexpr uint16_t kLambda = 0;
  static constexpr uint16_t kPeriodicBase = 1;

  static ContinuationPayload Index(size_t i) {
    return ContinuationPayload::Of(static_cast<int64_t>(i));
  }

  Simulator* sim_;
  std::vector<std::function<void()>> fns_;
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;
};

}  // namespace laminar

#endif  // LAMINAR_TESTS_LAMBDA_EVENTS_H_
