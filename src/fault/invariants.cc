#include "src/fault/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {

InvariantChecker::InvariantChecker(Simulator* sim, InvariantCheckerConfig config)
    : sim_(sim), config_(config) {
  LAMINAR_CHECK(sim_ != nullptr);
}

void InvariantChecker::Report(const std::string& what) {
  std::ostringstream oss;
  oss << "t=" << sim_->Now().seconds() << "s: " << what;
  LAMINAR_CHECK(!config_.fail_fast) << "invariant violated at " << oss.str();
  ++violation_count_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kInvariant, "invariant/violation", -1,
                        violation_count_);
  if (violations_.size() < config_.max_recorded_violations) {
    violations_.push_back(oss.str());
  }
  LAMINAR_LOG(kWarning) << "invariant violated at " << oss.str();
}

void InvariantChecker::ObserveBufferPush(const TrajectoryRecord& record) {
  size_t idx = record.id >= 0 ? static_cast<size_t>(record.id) : 0;
  if (record.id >= 0 && idx >= pushed_.size()) {
    pushed_.resize(idx + 1, 0);
  }
  if (record.id < 0 || pushed_[idx] != 0) {
    std::ostringstream oss;
    oss << "duplicate experience-buffer entry for trajectory " << record.id;
    Report(oss.str());
  } else {
    pushed_[idx] = 1;
    ++pushes_;
  }
  if (record.inherent_staleness() < 0) {
    std::ostringstream oss;
    oss << "negative inherent staleness " << record.inherent_staleness()
        << " for trajectory " << record.id;
    Report(oss.str());
  }
  if (config_.max_inherent_staleness > 0 &&
      record.inherent_staleness() > config_.max_inherent_staleness) {
    std::ostringstream oss;
    oss << "inherent staleness " << record.inherent_staleness() << " of trajectory "
        << record.id << " exceeds bound " << config_.max_inherent_staleness;
    Report(oss.str());
  }
}

void InvariantChecker::CheckSweep() {
  ++checks_run_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kInvariant, "invariant/check", -1,
                        checks_run_, static_cast<double>(violation_count_));
  if (issued_fn_ && inflight_fn_ && pool_ != nullptr) {
    int64_t issued = issued_fn_();
    int64_t inflight = inflight_fn_();
    int64_t terminal = pool_->completed() + pool_->dropped();
    if (issued != inflight + terminal) {
      std::ostringstream oss;
      oss << "prompt ledger broken: issued=" << issued << " != inflight=" << inflight
          << " + completed=" << pool_->completed() << " + dropped=" << pool_->dropped();
      Report(oss.str());
    }
  }
  if (pool_ != nullptr) {
    held_.clear();
    for (const RolloutReplica* r : replicas_) {
      r->AppendHeldIds(&held_);
    }
    if (manager_ != nullptr) {
      manager_->AppendHeldIds(&held_);
    }
    auto serving = std::partition(held_.begin(), held_.end(),
                                  [](TrajId id) { return !IsServingId(id); });
    CheckHolders("trajectory", *pool_, 0, held_.begin(), serving);
    if (serving_pool_ != nullptr) {
      CheckHolders("serving", *serving_pool_, kServingIdBase, serving, held_.end());
    }
  }
  for (const RolloutReplica* r : replicas_) {
    double accounted = r->kv_used_tokens();
    double resident = r->ResidentKvTokens();
    if (std::abs(accounted - resident) > config_.kv_epsilon_tokens) {
      std::ostringstream oss;
      oss << "KV token leak on replica " << r->config().id << ": accounted="
          << accounted << " resident=" << resident;
      Report(oss.str());
    }
    // The decode epoch's incremental batch context against the same sum
    // over materialized sequences: O(batch) here, once per sweep.
    int64_t incremental = r->decode_context_tokens();
    int64_t materialized = r->MaterializedDecodeContext();
    if (incremental != materialized) {
      std::ostringstream oss;
      oss << "decode context drift on replica " << r->config().id
          << ": incremental=" << incremental << " materialized=" << materialized;
      Report(oss.str());
    }
  }
  if (serving_fn_) {
    // Admitted-request conservation: every arrival is in exactly one of the
    // six states. (The KV check above doubles as the serving/rollout
    // no-double-count audit — resident serving tokens are charged to the
    // same per-replica accounting rollout work uses.)
    ServingStats c = serving_fn_();
    int64_t accounted = c.rejected + c.queued_now + c.resident_now + c.completed +
                        c.timed_out + c.failed;
    if (c.requests != accounted) {
      std::ostringstream oss;
      oss << "serving request leak: requests=" << c.requests
          << " != rejected=" << c.rejected << " + queued=" << c.queued_now
          << " + resident=" << c.resident_now << " + completed=" << c.completed
          << " + timed_out=" << c.timed_out << " + failed=" << c.failed;
      Report(oss.str());
    }
    if (c.deadline_hits + c.deadline_misses != c.completed) {
      std::ostringstream oss;
      oss << "serving deadline bookkeeping broken: hits=" << c.deadline_hits
          << " + misses=" << c.deadline_misses << " != completed=" << c.completed;
      Report(oss.str());
    }
    if (c.queued_now < 0 || c.resident_now < 0) {
      std::ostringstream oss;
      oss << "negative serving queue depth: queued=" << c.queued_now
          << " resident=" << c.resident_now;
      Report(oss.str());
    }
  }
}

void InvariantChecker::CheckHolders(const char* store, const PartialResponsePool& pool,
                                    TrajId base, std::vector<TrajId>::iterator begin,
                                    std::vector<TrajId>::iterator end) {
  // Count holders per id in a dense scratch vector (one byte per id, like the
  // store's tombstones), then report and reset only the touched bytes, so a
  // sweep costs O(held).
  size_t held_live = 0;
  for (auto it = begin; it != end; ++it) {
    size_t idx = static_cast<size_t>(*it - base);
    if (idx >= holder_counts_.size()) {
      holder_counts_.resize(idx + 1, 0);
    }
    uint8_t& count = holder_counts_[idx];
    if (count == 0 && pool.Contains(*it)) {
      ++held_live;
    }
    count = static_cast<uint8_t>(std::min(count + 1, 255));
  }
  for (auto it = begin; it != end; ++it) {
    uint8_t& count = holder_counts_[static_cast<size_t>(*it - base)];
    if (count == 0) {
      continue;  // already reported and reset
    }
    if (count > 1) {
      std::ostringstream oss;
      oss << "single-holder violation: trajectory " << *it << " has "
          << static_cast<int>(count) << " holders";
      Report(oss.str());
    }
    if (!pool.Contains(*it)) {
      std::ostringstream oss;
      oss << "single-holder violation: trajectory " << *it << " is held but not live in the "
          << store << " store";
      Report(oss.str());
    }
    count = 0;
  }
  if (held_live != pool.size()) {
    std::ostringstream oss;
    oss << "single-holder violation: " << store << " store has " << pool.size()
        << " live entries but " << held_live << " held";
    Report(oss.str());
  }
}

void InvariantChecker::CheckFinal() {
  CheckSweep();
  if (pool_ != nullptr) {
    // Every completion observed by the pool must have produced exactly one
    // buffer push (duplicates were suppressed before pushing).
    if (buffer_pushes() != pool_->completed()) {
      std::ostringstream oss;
      oss << "completion/push mismatch: " << pool_->completed()
          << " completions vs " << buffer_pushes() << " buffer pushes";
      Report(oss.str());
    }
  }
}

void InvariantChecker::Snapshot(SnapshotTx& tx) {
  tx.Begin("invariants");
  tx.I64As("pushes", &pushes_);
  tx.I64As("checks_run", &checks_run_);
  tx.I64As("violation_count", &violation_count_);
  tx.I64As("faults_injected", &faults_injected_);
  SnapshotPacked(
      tx, "state",
      [this](ByteSink& s) {
        s.U64(pushed_.size());
        for (uint8_t b : pushed_) {
          s.U8(b);
        }
        s.U64(violations_.size());
        for (const std::string& v : violations_) {
          s.Str(v);
        }
      },
      [this](ByteSource& s) {
        pushed_.resize(static_cast<size_t>(s.U64()));
        for (uint8_t& b : pushed_) {
          b = s.U8();
        }
        violations_.resize(static_cast<size_t>(s.U64()));
        for (std::string& v : violations_) {
          v = s.Str();
        }
      });
  tx.End();
}

bool ThroughputRecovered(const TimeSeries& series, SimTime fault_start,
                         SimTime recovered_by, double window_seconds, double ratio) {
  double baseline =
      series.MeanInWindow(fault_start - window_seconds, fault_start);
  if (baseline <= 0.0) {
    return true;
  }
  double after =
      series.MeanInWindow(recovered_by, recovered_by + window_seconds);
  return after >= ratio * baseline;
}

}  // namespace laminar
