#include "src/data/partial_response_pool.h"

#include <algorithm>
#include <utility>

#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"

namespace laminar {

bool PartialResponsePool::SetTerminal(TrajId id) {
  LAMINAR_CHECK_GE(id, 0);
  size_t idx = static_cast<size_t>(id);
  if (idx >= terminal_.size()) {
    terminal_.resize(idx + 1, 0);
  }
  if (terminal_[idx] != 0) {
    return false;
  }
  terminal_[idx] = 1;
  return true;
}

void PartialResponsePool::Erase(TrajId id) {
  if (Contains(id)) {
    EntityHandle& handle = index_[static_cast<size_t>(id)];
    table_.Remove(handle);
    handle = EntityHandle{};
  }
}

bool PartialResponsePool::Update(const TrajectoryWork& work, int owner_replica) {
  TrajId id = work.record.id;
  if (IsTerminal(id)) {
    ++stale_updates_;
    return false;
  }
  LAMINAR_CHECK(id >= 0 && !IsServingId(id))
      << "pool ids are dense training ids; got " << id;
  size_t idx = static_cast<size_t>(id);
  if (idx >= index_.size()) {
    index_.resize(idx + 1);
  }
  EntityHandle& handle = index_[idx];
  if (Entry* e = table_.Get(handle)) {
    e->work = work;
    e->owner_replica = owner_replica;
  } else {
    handle = table_.Insert({work, owner_replica});
  }
  ++updates_;
  return true;
}

bool PartialResponsePool::MarkCompleted(TrajId id) {
  Erase(id);
  if (!SetTerminal(id)) {
    ++duplicate_completions_;
    return false;
  }
  ++completed_;
  return true;
}

bool PartialResponsePool::MarkDropped(TrajId id) {
  Erase(id);
  if (!SetTerminal(id)) {
    return false;
  }
  ++dropped_;
  return true;
}

std::vector<TrajectoryWork> PartialResponsePool::TakeByReplica(int replica) {
  std::vector<TrajId> ids;
  table_.ForEach([&ids, replica](EntityHandle /*h*/, const Entry& entry) {
    if (entry.owner_replica == replica) {
      ids.push_back(entry.work.record.id);
    }
  });
  std::sort(ids.begin(), ids.end());
  std::vector<TrajectoryWork> out;
  out.reserve(ids.size());
  for (TrajId id : ids) {
    EntityHandle& handle = index_[static_cast<size_t>(id)];
    // The entry is leaving the pool either way, so move the payload out of
    // the slab instead of copying it.
    TrajectoryWork work = std::move(table_.Remove(handle).work);
    handle = EntityHandle{};
    work.kv_resident = false;
    // A checkpoint taken at a sandbox-call boundary (FinishSegment reports
    // progress before advancing the segment) has its current segment fully
    // decoded. The sandbox call outlives the dead replica, so resolve the
    // interaction the same way RolloutReplica::ExtractAllWork does: append
    // the feedback and resume at the next segment on the destination.
    if (!work.finished() && work.remaining_in_segment() == 0 &&
        work.segment_index + 1 < static_cast<int>(work.record.spec.num_segments())) {
      work.context_tokens += work.current_segment().feedback_tokens;
      work.segment_index += 1;
      work.decoded_in_segment = 0;
    }
    out.push_back(std::move(work));
  }
  return out;
}

int64_t PartialResponsePool::total_context_tokens() const {
  int64_t total = 0;
  table_.ForEach([&total](EntityHandle /*h*/, const Entry& entry) {
    total += entry.work.context_tokens;
  });
  return total;
}

void PartialResponsePool::Snapshot(SnapshotTx& tx) {
  tx.Begin("partial_pool");
  tx.I64("updates", &updates_);
  tx.I64("completed", &completed_);
  tx.I64("dropped", &dropped_);
  tx.I64("duplicate_completions", &duplicate_completions_);
  tx.I64("stale_updates", &stale_updates_);
  SnapshotPacked(
      tx, "terminal",
      [this](ByteSink& s) {
        s.U64(terminal_.size());
        s.Raw(terminal_.data(), terminal_.size());
      },
      [this](ByteSource& s) {
        terminal_.resize(static_cast<size_t>(s.U64()));
        s.Raw(terminal_.data(), terminal_.size());
      });
  // Every live entry in ascending TrajId — the order TakeByReplica recovers
  // work in. Slab handles are NOT serialized: they are reassigned on adopt
  // and never influence behavior or bytes.
  SnapshotPacked(
      tx, "entries",
      [this](ByteSink& s) {
        s.U64(table_.size());
        for (size_t id = 0; id < index_.size(); ++id) {
          const Entry* entry = table_.Get(index_[id]);
          if (entry == nullptr) {
            continue;
          }
          s.I64(static_cast<TrajId>(id));
          s.I32(entry->owner_replica);
          PackWork(s, entry->work);
        }
      },
      [this](ByteSource& s) {
        table_.Clear();
        index_.clear();
        size_t n = static_cast<size_t>(s.U64());
        table_.Reserve(n);
        TrajId prev = -1;
        for (size_t i = 0; i < n; ++i) {
          TrajId id = s.I64();
          LAMINAR_CHECK_GT(id, prev)
              << "partial_pool entries not in strictly ascending id order";
          LAMINAR_CHECK(!IsTerminal(id) && !IsServingId(id))
              << "partial_pool entry " << id << " is terminal or a serving id";
          prev = id;
          int owner = s.I32();
          TrajectoryWork work = UnpackWork(s);
          index_.resize(static_cast<size_t>(id) + 1);
          index_[static_cast<size_t>(id)] = table_.Insert({std::move(work), owner});
        }
      });
  tx.DigestU64("size", table_.size());
  tx.DigestI64("context_tokens", total_context_tokens());
  tx.End();
}

}  // namespace laminar
