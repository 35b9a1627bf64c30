#include "src/data/partial_response_pool.h"

#include <algorithm>
#include <utility>

#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"

namespace laminar {

bool PartialResponsePool::Retire(TrajId id, TrajectoryRecord* out) {
  LAMINAR_CHECK(InRange(id)) << "trajectory " << id << " outside the pool's id range";
  size_t idx = static_cast<size_t>(id - id_base_);
  if (idx >= terminal_.size()) {
    terminal_.resize(idx + 1, 0);
  }
  if (terminal_[idx] != 0) {
    return false;
  }
  terminal_[idx] = 1;
  if (Contains(id)) {
    Entry entry = table_.Remove(index_[idx]);
    index_[idx] = EntityHandle{};
    if (out != nullptr) {
      *out = std::move(entry.record);
    }
  }
  return true;
}

TrajectoryCursor PartialResponsePool::Issue(TrajectoryRecord record) {
  TrajId id = record.id;
  LAMINAR_CHECK(InRange(id) && !Contains(id) && !IsTerminal(id))
      << "trajectory " << id << " issued twice or outside the pool's id range";
  TrajectoryCursor cursor = TrajectoryCursor::Start(record);
  size_t idx = static_cast<size_t>(id - id_base_);
  if (idx >= index_.size()) {
    index_.resize(idx + 1);
  }
  index_[idx] = table_.Insert(Entry{std::move(record), {}, -1, 0, false});
  return cursor;
}

bool PartialResponsePool::Update(const TrajectoryCursor& cursor, int owner_replica) {
  // Terminal ids have no live record: the tombstone is read only on a miss.
  Entry* e = table_.Get(HandleOf(cursor.id));
  if (e == nullptr) {
    LAMINAR_CHECK(IsTerminal(cursor.id))
        << "checkpoint of trajectory " << cursor.id << ", which was never issued";
    ++stale_updates_;
    return false;
  }
  e->checkpoint = cursor;
  e->owner_replica = owner_replica;
  e->checkpoint_versions = static_cast<uint32_t>(e->record.weight_versions.size());
  e->checkpointed = true;
  ++updates_;
  return true;
}

bool PartialResponsePool::MarkCompleted(TrajId id, TrajectoryRecord* out) {
  bool first = Retire(id, out);
  ++(first ? completed_ : duplicate_completions_);
  return first;
}

bool PartialResponsePool::MarkDropped(TrajId id) {
  bool first = Retire(id, nullptr);
  dropped_ += first ? 1 : 0;
  return first;
}

std::vector<TrajectoryCursor> PartialResponsePool::TakeByReplica(int replica) {
  std::vector<Entry*> owned;
  table_.ForEach([&owned, replica](EntityHandle /*h*/, Entry& entry) {
    if (entry.checkpointed && entry.owner_replica == replica) {
      owned.push_back(&entry);
    }
  });
  std::sort(owned.begin(), owned.end(),
            [](const Entry* a, const Entry* b) { return a->record.id < b->record.id; });
  std::vector<TrajectoryCursor> out;
  out.reserve(owned.size());
  for (Entry* e : owned) {
    e->checkpointed = false;
    e->record.weight_versions.resize(e->checkpoint_versions);
    TrajectoryCursor cursor = e->checkpoint;
    cursor.kv_resident = false;
    // A checkpoint taken at a sandbox-call boundary (FinishSegment reports
    // progress before advancing the segment) has its current segment fully
    // decoded. The sandbox call outlives the dead replica, so resolve the
    // interaction the same way RolloutReplica::ExtractAllWork does: append
    // the feedback and resume at the next segment on the destination.
    const TrajectorySpec& spec = e->record.spec;
    if (!cursor.finished(spec) && cursor.remaining_in_segment(spec) == 0 &&
        cursor.segment_index + 1 < static_cast<int>(spec.num_segments())) {
      cursor.ResolveEnvCall(spec);
    }
    out.push_back(cursor);
  }
  return out;
}

int64_t PartialResponsePool::total_context_tokens() const {
  int64_t total = 0;
  table_.ForEach([&total](EntityHandle /*h*/, const Entry& entry) {
    if (entry.checkpointed) {
      total += entry.checkpoint.context_tokens;
    }
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
  // Every live record in ascending TrajId, each followed by its checkpoint
  // (if any). Slab handles are NOT serialized: they are reassigned on adopt
  // and never influence behavior or bytes.
  SnapshotPacked(
      tx, "entries",
      [this](ByteSink& s) {
        s.U64(table_.size());
        for (size_t idx = 0; idx < index_.size(); ++idx) {
          const Entry* entry = table_.Get(index_[idx]);
          if (entry == nullptr) {
            continue;
          }
          PackRecord(s, entry->record);
          s.Bool(entry->checkpointed);
          if (entry->checkpointed) {
            s.I32(entry->owner_replica);
            s.U64(entry->checkpoint_versions);
            PackCursor(s, entry->checkpoint);
          }
        }
      },
      [this](ByteSource& s) {
        table_.Clear();
        index_.clear();
        size_t n = static_cast<size_t>(s.U64());
        table_.Reserve(n);
        TrajId prev = id_base_ - 1;
        for (size_t i = 0; i < n; ++i) {
          TrajectoryRecord record = UnpackRecord(s);
          TrajId id = record.id;
          LAMINAR_CHECK_GT(id, prev)
              << "partial_pool entries not in strictly ascending id order";
          LAMINAR_CHECK(InRange(id) && !IsTerminal(id))
              << "partial_pool entry " << id << " is terminal or out of range";
          prev = id;
          Issue(std::move(record));
          Entry& entry = Live(id);
          entry.checkpointed = s.Bool();
          if (entry.checkpointed) {
            entry.owner_replica = s.I32();
            entry.checkpoint_versions = static_cast<uint32_t>(s.U64());
            entry.checkpoint = UnpackCursor(s);
          }
        }
      });
  tx.DigestU64("size", table_.size());
  tx.DigestI64("context_tokens", total_context_tokens());
  tx.End();
}

}  // namespace laminar
