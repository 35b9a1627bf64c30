// Partial-response pool: the one central, CPU-resident store of in-flight
// trajectories (paper §3.1). Every record lives here from issue until it is
// terminal; replicas and the manager carry cursors (DESIGN.md §11). Rollouts
// stream checkpoints here (a cursor plus owner written into the record's
// slot), so a machine failure loses no work: the manager takes the dead
// replica's checkpoints back and redirects them to healthy replicas.
//
// It is also the exactly-once ledger: every trajectory ends terminal once,
// completed (MarkCompleted moves the record out) or dropped, and terminal
// ids are tombstoned so a stale checkpoint cannot resurrect an entry and a
// duplicate completion is suppressed.
//
// Records live in an EntityTable slab (O(in flight)); the id index and the
// tombstones are dense vectors indexed by TrajId - id_base (training ids from
// 0, serving requests in a second pool from kServingIdBase).
//
// Recovery order is one rule: TakeByReplica returns cursors in ascending
// TrajId. It feeds the manager's round-robin redirect sharding, hence the
// event sequence, and depends only on which ids are checkpointed, never on
// slab layout, so a direct-boot restore recovers in the same order.
#ifndef LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
#define LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/entity_table.h"
#include "src/common/logging.h"
#include "src/data/trajectory.h"

namespace laminar {

class SnapshotTx;

class PartialResponsePool {
 public:
  explicit PartialResponsePool(TrajId id_base = 0) : id_base_(id_base) {}

  // Takes ownership of a freshly issued record and returns its start cursor.
  TrajectoryCursor Issue(TrajectoryRecord record);
  // The live record of an issued, non-terminal id (CHECK-fails otherwise).
  TrajectoryRecord& record(TrajId id) { return Live(id).record; }

  // Checkpoints `cursor` as owned by `owner_replica` with the record's
  // weight_versions length (append-only, so recovery truncates back to it).
  // Returns false, changing nothing, for a terminal id (stale update).
  bool Update(const TrajectoryCursor& cursor, int owner_replica);
  // Moves an existing checkpoint to `owner_replica` at `cursor`'s progress;
  // a no-op for a trajectory with none.
  void Rehome(const TrajectoryCursor& cursor, int owner_replica) {
    if (Checkpointed(cursor.id)) {
      Update(cursor, owner_replica);
    }
  }
  // Marks a trajectory terminal-completed, moves its record into `*out`
  // (when non-null) and frees the slot. Returns true the first time; false
  // for a duplicate completion (the caller suppresses its side effects).
  bool MarkCompleted(TrajId id, TrajectoryRecord* out = nullptr);
  // Marks a trajectory terminal-dropped (e.g. queued work that died with a
  // machine) and frees its record. Returns false if already terminal.
  bool MarkDropped(TrajId id);

  // Takes back every checkpoint owned by `replica` (everything lost when
  // its machine dies) in ascending TrajId; the records stay, truncated to
  // their checkpointed versions, and the cursors have kv_resident=false.
  std::vector<TrajectoryCursor> TakeByReplica(int replica);

  // Issued and not yet terminal.
  bool Contains(TrajId id) const { return table_.Contains(HandleOf(id)); }
  bool Checkpointed(TrajId id) const {
    const Entry* e = table_.Get(HandleOf(id));
    return e != nullptr && e->checkpointed;
  }
  bool IsTerminal(TrajId id) const {
    size_t idx = static_cast<size_t>(id - id_base_);
    return id >= id_base_ && idx < terminal_.size() && terminal_[idx] != 0;
  }
  size_t size() const { return table_.size(); }  // live records
  int64_t updates() const { return updates_; }
  int64_t completed() const { return completed_; }
  int64_t dropped() const { return dropped_; }
  int64_t duplicate_completions() const { return duplicate_completions_; }
  int64_t stale_updates() const { return stale_updates_; }
  // Context tokens held by checkpoints (a proxy for recoverable progress).
  int64_t total_context_tokens() const;

  // Snapshot (DESIGN.md §13): counters, the terminal bitmap and every live
  // record with its checkpoint, in ascending TrajId. Adopt rejects entries
  // that are not strictly ascending, terminal or out of the id range.
  void Snapshot(SnapshotTx& tx);

 private:
  struct Entry {
    TrajectoryRecord record;
    TrajectoryCursor checkpoint;
    int owner_replica = -1;
    uint32_t checkpoint_versions = 0;  // weight_versions length at checkpoint
    bool checkpointed = false;
  };

  bool InRange(TrajId id) const { return id >= id_base_ && id - id_base_ < kServingIdBase; }
  EntityHandle HandleOf(TrajId id) const {
    size_t idx = static_cast<size_t>(id - id_base_);
    return id >= id_base_ && idx < index_.size() ? index_[idx] : EntityHandle{};
  }
  Entry& Live(TrajId id) {
    Entry* e = table_.Get(HandleOf(id));
    LAMINAR_CHECK(e != nullptr) << "trajectory " << id << " is not live in the store";
    return *e;
  }
  // Tombstones `id` and frees its live record, if any, into `*out` (when
  // non-null). Returns false if `id` was already terminal.
  bool Retire(TrajId id, TrajectoryRecord* out);

  TrajId id_base_;
  EntityTable<Entry> table_;
  std::vector<EntityHandle> index_;  // slab handle by id - id_base; invalid = not live
  std::vector<uint8_t> terminal_;  // tombstone bitmap by id - id_base
  int64_t updates_ = 0;
  int64_t completed_ = 0;
  int64_t dropped_ = 0;
  int64_t duplicate_completions_ = 0;
  int64_t stale_updates_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
