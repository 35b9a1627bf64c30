// Partial-response pool: central, CPU-resident store of in-progress
// trajectory state (paper §3.1, step 2 of the workflow).
//
// Rollouts stream progress here so that a machine failure loses no work: the
// rollout manager redirects the interrupted TrajectoryWork items to healthy
// replicas, which re-prefill the saved context and continue decoding.
//
// The pool is also the system's exactly-once ledger for trajectory outcomes:
// every trajectory ends terminal exactly once — completed (MarkCompleted) or
// explicitly dropped (MarkDropped) — and terminal ids are tombstoned so a
// late Update from a stale owner (e.g. a drained gray-failure replica racing
// its migrated clone) can never resurrect the entry, and a duplicate
// completion is suppressed rather than double-counted.
//
// Layout (DESIGN.md §11): the heavy TrajectoryWork payloads live in a
// generation-tagged slab (EntityTable); the id index (TrajId -> slab handle)
// and the terminal tombstones are dense vectors indexed by TrajId, since
// trajectory ids are issued sequentially from 0.
//
// Recovery order is one explicit rule: TakeByReplica returns work in
// ascending TrajId. That order feeds the manager's round-robin redirect
// sharding and therefore the simulation's event sequence; it depends only on
// which ids are live, never on slab layout, so a direct-boot restore
// recovers work in the same order the uninterrupted run would have.
#ifndef LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
#define LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/entity_table.h"
#include "src/data/trajectory.h"

namespace laminar {

class SnapshotTx;

class PartialResponsePool {
 public:
  // Records/overwrites the saved state for a trajectory. `owner_replica`
  // identifies which replica currently generates it (a re-Update by a new
  // owner after migration simply moves ownership). Returns false — and
  // changes nothing — if the trajectory is already terminal (stale update).
  // Serving ids (IsServingId) are never checkpointed and are rejected.
  bool Update(const TrajectoryWork& work, int owner_replica);

  // Marks a trajectory terminal-completed and erases its saved state.
  // Returns true the first time; false for a duplicate completion (the
  // caller should suppress the duplicate's side effects).
  bool MarkCompleted(TrajId id);
  // Marks a trajectory terminal-dropped (explicitly abandoned, e.g. work
  // that died with a machine before ever being checkpointed). Returns true
  // the first time; false if the trajectory was already terminal.
  bool MarkDropped(TrajId id);

  // All in-progress work owned by `replica`, e.g. everything lost when its
  // machine dies. The returned items have kv_resident=false (the cache died
  // with the machine), in ascending TrajId.
  std::vector<TrajectoryWork> TakeByReplica(int replica);

  bool Contains(TrajId id) const {
    return id >= 0 && static_cast<size_t>(id) < index_.size() &&
           index_[static_cast<size_t>(id)].valid();
  }
  bool IsTerminal(TrajId id) const {
    return id >= 0 && static_cast<size_t>(id) < terminal_.size() &&
           terminal_[static_cast<size_t>(id)] != 0;
  }
  size_t size() const { return table_.size(); }
  int64_t updates() const { return updates_; }
  int64_t completed() const { return completed_; }
  int64_t dropped() const { return dropped_; }
  int64_t duplicate_completions() const { return duplicate_completions_; }
  int64_t stale_updates() const { return stale_updates_; }
  // Total context tokens held (a proxy for the pool's memory footprint).
  int64_t total_context_tokens() const;

  // Snapshot (src/snapshot, DESIGN.md §13): counters, the terminal bitmap,
  // and every live entry — id, owner and full work payload — in ascending
  // TrajId. Adopt rejects an entries record that is not strictly ascending
  // or that names a terminal id.
  void Snapshot(SnapshotTx& tx);

 private:
  struct Entry {
    TrajectoryWork work;
    int owner_replica = -1;
  };

  // Returns false if `id` was already terminal (the first call wins).
  bool SetTerminal(TrajId id);
  // Frees `id`'s live entry, if any.
  void Erase(TrajId id);

  EntityTable<Entry> table_;
  std::vector<EntityHandle> index_;  // slab handle, indexed by TrajId; invalid = absent
  std::vector<uint8_t> terminal_;  // tombstone bitmap, indexed by TrajId
  int64_t updates_ = 0;
  int64_t completed_ = 0;
  int64_t dropped_ = 0;
  int64_t duplicate_completions_ = 0;
  int64_t stale_updates_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
