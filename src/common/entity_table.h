// Generation-tagged dense-ID entity table (DESIGN.md §11).
//
// Generalizes the simulator's event-slab pattern (src/sim/simulator.h): live
// entities sit in fixed-size chunks of slots, freed slots go on a LIFO free
// list, and every handle carries the slot's generation so a stale handle —
// one that outlived a Remove() — is detected instead of silently aliasing
// the slot's next tenant. Insert/Get/Remove are O(1) with no per-entity
// allocation; this is what replaces the node-based maps on the rollout and
// data-pool hot paths. Chunks never move, so growing the table never
// relocates the entities already in it (the trajectory store holds tens of
// thousands of records).
//
// Iteration (ForEach) visits live slots in slot order, which is NOT
// insertion order once slots have been reused. Callers that need a
// deterministic traversal order must impose one themselves (a sequence
// stamp, or a sort on a stable key — see PartialResponsePool::TakeByReplica).
#ifndef LAMINAR_SRC_COMMON_ENTITY_TABLE_H_
#define LAMINAR_SRC_COMMON_ENTITY_TABLE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace laminar {

// Opaque handle: (generation << 32) | slot. Generations start at 1, so the
// zero-initialized handle is never valid.
struct EntityHandle {
  uint64_t bits = 0;

  bool valid() const { return bits != 0; }
  uint32_t slot() const { return static_cast<uint32_t>(bits); }
  uint32_t generation() const { return static_cast<uint32_t>(bits >> 32); }
  friend bool operator==(const EntityHandle&, const EntityHandle&) = default;

  static EntityHandle Pack(uint32_t slot, uint32_t generation) {
    return EntityHandle{(static_cast<uint64_t>(generation) << 32) | slot};
  }
};

// T must be movable and default-constructible (the default-constructed value
// is what a freed slot holds, so removed entities release their resources).
template <typename T>
class EntityTable {
 public:
  EntityHandle Insert(T value) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = num_slots_++;
      if ((slot & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      }
    }
    Slot& s = At(slot);
    s.value = std::move(value);
    s.live = true;
    ++live_;
    return EntityHandle::Pack(slot, s.generation);
  }

  // nullptr when the handle is invalid, freed, or from a previous tenant of
  // the slot (stale generation).
  T* Get(EntityHandle h) {
    if (!h.valid() || h.slot() >= num_slots_) {
      return nullptr;
    }
    Slot& s = At(h.slot());
    if (!s.live || s.generation != h.generation()) {
      return nullptr;
    }
    return &s.value;
  }
  const T* Get(EntityHandle h) const {
    return const_cast<EntityTable*>(this)->Get(h);
  }

  bool Contains(EntityHandle h) const { return Get(h) != nullptr; }

  // Moves the entity out, frees the slot, and bumps its generation so every
  // outstanding handle to it goes stale.
  T Remove(EntityHandle h) {
    T* value = Get(h);
    LAMINAR_CHECK(value != nullptr) << "stale or invalid entity handle";
    T out = std::move(*value);
    Slot& s = At(h.slot());
    s.value = T{};
    s.live = false;
    BumpGeneration(s);
    --live_;
    free_.push_back(h.slot());
    return out;
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // Slot-order traversal of live entities. fn(EntityHandle, T&).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      Slot& s = At(slot);
      if (s.live) {
        fn(EntityHandle::Pack(slot, s.generation), s.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      const Slot& s = At(slot);
      if (s.live) {
        fn(EntityHandle::Pack(slot, s.generation), s.value);
      }
    }
  }

  // Frees every live slot (generations keep advancing, so old handles stay
  // stale). Keeps the slab capacity.
  void Clear() {
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      Slot& s = At(slot);
      if (s.live) {
        s.value = T{};
        s.live = false;
        BumpGeneration(s);
        free_.push_back(slot);
      }
    }
    live_ = 0;
  }

  void Reserve(size_t n) {
    chunks_.reserve((n + kChunkMask) / kChunkSlots);
    free_.reserve(n);
  }

  // Test seam: pins a slot's generation so the 2^32 wrap is reachable
  // without four billion Remove() calls. The slot must exist.
  void SetSlotGenerationForTest(uint32_t slot, uint32_t generation) {
    LAMINAR_CHECK_LT(slot, num_slots_);
    At(slot).generation = generation;
  }
  uint32_t SlotGenerationForTest(uint32_t slot) const {
    LAMINAR_CHECK_LT(slot, num_slots_);
    return At(slot).generation;
  }

 private:
  // The generation check and the head of the entity share a cache line.
  struct Slot {
    uint32_t generation = 1;
    bool live = false;
    T value{};
  };
  static constexpr uint32_t kChunkSlots = 64;
  static constexpr uint32_t kChunkMask = kChunkSlots - 1;

  Slot& At(uint32_t slot) { return chunks_[slot / kChunkSlots][slot & kChunkMask]; }
  const Slot& At(uint32_t slot) const {
    return chunks_[slot / kChunkSlots][slot & kChunkMask];
  }

  // Generations live in 32 bits and wrap under sustained slot reuse. Skip 0
  // on wrap: generation 0 on slot 0 would pack to the all-zero bit pattern,
  // which EntityHandle reserves as "never valid" — a live entity there would
  // be unreachable through its own handle.
  static void BumpGeneration(Slot& s) {
    if (++s.generation == 0) {
      s.generation = 1;
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t num_slots_ = 0;      // slots handed out so far; the last chunk may be partial
  std::vector<uint32_t> free_;  // LIFO: most-recently-freed slot reused first
  size_t live_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_COMMON_ENTITY_TABLE_H_
