// Unit coverage for the generation-tagged slab (DESIGN.md §11): handle
// validity, stale-generation rejection, free-list slot reuse, chunked
// growth, and iteration stability under interleaved insert/remove.
#include "src/common/entity_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace laminar {
namespace {

TEST(EntityTableTest, InsertGetRemoveRoundTrip) {
  EntityTable<int> table;
  EXPECT_TRUE(table.empty());
  EntityHandle h = table.Insert(41);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Get(h), nullptr);
  EXPECT_EQ(*table.Get(h), 41);
  *table.Get(h) = 42;
  EXPECT_EQ(table.Remove(h), 42);
  EXPECT_TRUE(table.empty());
}

// Slots live in fixed-size chunks that never move: growing the table past
// many chunk boundaries leaves earlier entities where they were, and
// iteration still visits every live slot in slot order.
TEST(EntityTableTest, GrowthAcrossChunksKeepsEntitiesInPlace) {
  EntityTable<int> table;
  EntityHandle first = table.Insert(0);
  const int* first_addr = table.Get(first);
  std::vector<EntityHandle> handles = {first};
  for (int i = 1; i < 300; ++i) {
    handles.push_back(table.Insert(i));
  }
  EXPECT_EQ(table.Get(first), first_addr);
  for (int i = 0; i < 300; i += 3) {
    EXPECT_EQ(table.Remove(handles[static_cast<size_t>(i)]), i);
  }
  std::vector<int> seen;
  table.ForEach([&seen](EntityHandle h, int& v) {
    EXPECT_EQ(h.slot(), static_cast<uint32_t>(v));
    seen.push_back(v);
  });
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_EQ(seen.front(), 1);
  EXPECT_EQ(seen.back(), 299);
  EXPECT_EQ(*table.Get(handles[130]), 130);
}

TEST(EntityTableTest, ZeroHandleIsInvalid) {
  EntityHandle none;
  EXPECT_FALSE(none.valid());
  EntityTable<int> table;
  EXPECT_EQ(table.Get(none), nullptr);
  EXPECT_FALSE(table.Contains(none));
}

TEST(EntityTableTest, StaleGenerationAccessReturnsNull) {
  EntityTable<std::string> table;
  EntityHandle h = table.Insert("alpha");
  table.Remove(h);
  // The handle's slot is free: lookups through the old handle must miss.
  EXPECT_EQ(table.Get(h), nullptr);
  EXPECT_FALSE(table.Contains(h));
  // The slot is reused by the next insert with a bumped generation; the old
  // handle still must not alias the new occupant.
  EntityHandle fresh = table.Insert("beta");
  EXPECT_EQ(fresh.slot(), h.slot());
  EXPECT_NE(fresh.generation(), h.generation());
  EXPECT_EQ(table.Get(h), nullptr);
  ASSERT_NE(table.Get(fresh), nullptr);
  EXPECT_EQ(*table.Get(fresh), "beta");
}

TEST(EntityTableTest, FreeListReusesMostRecentlyFreedSlot) {
  EntityTable<int> table;
  EntityHandle a = table.Insert(1);
  EntityHandle b = table.Insert(2);
  EntityHandle c = table.Insert(3);
  table.Remove(a);
  table.Remove(c);
  // LIFO free list: c's slot is handed out first, then a's; only afterwards
  // does the slab grow again.
  EntityHandle r1 = table.Insert(30);
  EntityHandle r2 = table.Insert(10);
  EntityHandle r3 = table.Insert(99);
  EXPECT_EQ(r1.slot(), c.slot());
  EXPECT_EQ(r2.slot(), a.slot());
  EXPECT_GT(r3.slot(), b.slot());
  EXPECT_EQ(table.size(), 4u);
}

TEST(EntityTableTest, ForEachVisitsLiveEntriesInSlotOrder) {
  EntityTable<int> table;
  std::vector<EntityHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(table.Insert(i * 10));
  }
  table.Remove(handles[1]);
  table.Remove(handles[4]);
  std::vector<int> seen;
  table.ForEach([&seen](EntityHandle /*h*/, int& value) { seen.push_back(value); });
  EXPECT_EQ(seen, (std::vector<int>{0, 20, 30, 50}));
  // Iteration is slot-ordered, so reusing a freed slot changes WHERE the new
  // entry appears, not whether it appears exactly once.
  table.Insert(777);  // takes slot 4 (LIFO)
  seen.clear();
  table.ForEach([&seen](EntityHandle /*h*/, int& value) { seen.push_back(value); });
  EXPECT_EQ(seen, (std::vector<int>{0, 20, 30, 777, 50}));
}

TEST(EntityTableTest, IterationStableUnderRemovalDuringForEach) {
  // Collect handles first, then remove outside the loop — the pattern the
  // replica/pool code uses. ForEach itself must hand out handles that stay
  // valid for exactly the live entries.
  EntityTable<int> table;
  for (int i = 0; i < 8; ++i) {
    table.Insert(i);
  }
  std::vector<EntityHandle> evens;
  table.ForEach([&evens](EntityHandle h, int& value) {
    if (value % 2 == 0) {
      evens.push_back(h);
    }
  });
  for (EntityHandle h : evens) {
    table.Remove(h);
  }
  EXPECT_EQ(table.size(), 4u);
  std::vector<int> rest;
  table.ForEach([&rest](EntityHandle /*h*/, int& value) { rest.push_back(value); });
  EXPECT_EQ(rest, (std::vector<int>{1, 3, 5, 7}));
}

TEST(EntityTableTest, ClearFreesEverythingAndInvalidatesHandles) {
  EntityTable<int> table;
  EntityHandle a = table.Insert(1);
  EntityHandle b = table.Insert(2);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Get(a), nullptr);
  EXPECT_EQ(table.Get(b), nullptr);
  // The table stays usable after Clear.
  EntityHandle c = table.Insert(3);
  ASSERT_NE(table.Get(c), nullptr);
  EXPECT_EQ(*table.Get(c), 3);
}

TEST(EntityTableTest, GenerationWrapSkipsZeroOnSlotZero) {
  // Slot 0 at generation 0 would pack to the all-zero bit pattern, which is
  // the reserved "never valid" handle. Pin the generation to the 2^32 edge
  // and drive one more bump: the wrap must land on 1, not 0.
  EntityTable<int> table;
  EntityHandle h = table.Insert(7);
  ASSERT_EQ(h.slot(), 0u);
  table.SetSlotGenerationForTest(0, 0xFFFFFFFFu);
  EntityHandle edge = EntityHandle::Pack(0, 0xFFFFFFFFu);
  // A handle minted at the pinned generation still resolves...
  ASSERT_NE(table.Get(edge), nullptr);
  EXPECT_EQ(*table.Get(edge), 7);
  // ...and Remove() wraps the generation past zero.
  table.Remove(edge);
  EXPECT_EQ(table.SlotGenerationForTest(0), 1u);
  // The slot's next tenant gets a handle that is valid and distinguishable
  // from both the pre-wrap tenant and the reserved zero handle.
  EntityHandle fresh = table.Insert(8);
  EXPECT_EQ(fresh.slot(), 0u);
  EXPECT_EQ(fresh.generation(), 1u);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(table.Get(edge), nullptr);
  ASSERT_NE(table.Get(fresh), nullptr);
  EXPECT_EQ(*table.Get(fresh), 8);
}

TEST(EntityTableTest, GenerationWrapOnNonZeroSlotAlsoSkipsZero) {
  // Nothing in a non-zero slot packs to the reserved handle, but skipping 0
  // uniformly keeps "generation is never 0" a table-wide invariant (and the
  // wrapped-to-1 handle distinct from a 2^32-generations-stale one).
  EntityTable<int> table;
  table.Insert(1);  // slot 0
  EntityHandle h = table.Insert(2);
  ASSERT_EQ(h.slot(), 1u);
  table.SetSlotGenerationForTest(1, 0xFFFFFFFFu);
  table.Remove(EntityHandle::Pack(1, 0xFFFFFFFFu));
  EXPECT_EQ(table.SlotGenerationForTest(1), 1u);
  // The original generation-1 handle from before the pin is indistinguishable
  // from the post-wrap tenant by construction — a documented ABA horizon of
  // exactly 2^32 - 1 generations, not a validity bug.
  EntityHandle fresh = table.Insert(3);
  EXPECT_EQ(fresh.generation(), 1u);
  ASSERT_NE(table.Get(fresh), nullptr);
  EXPECT_EQ(*table.Get(fresh), 3);
}

TEST(EntityTableTest, ClearWrapsGenerationLikeRemove) {
  EntityTable<int> table;
  table.Insert(5);
  table.SetSlotGenerationForTest(0, 0xFFFFFFFFu);
  table.Clear();
  EXPECT_EQ(table.SlotGenerationForTest(0), 1u);
  EntityHandle fresh = table.Insert(6);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.generation(), 1u);
}

TEST(EntityTableTest, MoveOnlyPayloadsMoveThroughRemove) {
  struct MoveOnly {
    std::unique_ptr<int> p;
  };
  EntityTable<MoveOnly> table;
  MoveOnly m;
  m.p = std::make_unique<int>(7);
  EntityHandle h = table.Insert(std::move(m));
  MoveOnly out = table.Remove(h);
  ASSERT_NE(out.p, nullptr);
  EXPECT_EQ(*out.p, 7);
}

}  // namespace
}  // namespace laminar
