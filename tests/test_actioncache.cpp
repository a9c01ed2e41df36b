//===- test_actioncache.cpp - Specialized action cache unit tests -------------===//
//
// Unit tests for the flat action-cache data layer: the interned key table
// (collision handling, rehash growth, binary-safe keys), the shared node
// arena and data pool, derived byte accounting, and the clear-on-full
// budget policy.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ActionCache.h"

#include <gtest/gtest.h>

#include <string>

using namespace facile;
using namespace facile::rt;

namespace {

KeyId intern(ActionCache &C, const std::string &K) {
  return C.internKey(K.data(), K.size());
}

} // namespace

TEST(ActionCache, LookupMissThenHit) {
  ActionCache C(1 << 20);
  KeyId K1 = intern(C, "k1");
  EXPECT_EQ(C.lookup(K1), NoId);
  EntryId E = C.create(K1);
  ASSERT_NE(E, NoId);
  EXPECT_EQ(C.lookup(K1), E);
  EXPECT_EQ(C.lookup(intern(C, "k2")), NoId);
  EXPECT_EQ(C.entryCount(), 1u);
  EXPECT_EQ(C.stats().Lookups, 3u);
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().EntriesCreated, 1u);
}

TEST(ActionCache, InternDeduplicates) {
  ActionCache C(1 << 20);
  KeyId A = intern(C, "same-key");
  KeyId B = intern(C, "same-key");
  EXPECT_EQ(A, B);
  EXPECT_EQ(C.keyCount(), 1u);
  EXPECT_EQ(C.stats().KeysInterned, 1u);
  EXPECT_EQ(C.keyPoolBytes(), 8u);
  // The span reads back the original bytes.
  EXPECT_EQ(std::string(C.keyData(A), C.keyLen(A)), "same-key");
}

TEST(ActionCache, KeysAreBinarySafe) {
  ActionCache C(1 << 20);
  std::string K1("\x00\x01\x02", 3);
  std::string K2("\x00\x01\x03", 3);
  KeyId I1 = intern(C, K1);
  KeyId I2 = intern(C, K2);
  EXPECT_NE(I1, I2);
  EntryId E1 = C.create(I1);
  EntryId E2 = C.create(I2);
  EXPECT_NE(E1, E2);
  EXPECT_EQ(C.lookup(I1), E1);
  EXPECT_EQ(C.lookup(I2), E2);
  EXPECT_TRUE(C.keyEquals(I1, K1.data(), K1.size()));
  EXPECT_FALSE(C.keyEquals(I1, K2.data(), K2.size()));
}

TEST(ActionCache, KeyHashGoldenValues) {
  // Store files persist key hashes and their probe table, so these values
  // are part of the FACSTOR1 format: a change here needs a
  // store::StoreVersion bump. 1,576 bytes is an ooo.fac step key.
  const std::pair<size_t, uint64_t> Golden[] = {
      {0, 0xd8a310150df90781ULL},    {7, 0xe41270fe14d9c59eULL},
      {8, 0x1debab7a696bebb1ULL},    {9, 0x22184d7194616aecULL},
      {1576, 0x749976e828961853ULL},
  };
  for (const auto &[Size, Hash] : Golden) {
    std::string Key(Size, '\0');
    for (size_t I = 0; I != Size; ++I)
      Key[I] = static_cast<char>(I * 131 + 17);
    EXPECT_EQ(hashKey(Key.data(), Key.size()), Hash) << Size << " bytes";
    ActionCache C(1 << 20);
    EXPECT_EQ(C.keyHash(intern(C, Key)), Hash) << Size << " bytes";
  }
  // The length is mixed in: zero-padding the last lane does not collide.
  EXPECT_NE(hashKey("abc", 3), hashKey("abc\0", 4));
}

TEST(ActionCache, InternSurvivesTableGrowthAndCollisions) {
  // Far more keys than the initial table: forces several rehashes and
  // plenty of probe collisions; every key must stay resolvable and ids
  // must stay stable.
  ActionCache C(64u << 20);
  std::vector<KeyId> Ids;
  for (int I = 0; I != 5000; ++I)
    Ids.push_back(intern(C, "key-" + std::to_string(I)));
  for (int I = 0; I != 5000; ++I) {
    std::string K = "key-" + std::to_string(I);
    EXPECT_EQ(intern(C, K), Ids[I]);
    EXPECT_TRUE(C.keyEquals(Ids[I], K.data(), K.size()));
  }
  EXPECT_EQ(C.keyCount(), 5000u);
  // With thousands of keys some probe sequences must have collided.
  EXPECT_GT(C.stats().ProbeTotal, 0u);
  EXPECT_GE(C.stats().ProbeMax, 1u);
}

TEST(ActionCache, BytesCoverEveryStore) {
  // The byte account is derived from the containers, so every kind of
  // growth — key bytes, entries, nodes, data words — must move bytes().
  ActionCache C(1u << 30);
  size_t B0 = C.bytes();
  KeyId K = intern(C, std::string(100, 'x'));
  size_t B1 = C.bytes();
  EXPECT_GE(B1, B0 + 100);
  EntryId E = C.create(K);
  size_t B2 = C.bytes();
  EXPECT_GE(B2, B1 + sizeof(CacheEntry));
  uint32_t N = C.appendNode(0);
  C.entry(E).Head = N;
  size_t B3 = C.bytes();
  EXPECT_GE(B3, B2 + sizeof(ActionNode));
  for (int I = 0; I != 10; ++I)
    C.pushData(I);
  size_t B4 = C.bytes();
  EXPECT_GE(B4, B3 + 10 * sizeof(int64_t));
  EXPECT_GE(C.stats().PeakBytes, B4);
}

TEST(ActionCache, OverBudgetReflectsRealFootprint) {
  // Data-pool growth alone must trip the budget: the old accounting
  // (key size + flat 64 per entry) missed arena growth entirely.
  ActionCache C(1024);
  C.create(intern(C, "k"));
  EXPECT_FALSE(C.overBudget());
  for (int I = 0; I != 200; ++I)
    C.pushData(I);
  EXPECT_TRUE(C.overBudget());
  EXPECT_GE(C.stats().PeakBytes, 200 * sizeof(int64_t));
}

TEST(ActionCache, ClearDropsEverything) {
  ActionCache C(1000);
  KeyId K = intern(C, "a");
  C.create(K);
  C.appendNode(1);
  for (int I = 0; I != 500; ++I)
    C.pushData(I);
  EXPECT_TRUE(C.overBudget());
  C.clear();
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.keyCount(), 0u);
  EXPECT_EQ(C.nodeCount(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_FALSE(C.overBudget());
  EXPECT_EQ(C.stats().Clears, 1u);
  // Keys re-intern from scratch and entries can be re-created.
  KeyId K2 = intern(C, "a");
  EXPECT_EQ(C.lookup(K2), NoId);
  EXPECT_NE(C.create(K2), NoId);
}

TEST(ActionCache, ClearAllPolicyEvictsWholesale) {
  ActionCache C(256);
  for (int I = 0; I != 8; ++I)
    C.create(intern(C, "key-" + std::to_string(I)));
  EXPECT_TRUE(C.overBudget());
  C.clear();
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_EQ(C.stats().Clears, 1u);
}

TEST(ActionCache, EntryIdsStableAcrossInserts) {
  // Ids index a vector: growing the cache must keep earlier ids valid
  // (the replay path and recovery hold EntryIds within a step).
  ActionCache C(1 << 20);
  EntryId First = C.create(intern(C, "first"));
  C.pushData(42);
  uint32_t N = C.appendNode(7);
  C.entry(First).Head = N;
  for (int I = 0; I != 1000; ++I)
    C.create(intern(C, "k" + std::to_string(I)));
  EXPECT_EQ(C.lookup(intern(C, "first")), First);
  EXPECT_EQ(C.entry(First).Head, N);
  EXPECT_EQ(C.data()[0], 42);
}

TEST(ActionCache, NodeLinkingShapes) {
  // Build an entry by hand: plain -> test -> {end, end}, the Figure 2
  // control-path shape, over the shared arena.
  ActionCache C(1 << 20);
  EntryId E = C.create(intern(C, "k"));
  uint32_t N0 = C.appendNode(0);
  uint32_t N1 = C.appendNode(1);
  uint32_t N2 = C.appendNode(2);
  uint32_t N3 = C.appendNode(3);
  C.entry(E).Head = N0;
  C.node(N0).K = ActionNode::Kind::Plain;
  C.node(N0).Next = N1;
  C.node(N1).K = ActionNode::Kind::Test;
  C.node(N1).OnValue[0] = N2;
  C.node(N1).OnValue[1] = N3;
  C.node(N2).K = ActionNode::Kind::End;
  C.node(N3).K = ActionNode::Kind::End;
  // Walk both paths.
  for (int V : {0, 1}) {
    uint32_t N = C.entry(E).Head;
    N = C.node(N).Next;
    N = C.node(N).OnValue[V];
    EXPECT_EQ(C.node(N).K, ActionNode::Kind::End);
  }
}
