//===- ActionCache.cpp - The specialized action cache ----------------------===//

#include "src/runtime/ActionCache.h"

#include "src/snapshot/Serializer.h"

#include <algorithm>
#include <cassert>

using namespace facile;
using namespace facile::rt;

//===----------------------------------------------------------------------===//
// Key interning
//===----------------------------------------------------------------------===//

std::vector<uint32_t>
ActionCache::buildProbeTable(const std::vector<KeyRecord> &Keys) {
  // Smallest power of two keeping the load factor below ~2/3.
  size_t NewSize = 64;
  while (NewSize * 2 < (Keys.size() + 1) * 3)
    NewSize *= 2;
  std::vector<uint32_t> Table(NewSize, NoId);
  size_t Mask = NewSize - 1;
  for (KeyId K = 0; K != Keys.size(); ++K) {
    size_t I = static_cast<size_t>(Keys[K].Hash) & Mask;
    while (Table[I] != NoId)
      I = (I + 1) & Mask;
    Table[I] = K;
  }
  return Table;
}

void ActionCache::growTable() {
  // Smallest power of two keeping the load factor below ~2/3; never
  // shrink an already-grown table.
  size_t NewSize = 64;
  while (NewSize * 2 < (Keys.size() + 1) * 3)
    NewSize *= 2;
  NewSize = std::max(NewSize, Table.size() * 2);
  Table.assign(NewSize, NoId);
  size_t Mask = NewSize - 1;
  // Slots store global ids; only overlay keys live in this table.
  for (KeyId K = 0; K != Keys.size(); ++K) {
    size_t I = static_cast<size_t>(Keys[K].Hash) & Mask;
    while (Table[I] != NoId)
      I = (I + 1) & Mask;
    Table[I] = static_cast<KeyId>(Base.NumKeys + K);
  }
}

KeyId ActionCache::internKey(const char *Data, size_t Len) {
  uint64_t H = hashKey(Data, Len);

  // Level one: the read-only base table (mapped store file). Hits return
  // the base key id; misses fall through to the private overlay table —
  // the base is immutable, so nothing is ever inserted here.
  if (HasBase && Base.TableSize != 0) {
    size_t Mask = static_cast<size_t>(Base.TableSize) - 1;
    size_t I = static_cast<size_t>(H) & Mask;
    uint64_t Probes = 0;
    for (;;) {
      uint32_t Slot = Base.Table[I];
      if (Slot == NoId)
        break;
      const KeyRecord &R = Base.Keys[Slot];
      if (R.Hash == H && R.Len == Len &&
          std::memcmp(Base.KeyPool + R.Ofs, Data, Len) == 0) {
        S.ProbeTotal += Probes;
        S.ProbeMax = std::max(S.ProbeMax, Probes);
        return Slot;
      }
      I = (I + 1) & Mask;
      ++Probes;
    }
    S.ProbeTotal += Probes;
    S.ProbeMax = std::max(S.ProbeMax, Probes);
  }

  // Keep the load factor below ~2/3 so probe sequences stay short.
  if (Table.empty() || (Keys.size() + 1) * 3 > Table.size() * 2)
    growTable();

  size_t Mask = Table.size() - 1;
  size_t I = static_cast<size_t>(H) & Mask;
  uint64_t Probes = 0;
  for (;;) {
    uint32_t Slot = Table[I];
    if (Slot == NoId)
      break;
    const KeyRecord &R = Keys[Slot - Base.NumKeys];
    if (R.Hash == H && R.Len == Len &&
        std::memcmp(KeyPool.data() + R.Ofs, Data, Len) == 0) {
      S.ProbeTotal += Probes;
      S.ProbeMax = std::max(S.ProbeMax, Probes);
      return Slot;
    }
    I = (I + 1) & Mask;
    ++Probes;
  }
  S.ProbeTotal += Probes;
  S.ProbeMax = std::max(S.ProbeMax, Probes);

  KeyId K = static_cast<KeyId>(Base.NumKeys + Keys.size());
  KeyRecord R;
  R.Ofs = static_cast<uint32_t>(KeyPool.size());
  R.Len = static_cast<uint32_t>(Len);
  R.Hash = H;
  KeyPool.insert(KeyPool.end(), Data, Data + Len);
  Keys.push_back(R);
  KeyToEntry.push_back(NoId);
  Table[I] = K;
  ++S.KeysInterned;
  notePeak();
  return K;
}

//===----------------------------------------------------------------------===//
// Entries
//===----------------------------------------------------------------------===//

EntryId ActionCache::create(KeyId K) {
  assert(KeyToEntry[K] == NoId && "key already has an entry");
  ++S.EntriesCreated;
  EntryId E = static_cast<EntryId>(Entries.size());
  Entries.emplace_back();
  Entries.back().Key = K;
  KeyToEntry[K] = E;
  notePeak();
  return E;
}

//===----------------------------------------------------------------------===//
// Base layer
//===----------------------------------------------------------------------===//

bool ActionCache::attachBase(const BaseArenas &B) {
  if (HasBase || !Keys.empty() || !Entries.empty() || !NodeArena.empty() ||
      !DataPool.empty() || !KeyPool.empty())
    return false;
  Base = B;
  HasBase = true;
  KeyToEntry.clear();
  if (B.NumKeys != 0)
    KeyToEntry.assign(B.KeyToEntry, B.KeyToEntry + B.NumKeys);
  Entries.clear();
  if (B.NumEntries != 0)
    Entries.assign(B.Entries, B.Entries + B.NumEntries);
  BaseVerified.assign(B.NumNodes, 0);
  Table.clear();
  ++Epoch;
  PendingXor = 0;
  notePeak();
  return true;
}

void ActionCache::detachBase() {
  HasBase = false;
  Base = BaseArenas{};
  BaseVerified.clear();
  Patches.clear();
  KeyPool.clear();
  Keys.clear();
  KeyToEntry.clear();
  Table.clear();
  Entries.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  ++Epoch;
  DataPool.clear();
  PendingXor = 0;
}

void ActionCache::resetToBase() {
  KeyPool.clear();
  Keys.clear();
  Table.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  Patches.clear();
  DataPool.clear();
  PendingXor = 0;
  KeyToEntry.clear();
  if (Base.NumKeys != 0)
    KeyToEntry.assign(Base.KeyToEntry, Base.KeyToEntry + Base.NumKeys);
  Entries.clear();
  if (Base.NumEntries != 0)
    Entries.assign(Base.Entries, Base.Entries + Base.NumEntries);
  // BaseVerified survives: the base mapping did not change.
  ++Epoch;
}

//===----------------------------------------------------------------------===//
// Clear-on-full
//===----------------------------------------------------------------------===//

void ActionCache::clear() {
  notePeak();
  if (HasBase) {
    resetToBase();
    ++S.Clears;
    return;
  }
  KeyPool.clear();
  Keys.clear();
  KeyToEntry.clear();
  Table.clear();
  Entries.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  ++Epoch;
  DataPool.clear();
  PendingXor = 0;
  ++S.Clears;
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

void ActionCache::serialize(snapshot::Writer &W) const {
  // Key pool, base bytes below overlay bytes (charVec wire layout). With
  // no base attached this is byte-identical to the historical format.
  W.u64(keyPoolBytes());
  if (Base.KeyPoolBytes != 0)
    W.bytes(Base.KeyPool, static_cast<size_t>(Base.KeyPoolBytes));
  W.bytes(KeyPool.data(), KeyPool.size());
  W.u64(keyCount());
  for (KeyId K = 0; K != keyCount(); ++K) {
    // Global pool offsets: base spans already live below Base.KeyPoolBytes;
    // overlay spans shift up past them.
    if (K < Base.NumKeys) {
      W.u32(Base.Keys[K].Ofs);
      W.u32(Base.Keys[K].Len);
    } else {
      const KeyRecord &R = Keys[K - Base.NumKeys];
      W.u32(static_cast<uint32_t>(Base.KeyPoolBytes) + R.Ofs);
      W.u32(R.Len); // hashes are recomputed on load
    }
  }
  W.u32Vec(KeyToEntry);
  W.u64(Entries.size());
  for (const CacheEntry &E : Entries) {
    W.u32(E.Head);
    W.u32(E.Key);
  }
  W.u64(nodeCount());
  for (uint32_t I = 0; I != nodeCount(); ++I) {
    const ActionNode &N = node(I);
    // Edge patches are applied in the written image: a snapshot is a
    // self-contained merge of base and overlay.
    uint32_t On0 = N.OnValue[0];
    uint32_t On1 = N.OnValue[1];
    if (I < Base.NumNodes && N.K == ActionNode::Kind::Test) {
      if (On0 == ActionNode::NoNode)
        On0 = patchedSuccessor(edgeTag(I, 0));
      if (On1 == ActionNode::NoNode)
        On1 = patchedSuccessor(edgeTag(I, 1));
    }
    W.u32(static_cast<uint32_t>(N.ActionId));
    W.u8(static_cast<uint8_t>(N.K));
    W.u32(N.DataOfs);
    W.u32(N.DataLen);
    W.u32(N.Next);
    W.u32(On0);
    W.u32(On1);
    W.u32(N.NextKey);
    W.u64(nodeSeal(I));
  }
  // Data pool, base words below overlay words (i64Vec wire layout).
  W.u64(dataSize());
  if (Base.DataWords != 0)
    W.bytes(Base.Data, static_cast<size_t>(Base.DataWords) * 8);
  W.bytes(DataPool.data(), DataPool.size() * 8);
}

bool ActionCache::deserialize(snapshot::Reader &R, uint32_t NumActions) {
  std::vector<char> NewKeyPool;
  if (!R.charVec(NewKeyPool))
    return false;

  uint64_t NumKeys = R.u64();
  // Each key record costs 8 serialized bytes; reject counts the input
  // cannot back before allocating.
  if (!R.ok() || NumKeys > R.remaining() / 8 || NumKeys >= NoId)
    return false;
  std::vector<KeyRecord> NewKeys(static_cast<size_t>(NumKeys));
  for (KeyRecord &K : NewKeys) {
    K.Ofs = R.u32();
    K.Len = R.u32();
    if (static_cast<uint64_t>(K.Ofs) + K.Len > NewKeyPool.size())
      return false;
    K.Hash = hashKey(NewKeyPool.data() + K.Ofs, K.Len);
  }

  std::vector<EntryId> NewKeyToEntry;
  if (!R.u32Vec(NewKeyToEntry) || NewKeyToEntry.size() != NewKeys.size())
    return false;

  uint64_t NumEntries = R.u64();
  if (!R.ok() || NumEntries > R.remaining() / 8 || NumEntries >= NoId)
    return false;
  std::vector<CacheEntry> NewEntries(static_cast<size_t>(NumEntries));
  for (CacheEntry &E : NewEntries) {
    E.Head = R.u32();
    E.Key = R.u32();
    if (E.Key >= NewKeys.size())
      return false;
  }

  uint64_t NumNodes = R.u64();
  // 29 node bytes plus the 8-byte seal.
  if (!R.ok() || NumNodes > R.remaining() / 37 ||
      NumNodes >= ActionNode::NoNode)
    return false;
  std::vector<ActionNode> NewNodes(static_cast<size_t>(NumNodes));
  std::vector<uint64_t> NewSeals(static_cast<size_t>(NumNodes));
  for (size_t I = 0; I != NewNodes.size(); ++I) {
    ActionNode &N = NewNodes[I];
    N.ActionId = static_cast<int32_t>(R.u32());
    uint8_t K = R.u8();
    if (K > static_cast<uint8_t>(ActionNode::Kind::End))
      return false;
    N.K = static_cast<ActionNode::Kind>(K);
    N.DataOfs = R.u32();
    N.DataLen = R.u32();
    N.Next = R.u32();
    N.OnValue[0] = R.u32();
    N.OnValue[1] = R.u32();
    N.NextKey = R.u32();
    NewSeals[I] = R.u64();
  }

  std::vector<int64_t> NewData;
  if (!R.i64Vec(NewData) || !R.ok())
    return false;

  // Structural validation: every link in bounds. Replay follows these raw
  // (no per-step checks), so a single bad index here would be UB later.
  for (const ActionNode &N : NewNodes) {
    if (N.ActionId < 0 || static_cast<uint32_t>(N.ActionId) >= NumActions)
      return false;
    if (static_cast<uint64_t>(N.DataOfs) + N.DataLen > NewData.size())
      return false;
    if (N.Next != ActionNode::NoNode && N.Next >= NewNodes.size())
      return false;
    for (int V = 0; V != 2; ++V)
      if (N.OnValue[V] != ActionNode::NoNode &&
          N.OnValue[V] >= NewNodes.size())
        return false;
    if (N.NextKey != NoId && N.NextKey >= NewKeys.size())
      return false;
    // A Plain node's replay unconditionally chases Next; a dangling link
    // means a half-recorded entry, which only ever exists transiently
    // while the slow engine holds the step — never in a saved image.
    if (N.K == ActionNode::Kind::Plain && N.Next == ActionNode::NoNode)
      return false;
  }
  for (const CacheEntry &E : NewEntries)
    if (E.Head != ActionNode::NoNode && E.Head >= NewNodes.size())
      return false;
  for (size_t K = 0; K != NewKeyToEntry.size(); ++K) {
    EntryId E = NewKeyToEntry[K];
    if (E == NoId)
      continue;
    if (E >= NewEntries.size() || NewEntries[E].Key != K)
      return false;
  }

  FlatImage Img;
  Img.KeyPool = std::move(NewKeyPool);
  Img.Keys = std::move(NewKeys);
  Img.KeyToEntry = std::move(NewKeyToEntry);
  Img.Entries = std::move(NewEntries);
  Img.Nodes = std::move(NewNodes);
  Img.Seals = std::move(NewSeals);
  Img.Data = std::move(NewData);
  // A loaded snapshot replaces everything, including any attached base:
  // the cache comes back private and owned (adoptImage drops the base).
  adoptImage(std::move(Img));
  notePeak();
  return true;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

ActionCache::FlatImage ActionCache::compactImage() const {
  FlatImage Img;

  // Copies key \p Old into the new pool once, returning its new id.
  std::vector<KeyId> KeyRemap(keyCount(), NoId);
  auto remapKey = [&](KeyId Old) -> KeyId {
    if (Old == NoId)
      return NoId;
    if (KeyRemap[Old] != NoId)
      return KeyRemap[Old];
    KeyId New = static_cast<KeyId>(Img.Keys.size());
    KeyRecord C;
    C.Ofs = static_cast<uint32_t>(Img.KeyPool.size());
    C.Len = keyLen(Old);
    C.Hash = keyHash(Old);
    const char *D = keyData(Old);
    Img.KeyPool.insert(Img.KeyPool.end(), D, D + C.Len);
    Img.Keys.push_back(C);
    Img.KeyToEntry.push_back(NoId);
    KeyRemap[Old] = New;
    return New;
  };

  // Worklist item: copy old node Old and hang the copy off the given edge
  // of the already-copied parent (Edge -1 = Next, 0/1 = OnValue).
  struct WorkItem {
    uint32_t Old;
    uint32_t ParentOld;
    uint32_t ParentNew;
    int8_t Edge;
  };
  std::vector<WorkItem> Work;

  for (const CacheEntry &E : Entries) {
    if (E.Head == ActionNode::NoNode)
      continue;
    EntryId NewE = static_cast<EntryId>(Img.Entries.size());
    Img.Entries.emplace_back();
    CacheEntry &C = Img.Entries.back();
    C.Key = remapKey(E.Key);
    Img.KeyToEntry[C.Key] = NewE;

    Work.push_back({E.Head, ActionNode::NoNode, ActionNode::NoNode, -1});
    while (!Work.empty()) {
      WorkItem W = Work.back();
      Work.pop_back();
      const ActionNode &Src = node(W.Old);
      uint32_t NewIdx = static_cast<uint32_t>(Img.Nodes.size());
      Img.Nodes.push_back(Src);
      ActionNode &Dst = Img.Nodes.back();
      Dst.DataOfs = static_cast<uint32_t>(Img.Data.size());
      const int64_t *Span = spanData(Src.DataOfs);
      Img.Data.insert(Img.Data.end(), Span, Span + Src.DataLen);
      Dst.Next = ActionNode::NoNode;
      Dst.OnValue[0] = Dst.OnValue[1] = ActionNode::NoNode;
      if (Dst.K == ActionNode::Kind::End)
        Dst.NextKey = remapKey(Src.NextKey);
      // Re-home the seal's link tag: node indices (and the head's key id)
      // change under compaction; the data xor and identity mix do not.
      uint64_t OldTag, NewTag;
      if (W.ParentNew == ActionNode::NoNode) {
        C.Head = NewIdx;
        OldTag = headTag(E.Key);
        NewTag = headTag(C.Key);
      } else if (W.Edge < 0) {
        Img.Nodes[W.ParentNew].Next = NewIdx;
        OldTag = edgeTag(W.ParentOld, -1);
        NewTag = edgeTag(W.ParentNew, -1);
      } else {
        Img.Nodes[W.ParentNew].OnValue[W.Edge] = NewIdx;
        OldTag = edgeTag(W.ParentOld, W.Edge);
        NewTag = edgeTag(W.ParentNew, W.Edge);
      }
      Img.Seals.push_back(nodeSeal(W.Old) ^ OldTag ^ NewTag);
      if (Src.K == ActionNode::Kind::Plain &&
          Src.Next != ActionNode::NoNode)
        Work.push_back({Src.Next, W.Old, NewIdx, -1});
      if (Src.K == ActionNode::Kind::Test)
        for (int V = 0; V != 2; ++V) {
          // testSuccessor folds the edge-patch table in, so an overlay
          // extension of a base test survives compaction/promotion.
          uint32_t Succ = testSuccessor(W.Old, V);
          if (Succ != ActionNode::NoNode)
            Work.push_back({Succ, W.Old, NewIdx, static_cast<int8_t>(V)});
        }
    }
  }
  return Img;
}

void ActionCache::adoptImage(FlatImage Img) {
  HasBase = false;
  Base = BaseArenas{};
  BaseVerified.clear();
  Patches.clear();
  KeyPool = std::move(Img.KeyPool);
  Keys = std::move(Img.Keys);
  KeyToEntry = std::move(Img.KeyToEntry);
  Entries = std::move(Img.Entries);
  NodeArena = std::move(Img.Nodes);
  NodeSeal = std::move(Img.Seals);
  VerifyMark.assign(NodeSeal.size(), 0);
  ++Epoch;
  DataPool = std::move(Img.Data);
  PendingXor = 0;
  Table.clear();
  growTable();
}
