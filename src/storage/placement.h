// Deterministic chunk placement for the distributed cold plane: consistent
// hashing with virtual nodes over a set of storage-node ids (EOS's mgm decides
// file placement over fst nodes the same way at exabyte scale — a placement
// function, not a per-chunk directory, so no metadata server sits on the IO path).
//
// The ring maps every ChunkKey to a *walk order* over the current members: the
// first R distinct nodes on the clockwise walk from the key's hash point are the
// chunk's home replica set. Membership changes move only the chunks whose walk
// crosses the changed node (the consistent-hashing property the drain verb relies
// on: removing a node re-homes ~1/N of the chunks, not all of them).
//
// All hashing is self-contained (splitmix64-style mixing), so placement is
// bit-identical across platforms, processes, and library versions — two processes
// that agree on the member list agree on every chunk's home, which is what lets
// hcache-fsck reconstruct placement offline from node directories alone.
//
// The table is immutable after construction; membership changes produce a NEW
// table (copy-on-write in DistributedColdBackend), so readers never observe a
// half-updated ring.
#ifndef HCACHE_SRC_STORAGE_PLACEMENT_H_
#define HCACHE_SRC_STORAGE_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

class PlacementTable {
 public:
  // Ring over `node_ids` (need not be contiguous — drained nodes leave holes).
  explicit PlacementTable(std::vector<int> node_ids);

  // Every member node in clockwise walk order from `key`'s ring point, deduped:
  // element 0 is the primary, elements [0, R) the home replica set. Size ==
  // num_nodes() always, so callers can keep walking past down nodes.
  std::vector<int> WalkOrder(const ChunkKey& key) const;

  // First min(r, num_nodes()) entries of WalkOrder — the home replica set.
  std::vector<int> ReplicasFor(const ChunkKey& key, int r) const;

  // A new table with `node` removed (drain) — same vnode layout for survivors,
  // so only the drained node's chunks re-home.
  PlacementTable Without(int node) const;
  // A new table with `node` added (scale-out / re-admit after drain).
  PlacementTable With(int node) const;

  int num_nodes() const { return static_cast<int>(node_ids_.size()); }
  const std::vector<int>& node_ids() const { return node_ids_; }
  bool HasNode(int node) const;

  // Stable 64-bit point for a chunk key (exposed for tests pinning determinism).
  static uint64_t HashKey(const ChunkKey& key);

 private:
  struct VirtualNode {
    uint64_t point = 0;
    int node = -1;
  };

  // Virtual nodes per member: trades lookup cost for fill evenness; 64 keeps
  // worst-case node fill within a few percent of the mean at the fleet sizes we
  // simulate.
  static constexpr int kVnodesPerNode = 64;

  std::vector<int> node_ids_;
  std::vector<VirtualNode> ring_;  // sorted by point
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_PLACEMENT_H_
