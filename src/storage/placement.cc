#include "src/storage/placement.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hcache {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mixing, stable everywhere.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t VnodePoint(int node, int vnode) {
  return Mix64(Mix64(static_cast<uint64_t>(static_cast<uint32_t>(node)) + 1) ^
               (static_cast<uint64_t>(static_cast<uint32_t>(vnode)) * 0xd6e8feb86659fd93ull));
}

}  // namespace

uint64_t PlacementTable::HashKey(const ChunkKey& key) {
  uint64_t h = Mix64(static_cast<uint64_t>(key.context_id));
  h = Mix64(h ^ static_cast<uint64_t>(key.layer));
  return Mix64(h ^ static_cast<uint64_t>(key.chunk_index));
}

PlacementTable::PlacementTable(std::vector<int> node_ids) : node_ids_(std::move(node_ids)) {
  CHECK(!node_ids_.empty());
  std::sort(node_ids_.begin(), node_ids_.end());
  node_ids_.erase(std::unique(node_ids_.begin(), node_ids_.end()), node_ids_.end());
  ring_.reserve(node_ids_.size() * kVnodesPerNode);
  for (const int node : node_ids_) {
    for (int v = 0; v < kVnodesPerNode; ++v) {
      ring_.push_back(VirtualNode{VnodePoint(node, v), node});
    }
  }
  // Point collisions are astronomically unlikely; break any by node id so the
  // ring order stays deterministic regardless of construction order.
  std::sort(ring_.begin(), ring_.end(), [](const VirtualNode& a, const VirtualNode& b) {
    return a.point != b.point ? a.point < b.point : a.node < b.node;
  });
}

std::vector<int> PlacementTable::WalkOrder(const ChunkKey& key) const {
  const uint64_t point = HashKey(key);
  // First vnode at or after the key's point (wrapping).
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const VirtualNode& vn, uint64_t p) { return vn.point < p; });
  std::vector<int> order;
  order.reserve(node_ids_.size());
  std::vector<bool> seen(node_ids_.size(), false);
  for (size_t step = 0; step < ring_.size() && order.size() < node_ids_.size(); ++step) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    const int node = it->node;
    // node_ids_ is sorted: index by binary search.
    const size_t idx = static_cast<size_t>(
        std::lower_bound(node_ids_.begin(), node_ids_.end(), node) - node_ids_.begin());
    if (!seen[idx]) {
      seen[idx] = true;
      order.push_back(node);
    }
    ++it;
  }
  return order;
}

std::vector<int> PlacementTable::ReplicasFor(const ChunkKey& key, int r) const {
  std::vector<int> order = WalkOrder(key);
  if (static_cast<int>(order.size()) > r) {
    order.resize(static_cast<size_t>(r));
  }
  return order;
}

bool PlacementTable::HasNode(int node) const {
  return std::binary_search(node_ids_.begin(), node_ids_.end(), node);
}

PlacementTable PlacementTable::Without(int node) const {
  std::vector<int> ids;
  ids.reserve(node_ids_.size());
  for (const int id : node_ids_) {
    if (id != node) {
      ids.push_back(id);
    }
  }
  return PlacementTable(std::move(ids));
}

PlacementTable PlacementTable::With(int node) const {
  std::vector<int> ids = node_ids_;
  ids.push_back(node);
  return PlacementTable(std::move(ids));
}

}  // namespace hcache
