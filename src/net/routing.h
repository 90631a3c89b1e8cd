// ECMP shortest-path routing over a Network.
//
// Paths are computed from per-destination BFS trees over reversed edges:
// next_hops[node] is the set of outgoing links that lie on *some* shortest
// path to the destination. A flow picks among candidates with ecmp_pick(),
// giving deterministic per-flow ECMP spraying (what a 5-tuple hash does in
// a real fabric). BFS trees are kept in a small LRU cache so repeated
// routing to the same destination (the common case: collectives) is O(path).
//
// Switched fabrics (leaf-spine and rail-optimized) do not route here:
// topo::Fabric::route() computes the same paths from the fabric's
// structure. The BFS router serves only TopoOpt, where hosts forward and a
// path depends on the circuit graph, and is the oracle Fabric::route is
// tested against.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "net/network.h"

namespace mixnet::net {

class EcmpRouter {
 public:
  /// `allow_server_transit` permits paths through intermediate server nodes
  /// (hosts forward traffic), which direct-connect fabrics like TopoOpt
  /// require; packet-switched fabrics keep it off.
  explicit EcmpRouter(const Network& net, bool allow_server_transit = false)
      : net_(net), allow_server_transit_(allow_server_transit) {}

  /// Shortest path (sequence of LinkIds) from src to dst, using `flow_hash`
  /// to break ECMP ties. Returns an empty vector if dst is unreachable.
  /// When `pin_index` >= 0, candidate selection at every hop uses
  /// `pin_index % n_candidates` instead of the hash -- this models NIC/QP
  /// channel pinning (NCCL assigns channels to NICs round-robin), which is
  /// what multi-NIC collectives rely on to avoid ECMP collisions.
  std::vector<LinkId> route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                            int pin_index = -1);

 private:
  /// Per-destination BFS trees held at once.
  static constexpr std::size_t kCacheCapacity = 512;

  struct DestTree {
    // For each node: candidate outgoing links on shortest paths to dest,
    // stored as [offsets[n], offsets[n+1]) ranges into `candidates`.
    std::vector<std::uint32_t> offsets;
    std::vector<LinkId> candidates;
    std::vector<std::int32_t> dist;  // hop count to dest, -1 unreachable
  };

  const DestTree& tree_for(NodeId dst);
  DestTree build_tree(NodeId dst) const;
  /// Drop every cached tree once the network's version has moved.
  void check_version();

  const Network& net_;
  bool allow_server_transit_ = false;
  std::uint64_t seen_version_ = 0;
  std::list<NodeId> lru_;  // most-recent at front
  std::unordered_map<NodeId, std::pair<DestTree, std::list<NodeId>::iterator>> cache_;
};

/// Stateless mixing hash used for ECMP decisions.
std::uint64_t mix_hash(std::uint64_t x);

/// The link rule every router applies: a link carries routes only while it
/// is up and has capacity.
inline bool routable(const Link& l) { return l.up && l.capacity > 0.0; }

/// The ECMP choice among `n` > 0 candidates at hop `hop` (0 at the source)
/// of a path: pinned flows (`pin_index` >= 0) take `pin_index % n`, hashed
/// flows mix the hop into `flow_hash` so each hop spreads independently.
/// Every router picks through this, so their choices agree.
std::uint64_t ecmp_pick(std::uint64_t flow_hash, int hop, int pin_index,
                        std::uint64_t n);

}  // namespace mixnet::net
