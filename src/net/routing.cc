#include "net/routing.h"

#include <cassert>
#include <deque>

namespace mixnet::net {

std::uint64_t mix_hash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t ecmp_pick(std::uint64_t flow_hash, int hop, int pin_index,
                        std::uint64_t n) {
  return pin_index >= 0
             ? static_cast<std::uint64_t>(pin_index) % n
             : mix_hash(flow_hash ^ (0x9E37ULL * static_cast<std::uint64_t>(hop + 1))) % n;
}

void EcmpRouter::check_version() {
  if (seen_version_ != net_.version()) {
    cache_.clear();
    lru_.clear();
    seen_version_ = net_.version();
  }
}

EcmpRouter::DestTree EcmpRouter::build_tree(NodeId dst) const {
  const std::size_t n = net_.node_count();
  DestTree t;
  t.dist.assign(n, -1);
  // BFS over reversed edges from dst.
  std::deque<NodeId> frontier;
  t.dist[static_cast<std::size_t>(dst)] = 0;
  frontier.push_back(dst);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // Servers terminate paths: they never forward transit traffic (the
    // failure handler builds explicit relay paths when it needs one, §5.4).
    // Direct-connect fabrics (TopoOpt) opt into host forwarding instead.
    if (!allow_server_transit_ && v != dst && net_.node(v).kind == NodeKind::kServer)
      continue;
    const auto dv = t.dist[static_cast<std::size_t>(v)];
    for (LinkId lid : net_.node(v).in_links) {
      const Link& l = net_.link(lid);
      if (!routable(l)) continue;
      auto& du = t.dist[static_cast<std::size_t>(l.src)];
      if (du == -1) {
        du = dv + 1;
        frontier.push_back(l.src);
      }
    }
  }
  // Candidate links: out-links whose head is one hop closer to dst.
  const auto is_candidate = [&](LinkId lid, std::int32_t dv) {
    const Link& l = net_.link(lid);
    return routable(l) && t.dist[static_cast<std::size_t>(l.dst)] == dv - 1 &&
           (allow_server_transit_ || l.dst == dst ||
            net_.node(l.dst).kind != NodeKind::kServer);
  };
  t.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto dv = t.dist[v];
    std::uint32_t count = 0;
    if (dv > 0)
      for (LinkId lid : net_.node(static_cast<NodeId>(v)).out_links)
        count += is_candidate(lid, dv) ? 1 : 0;
    t.offsets[v + 1] = t.offsets[v] + count;
  }
  t.candidates.resize(t.offsets[n]);
  std::vector<std::uint32_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    const auto dv = t.dist[v];
    if (dv <= 0) continue;
    for (LinkId lid : net_.node(static_cast<NodeId>(v)).out_links)
      if (is_candidate(lid, dv)) t.candidates[cursor[v]++] = lid;
  }
  return t;
}

const EcmpRouter::DestTree& EcmpRouter::tree_for(NodeId dst) {
  check_version();
  auto it = cache_.find(dst);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  if (cache_.size() >= kCacheCapacity && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(dst);
  auto [ins, ok] = cache_.emplace(dst, std::make_pair(build_tree(dst), lru_.begin()));
  assert(ok);
  return ins->second.first;
}

std::vector<LinkId> EcmpRouter::route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                                      int pin_index) {
  std::vector<LinkId> path;
  if (src == dst) return path;
  const DestTree& t = tree_for(dst);
  if (t.dist[static_cast<std::size_t>(src)] < 0) return path;
  NodeId v = src;
  int hop = 0;
  while (v != dst) {
    const auto lo = t.offsets[static_cast<std::size_t>(v)];
    const auto hi = t.offsets[static_cast<std::size_t>(v) + 1];
    assert(hi > lo && "shortest-path tree must have a candidate");
    const LinkId lid = t.candidates[lo + ecmp_pick(flow_hash, hop, pin_index, hi - lo)];
    path.push_back(lid);
    v = net_.link(lid).dst;
    ++hop;
  }
  return path;
}

}  // namespace mixnet::net
