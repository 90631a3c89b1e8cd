#include "net/network.h"

#include <cassert>
#include <utility>

namespace mixnet::net {

void Network::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  links_.reserve(links);
}

NodeId Network::add_node(NodeKind kind) {
  Node n;
  n.kind = kind;
  nodes_.push_back(std::move(n));
  ++version_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId Network::add_link(NodeId src, NodeId dst, Bps capacity, TimeNs delay) {
  assert(src >= 0 && static_cast<std::size_t>(src) < nodes_.size());
  assert(dst >= 0 && static_cast<std::size_t>(dst) < nodes_.size());
  assert(src != dst);
  Link l;
  l.src = src;
  l.dst = dst;
  l.capacity = capacity;
  l.delay = delay;
  links_.push_back(l);
  const auto id = static_cast<LinkId>(links_.size() - 1);
  nodes_[static_cast<std::size_t>(src)].out_links.push_back(id);
  nodes_[static_cast<std::size_t>(dst)].in_links.push_back(id);
  ++version_;
  return id;
}

std::pair<LinkId, LinkId> Network::add_duplex(NodeId a, NodeId b, Bps capacity,
                                              TimeNs delay) {
  LinkId ab = add_link(a, b, capacity, delay);
  LinkId ba = add_link(b, a, capacity, delay);
  return {ab, ba};
}

void Network::set_capacity(LinkId id, Bps capacity) {
  links_[static_cast<std::size_t>(id)].capacity = capacity;
  ++version_;
}

void Network::set_up(LinkId id, bool up) {
  auto& l = links_[static_cast<std::size_t>(id)];
  if (l.up != up) {
    l.up = up;
    ++version_;
  }
}

LinkId Network::find_link(NodeId src, NodeId dst) const {
  for (LinkId id : nodes_[static_cast<std::size_t>(src)].out_links) {
    const Link& l = links_[static_cast<std::size_t>(id)];
    if (l.dst == dst && l.up) return id;
  }
  return kInvalidLink;
}

}  // namespace mixnet::net
