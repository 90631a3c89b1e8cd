// Tunables for the packet engine (DESIGN.md §12).
#pragma once

#include "common/units.h"

namespace mixnet::pkt {

struct PacketConfig {
  /// Flows are chopped into MTU-sized packets; the final packet carries the
  /// remainder. Matches net::PacketSim's default so differential tests
  /// compare like with like.
  Bytes mtu_bytes = 4096.0;

  /// Per-flow window: at most this many packets of a flow are in flight
  /// (queued or on the wire) at once. Credit returns on final-hop delivery.
  int window_packets = 8;
};

}  // namespace mixnet::pkt
