// Reference max-min solver: the oracle for net::FlowSim's incremental fast
// path (DESIGN.md §6).
//
// Test support, not part of any src/ layer. A from-scratch progressive-
// filling solve over fresh working state sized to the whole network, with
// no incremental bookkeeping. It sees only the public Network and the
// flows' paths, so it shares nothing with the solver it checks.
#pragma once

#include <vector>

#include "net/network.h"

namespace mixnet::net {

/// Max-min fair rates of the live flows, given their paths in start
/// (FlowId) order; result i is the rate of paths[i]. A flow whose path
/// crosses a down or zero-capacity link rates 0. Flows freeze in start
/// order, as in FlowSim, so a rate comparison is exact, not merely within
/// tolerance.
std::vector<Bps> maxmin_rates(const Network& net,
                              const std::vector<std::vector<LinkId>>& paths);

}  // namespace mixnet::net
