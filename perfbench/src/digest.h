// Correctness check of simulated outputs (README.md "Correctness").
//
// Every point's simulated outputs — iteration times, tokens/s, TTFT/TPOT
// p50/p99, reconfiguration and replacement counts — are hashed bit-exactly;
// the ordered point hashes fold into one workload digest. Host time never
// enters a digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.h"

namespace perfbench {

/// Bit-exact hash of one point's simulated outputs.
std::uint64_t point_digest(const mixnet::exp::PointResult& r);

/// Ordered fold of point digests.
std::uint64_t workload_digest(const std::vector<std::uint64_t>& points);

/// Empty when the point ran and every output is finite and positive (counts
/// non-negative); otherwise why not.
std::string check_point(const mixnet::exp::SweepPoint& p,
                        const mixnet::exp::PointResult& r);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
