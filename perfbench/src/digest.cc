#include "digest.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace perfbench {
namespace {

// Serving outputs that enter the digest, in digest order.
constexpr const char* kServeTimes[] = {"ttft_p50_ms", "ttft_p99_ms",
                                       "tpot_p50_ms", "tpot_p99_ms"};
constexpr const char* kServeCounts[] = {"reconfigurations", "replacements"};

double extra(const mixnet::exp::PointResult& r, const char* key) {
  const auto it = r.extra.find(key);
  return it == r.extra.end() ? std::nan("") : it->second;
}

bool positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

std::uint64_t point_digest(const mixnet::exp::PointResult& r) {
  using mixnet::hash64_lane;
  using mixnet::hash64_mix;
  std::uint64_t h = mixnet::kHash64Seed;
  h = hash64_mix(h, hash64_lane(r.iter_sec));
  for (const auto& it : r.iters) {
    h = hash64_mix(h, static_cast<std::uint64_t>(it.total));
    h = hash64_mix(h, hash64_lane(it.tokens_per_sec()));
    h = hash64_mix(h, static_cast<std::uint64_t>(it.reconfigurations));
  }
  for (const char* k : kServeTimes) h = hash64_mix(h, hash64_lane(extra(r, k)));
  for (const char* k : kServeCounts) h = hash64_mix(h, hash64_lane(extra(r, k)));
  return mixnet::hash64_finalize(h);
}

std::uint64_t workload_digest(const std::vector<std::uint64_t>& points) {
  std::uint64_t h = mixnet::kHash64Seed;
  for (const std::uint64_t p : points) h = mixnet::hash64_mix(h, p);
  return mixnet::hash64_finalize(h);
}

std::string check_point(const mixnet::exp::SweepPoint& p,
                        const mixnet::exp::PointResult& r) {
  if (!r.error.empty()) return "threw: " + r.error;
  if (!r.ok()) return "not executed";
  if (!positive(r.iter_sec)) return "non-positive simulated time";
  if (p.serve) {
    for (const char* k : kServeTimes)
      if (!positive(extra(r, k))) return std::string("non-positive ") + k;
    for (const char* k : kServeCounts)
      if (!(extra(r, k) >= 0.0)) return std::string("negative ") + k;
    if (extra(r, "completed") != static_cast<double>(p.serve->n_requests))
      return "requests left incomplete";
    return "";
  }
  if (r.iters.size() != static_cast<std::size_t>(p.iterations))
    return "missing iterations";
  for (const auto& it : r.iters) {
    if (!(it.total > 0)) return "non-positive iteration time";
    if (!positive(it.tokens_per_sec())) return "non-positive tokens/s";
    if (it.reconfigurations < 0) return "negative reconfiguration count";
  }
  return "";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace perfbench
