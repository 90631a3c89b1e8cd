#include "oracle/maxmin.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mixnet::net {

std::vector<Bps> maxmin_rates(const Network& net,
                              const std::vector<std::vector<LinkId>>& paths) {
  const std::size_t n_links = net.link_count();
  std::vector<double> rem_cap(n_links, 0.0);
  std::vector<std::int32_t> unfrozen_count(n_links, 0);
  std::vector<Bps> rates(paths.size(), 0.0);

  std::vector<std::size_t> unfrozen;
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const bool stalled =
        std::any_of(paths[f].begin(), paths[f].end(), [&](LinkId lid) {
          const Link& l = net.link(lid);
          return !l.up || l.capacity <= 0.0;
        });
    if (stalled) continue;
    unfrozen.push_back(f);
    for (LinkId lid : paths[f]) ++unfrozen_count[static_cast<std::size_t>(lid)];
  }
  std::vector<std::size_t> active_links;
  for (std::size_t lid = 0; lid < n_links; ++lid) {
    if (unfrozen_count[lid] > 0) {
      rem_cap[lid] = net.link(static_cast<LinkId>(lid)).capacity;
      active_links.push_back(lid);
    }
  }

  while (!unfrozen.empty()) {
    double min_share = std::numeric_limits<double>::infinity();
    for (std::size_t i : active_links)
      if (unfrozen_count[i] > 0)
        min_share = std::min(min_share, rem_cap[i] / unfrozen_count[i]);
    if (!std::isfinite(min_share)) break;
    if (min_share < 0.0) min_share = 0.0;

    // Freeze every flow crossing a bottleneck link at min_share.
    bool froze_any = false;
    std::size_t keep = 0;
    for (std::size_t f : unfrozen) {
      const bool bottlenecked =
          std::any_of(paths[f].begin(), paths[f].end(), [&](LinkId lid) {
            const auto i = static_cast<std::size_t>(lid);
            return rem_cap[i] / unfrozen_count[i] <= min_share * (1.0 + 1e-12);
          });
      if (!bottlenecked) {
        unfrozen[keep++] = f;
        continue;
      }
      rates[f] = min_share;
      for (LinkId lid : paths[f]) {
        const auto i = static_cast<std::size_t>(lid);
        rem_cap[i] = std::max(rem_cap[i] - min_share, 0.0);
        --unfrozen_count[i];
      }
      froze_any = true;
    }
    unfrozen.resize(keep);
    if (!froze_any) break;
  }
  return rates;
}

}  // namespace mixnet::net
