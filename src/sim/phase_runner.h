// PhaseRunner: run one communication phase to completion in isolation.
//
// The training simulator composes an iteration from per-phase durations
// (DESIGN.md §6): because a region's all-to-all traffic never shares
// bottleneck links with other regions on the evaluated fabrics (EP is
// region-local; electrical cores are non-blocking above the leaf), each
// phase can be simulated independently on the live fabric graph and its
// duration reused for every micro-batch that repeats it.
//
// Each call spins up a fresh event simulator + flow simulator + collective
// engine over the shared Network, runs the requested collective, and returns
// the completion time. PhaseRunner, the collective engine and every
// transport hold the fabric by const reference, so a phase cannot change
// the fabric it runs on: OCS reconfiguration and failure injection happen
// between phases, through the fabric's owner.
//
// Phase results are memoized (DESIGN.md §6): the key is (phase kind,
// topology epoch, participant set, 64-bit demand hash), so a phase whose
// inputs and fabric state are unchanged returns its cached duration without
// re-simulating. Registered scenarios almost never repeat a key (DESIGN.md
// §6 records the measurement). Topology mutations (OCS reconfiguration,
// failure injection) change the fabric epoch and therefore miss;
// set_relays() drops the cache outright because relay rules are PhaseRunner
// state the epoch cannot see. The cache is LRU-bounded; stats() reports
// hits/misses/invalidations.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "collective/engine.h"
#include "common/matrix.h"
#include "control/failures.h"
#include "moe/placement.h"
#include "net/routing.h"
#include "net/transport.h"
#include "pkt/config.h"
#include "topo/fabric.h"

namespace mixnet::sim {

/// Phase-cache counters (see PhaseRunner::stats()).
struct PhaseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< explicit cache drops (relay changes)
  std::size_t entries = 0;          ///< live cached phases
};

class PhaseRunner {
 public:
  /// `backend` selects the fidelity-ladder rung each phase is simulated on
  /// (DESIGN.md §12); `pkt` tunes the packet engine when backend == kPacket.
  /// The fabric is read-only here: a phase never changes it, and the
  /// caller's mutations between phases move its epoch.
  explicit PhaseRunner(const topo::Fabric& fabric,
                       collective::EngineConfig ecfg = {},
                       std::size_t cache_capacity = 1024,
                       net::NetBackend backend = net::NetBackend::kFlow,
                       pkt::PacketConfig pkt = {});

  /// Relay rules applied to every engine instance (failure scenarios).
  /// Drops every cached phase: relays change results without touching the
  /// fabric, so the topology epoch alone cannot invalidate them.
  void set_relays(const std::vector<control::RelayRule>& relays);

  /// EP all-to-all among `group_servers` with server-level `bytes`.
  TimeNs ep_all_to_all(const std::vector<int>& group_servers, const Matrix& bytes);

  /// Point-to-point transfer.
  TimeNs send(int src_server, int dst_server, Bytes bytes);

  /// Ring all-reduce among servers.
  TimeNs all_reduce(const std::vector<int>& servers, Bytes bytes);

  /// All DP gradient rings of a job running concurrently: for every server
  /// position within a replica, a hierarchical all-reduce across replicas.
  /// `servers_per_replica` positions; `dp` replicas; contiguous placement.
  TimeNs dp_all_reduce(int servers_per_replica, int dp, Bytes bytes_per_gpu);

  net::EcmpRouter& router() { return router_; }

  /// Cache hit/miss/invalidation counters since construction.
  PhaseCacheStats stats() const;

 private:
  enum class PhaseKind : std::uint8_t {
    kEpAllToAll,
    kSend,
    kAllReduce,
    kDpAllReduce,
  };

  struct CacheKey {
    PhaseKind kind = PhaseKind::kSend;
    std::uint64_t epoch = 0;
    std::vector<int> participants;  // exact, not hashed: collisions impossible
    std::uint64_t demand_hash = 0;  // matrix_hash / payload-size hash

    bool operator==(const CacheKey& o) const {
      return kind == o.kind && epoch == o.epoch && demand_hash == o.demand_hash &&
             participants == o.participants;
    }
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const;
  };

  template <typename LaunchFn>
  TimeNs run_phase(const char* label, LaunchFn&& launch);

  /// Serve `key` from the cache, or run the phase and insert (LRU-evicting).
  template <typename LaunchFn>
  TimeNs cached_phase(const char* label, CacheKey key, LaunchFn&& launch);

  const topo::Fabric& fabric_;
  collective::EngineConfig ecfg_;
  net::NetBackend backend_;
  pkt::PacketConfig pkt_;
  net::EcmpRouter router_;
  std::vector<control::RelayRule> relays_;

  // LRU phase cache. Each key is stored once, in the map; the LRU list holds
  // pointers to the map's keys (node-based, so addresses are stable), front
  // = most recent.
  struct CacheEntry {
    TimeNs duration = 0;
    std::list<const CacheKey*>::iterator lru_it;
  };
  std::size_t cache_capacity_;
  std::list<const CacheKey*> lru_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace mixnet::sim
