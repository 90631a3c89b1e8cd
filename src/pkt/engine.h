// Packet engine (DESIGN.md §12).
//
// A store-and-forward packet simulator with the same semantics as the
// net::PacketSim test oracle — flows chopped into MTU packets, per-flow
// windowed injection, FIFO links — built around flat data so packet-mode
// runs of full training scenarios are affordable:
//
//   * dense flow/link tables and an index-based slab of 32-byte packet
//     descriptors (zero per-packet allocation once the pool warms up);
//   * eager scalar link clocks: a FIFO link serializes departures, so the
//     departure time of the last packet scheduled on it (`clear`) fully
//     determines every later departure. Forwarding a packet is pure
//     arithmetic — max(arrival, clear) + serialization — and its next-hop
//     event is scheduled at enqueue time. Enqueue order equals FIFO
//     service order, so this produces exactly the event times a lazy
//     head-of-line dispatcher would, with no per-link queue structure and
//     no "link freed" event class at all;
//   * a timing wheel instead of a priority queue: a power-of-two ring of
//     nanosecond buckets (intrusive slot chains plus a one-bit-per-bucket
//     occupancy bitmap) makes insertion O(1) pointer pushes and extraction
//     a ctz scan over the bitmap — no data-dependent sift loops, which is
//     where a binary heap burns its time at this event density. Eager
//     offsets are not bounded by one hop's tx + delay (a backlogged clear
//     clock runs a whole window ahead), so the span self-sizes: it is
//     warm-started from max(tx_mtu + delay), doubles on demand up to
//     2^16 ns, and events beyond the cap wait in a small packed 4-ary heap
//     that migrates into the wheel as the cursor approaches;
//   * one loop per event instant: every arrival at time t is processed in
//     content-key order (flow id, per-flow packet sequence) — never
//     creation, bucket or heap order — and only then do window credits
//     refill, so results are a function of the traffic alone;
//   * completions reported per instant via advance(), not one callback per
//     packet.
//
// All internal times are relative to the first add_flow() so they pack
// into 41 bits (~36 virtual minutes per engine — transports are per-phase,
// phases are milliseconds). A phase runs on a frozen fabric (DESIGN.md §6):
// the engine holds the network by const reference and reads each link's
// parameters once, when a flow first crosses it.
//
// The engine owns no clock: the PacketTransport adapter drains it against
// the eventsim::Simulator horizon (see pkt/transport.h). tests/pkt_test.cc
// diffs it against the net::PacketSim golden oracle (tests/oracle/).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/network.h"
#include "pkt/config.h"
#include "pkt/slab.h"

namespace mixnet::pkt {

/// Engine-local flow handle (dense index into the flow table).
using PktFlowId = std::int32_t;

struct Completion {
  PktFlowId flow;
  TimeNs at;
};

class Engine {
 public:
  Engine(const net::Network& net, PacketConfig cfg = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a flow and inject its initial window at time `now`. `path`
  /// must be non-empty (intra-node transfers are the adapter's job) and
  /// `size` positive. `now` must be >= every previously processed instant.
  PktFlowId add_flow(Bytes size, const std::vector<net::LinkId>& path,
                     TimeNs now);

  /// Earliest pending internal event, or kTimeInf when idle.
  TimeNs next_time() const;

  /// Process event instants with timestamp <= limit, stopping early after
  /// the first instant that completes one or more flows. Returns the batch
  /// of completions (possibly empty if the engine drained to `limit`); the
  /// reference is valid until the next advance() or add_flow() call.
  const std::vector<Completion>& advance(TimeNs limit);

  // Counters for benchmarks and tests.
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::size_t slab_capacity() const { return slab_.capacity(); }
  std::size_t slab_live() const { return slab_.live(); }

 private:
  // Overflow-heap event: (engine-relative arrival time << kSlotBits) | slot.
  // 23 slot bits allow 8M live descriptors (window-bounded in practice).
  // An arrival at or beyond kMaxRel means the link is dead (see schedule()).
  static constexpr int kSlotBits = 23;
  static constexpr std::int32_t kMaxSlots = std::int32_t{1} << kSlotBits;
  static constexpr TimeNs kMaxRel = TimeNs{1} << 41;

  // Wheel sizing: spans are powers of two between one bitmap word and the
  // cap; events beyond wheel_pos_ + span wait in the overflow heap.
  static constexpr std::size_t kMinSpan = 64;
  static constexpr std::size_t kMaxSpan = std::size_t{1} << 16;

  static std::uint64_t pack(TimeNs rel_t, std::int32_t slot) {
    return (static_cast<std::uint64_t>(rel_t) << kSlotBits) |
           static_cast<std::uint64_t>(slot);
  }
  static TimeNs ev_time(std::uint64_t ev) {
    return static_cast<TimeNs>(ev >> kSlotBits);
  }
  static std::int32_t ev_slot(std::uint64_t ev) {
    return static_cast<std::int32_t>(ev &
                                     ((std::uint64_t{1} << kSlotBits) - 1));
  }

  // One cache line holds two descriptors; every field of a descriptor is
  // touched together when its event fires, so the layout is entity-grouped
  // rather than struct-of-arrays.
  struct PacketSlot {
    Bytes size = 0.0;
    TimeNs arrived = 0;      // the pending arrival event's time
    PktFlowId flow = -1;
    std::int32_t seq = 0;    // per-flow injection sequence
    std::int32_t next = -1;  // intrusive wheel bucket chain
    std::int16_t hop = 0;    // index into the flow's path
    std::uint8_t last = 0;
  };
  static_assert(sizeof(PacketSlot) == 32, "two descriptors per cache line");

  struct FlowState {
    Bytes size = 0.0;
    Bytes injected = 0.0;
    std::int32_t in_flight = 0;
    std::int32_t next_seq = 0;
    std::int32_t path_begin = 0;
    std::int32_t path_len = 0;
    std::uint8_t done = 0;
  };

  // A FIFO link needs no queue structure: `clear` — the departure time of
  // the last packet scheduled on it — fully determines every later
  // departure. Capacity, delay and the MTU serialization time are cached
  // here because net::Link carries a label string — touching it per
  // scheduled packet is a guaranteed cache miss. They are read once, when
  // a flow first crosses the link (tx_mtu < 0 until then): an engine lives
  // for one phase, and a phase never changes the fabric (DESIGN.md §6).
  struct LinkState {
    TimeNs clear = 0;
    TimeNs delay = 0;
    TimeNs tx_mtu = -1;
    Bps cap = 0.0;
  };
  static_assert(sizeof(LinkState) == 32, "two links per cache line");

  void process_instant(TimeNs t);  // consumes keyed_
  void gather_sorted(std::int32_t slot);
  void process_arrival(std::int32_t slot, TimeNs t);
  void inject(PktFlowId f, TimeNs t);
  void schedule(net::LinkId lid, std::int32_t slot, TimeNs t);
  void ensure_link(net::LinkId lid);
  void update_horizon(const LinkState& ls);

  void wheel_insert(TimeNs at, std::int32_t slot);
  void wheel_place(TimeNs at, std::int32_t slot);
  TimeNs wheel_scan() const;  // precondition: wheel_live_ > 0
  void rebucket(std::size_t span);

  void heap_push(std::uint64_t ev);
  std::uint64_t heap_pop();

  const net::Network& net_;
  PacketConfig cfg_;

  std::vector<FlowState> flows_;
  std::vector<net::LinkId> path_pool_;
  std::vector<LinkState> links_;  // indexed by LinkId; grown on demand

  Slab<PacketSlot> slab_;

  // Timing wheel. Invariants: every wheel event's time is in
  // [wheel_pos_, wheel_pos_ + span); wheel_pos_ never exceeds the last
  // processed instant (so new events, which are >= now, always land at or
  // after it); heap events are >= wheel_pos_ + span when pushed and are
  // migrated into the wheel as wheel_pos_ catches up.
  std::vector<std::int32_t> bucket_;   // -1-terminated intrusive chains
  std::vector<std::uint64_t> bitmap_;  // one occupancy bit per bucket
  std::size_t mask_ = 0;               // span - 1
  TimeNs wheel_pos_ = 0;               // scan cursor (relative time)
  std::size_t wheel_live_ = 0;
  TimeNs horizon_ = 0;  // max (tx_mtu + delay) over live links, monotone;
                        // warm-start lower bound for the span

  std::vector<std::uint64_t> heap_;  // flat 4-ary min-heap (overflow only)
  TimeNs base_ = -1;                 // set by the first add_flow()

  // Per-instant scratch, persistent across instants to avoid reallocation:
  // same-time arrivals as (content key, slot), kept sorted on insert.
  std::vector<std::pair<std::uint64_t, std::int32_t>> keyed_;
  std::vector<PktFlowId> refill_;
  std::vector<Completion> completions_;

  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace mixnet::pkt
