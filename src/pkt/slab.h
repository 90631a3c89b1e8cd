// Index-based slab allocator for packet descriptors.
//
// alloc() pops a free slot or grows the backing vector; free() pushes the
// slot back. After the pool warms up to the peak number of in-flight packets
// (bounded by flows x window), the steady state does zero allocation — the
// property the packet engine's slab-reuse test asserts.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace mixnet::pkt {

template <typename T>
class Slab {
 public:
  std::int32_t alloc() {
    if (!free_.empty()) {
      const std::int32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::int32_t>(slots_.size() - 1);
  }

  void release(std::int32_t idx) {
    assert(idx >= 0 && static_cast<std::size_t>(idx) < slots_.size());
    free_.push_back(idx);
  }

  T& operator[](std::int32_t idx) {
    return slots_[static_cast<std::size_t>(idx)];
  }
  const T& operator[](std::int32_t idx) const {
    return slots_[static_cast<std::size_t>(idx)];
  }

  /// Total slots ever created (high-water mark of in-flight descriptors).
  std::size_t capacity() const { return slots_.size(); }
  /// Slots currently handed out.
  std::size_t live() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::int32_t> free_;
};

}  // namespace mixnet::pkt
