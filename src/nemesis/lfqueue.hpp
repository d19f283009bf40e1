// The Nemesis lock-free queue (Buntinas, Mercier, Gropp — EuroPVM/MPI 2006):
// a multiple-producer / single-consumer queue of fixed-size message cells
// living in a shared region, addressed by index (Nemesis uses offsets so the
// region can map at different addresses in each process; indices model that).
//
// Enqueue is a single atomic exchange on the tail; dequeue is consumer-only.
// This is the real algorithm — the simulator runs it single-threaded by
// construction, and LockFreeQueue.MultiProducerStress (tests/nemesis_test.cpp)
// hammers it with actual concurrent producers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace nmx::nemesis {

using CellIndex = std::int32_t;
inline constexpr CellIndex kNilCell = -1;

/// Per-cell queue linkage. The payload lives alongside in the owner's pool;
/// the queue only ever touches `next`.
struct CellLink {
  std::atomic<CellIndex> next{kNilCell};
};

/// Shared pool of cell links. One pool per simulated shm region.
class CellPool {
 public:
  explicit CellPool(std::size_t n) : links_(n) {}
  CellLink& link(CellIndex i) {
    NMX_ASSERT(i >= 0 && static_cast<std::size_t>(i) < links_.size());
    return links_[static_cast<std::size_t>(i)];
  }
  std::size_t size() const { return links_.size(); }

 private:
  std::vector<CellLink> links_;
};

/// MPSC lock-free queue over a CellPool.
class LockFreeQueue {
 public:
  /// Enqueue `cell` (any thread). The cell must not be in any queue.
  void enqueue(CellPool& pool, CellIndex cell);

  /// Dequeue the head cell (consumer thread only). Returns kNilCell when
  /// empty.
  CellIndex dequeue(CellPool& pool);

  /// Consumer-side emptiness hint (exact for the single consumer).
  bool empty() const { return head_.load(std::memory_order_acquire) == kNilCell; }

 private:
  std::atomic<CellIndex> head_{kNilCell};
  std::atomic<CellIndex> tail_{kNilCell};
};

}  // namespace nmx::nemesis
