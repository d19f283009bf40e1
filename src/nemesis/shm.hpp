// The Nemesis intra-node channel (§2.1.1): a shared region of fixed-size
// message cells, one free queue + one receive queue per process, lock-free
// enqueue. Large messages are fragmented into cells; the receiver polls its
// single receive queue (which is what makes MPI_ANY_SOURCE cheap here).
//
// Data model: the payload is not copied through the cells on the host. The
// first cell carries the message's whole payload vector (moved, not copied)
// next to the header; every cell, first or continuation, still stands for
// one fragment of min(cell_payload, remaining) bytes, and is dequeued,
// timed, counted and flow-controlled as if it held those bytes. The
// receiver recomputes each fragment's length with the sender's formula and
// delivers the vector once all of its bytes have been counted.
//
// Timing model: copying into a cell occupies the sender CPU (serialized via a
// Channel), each cell then becomes visible to the receiver after
// calib::kShmLatency plus the copy-out cost. Flow control is real: a sender
// with an empty free queue stalls until the receiver polls and returns cells
// — which is why a non-progressing receiver (computing, no PIOMan) stalls
// large shared-memory transfers, exactly the effect PIOMan exists to fix.
#pragma once

#include <any>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "nemesis/lfqueue.hpp"
#include "net/calibration.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace nmx::nemesis {

/// One logical message handed to / delivered by the channel. `header` is an
/// opaque upper-layer struct (CH3 packet header). `payload` moves with the
/// first cell: the receiver gets the very vector the sender handed in, and
/// the cells only account for its bytes (fragment sizes, copy time).
struct Message {
  int src_local = -1;  ///< sender's node-local process index
  std::any header;
  std::vector<std::byte> payload;
};

struct ShmConfig {
  std::size_t cells_per_proc = 64;
  std::size_t cell_payload = calib::kNemesisCellPayload;
};

/// The shared-memory region and queue state of one node.
class ShmNode {
 public:
  /// Called when a full message for `dst_local` has been reassembled by
  /// poll(). Runs on the engine thread at poll time.
  using DeliverFn = std::function<void(Message&&)>;
  /// Called (engine thread) whenever a cell lands in a process's receive
  /// queue — the hook the progress layer / PIOMan mailbox watches.
  using ActivityFn = std::function<void()>;

  ShmNode(sim::Engine& eng, int num_local_procs, ShmConfig cfg = {});

  int num_local_procs() const { return num_local_; }

  void set_deliver(int local_proc, DeliverFn fn);
  void set_activity_hook(int local_proc, ActivityFn fn);

  /// Asynchronously send `msg` to `dst_local`. Per-sender FIFO ordering.
  void send(int dst_local, Message msg);

  /// Drain `local_proc`'s receive queue: dequeue arrived cells, reassemble,
  /// deliver completed messages, return cells to their owners' free queues.
  /// Returns true if any cell was processed. Called from progress engines.
  bool poll(int local_proc);

  /// PIOMan mailbox counter (§3.3.2): incremented when a cell is enqueued,
  /// so the I/O manager "can check the state of shared memory as it checks
  /// the state of networks" without a full poll.
  std::uint64_t mailbox(int local_proc) const;

  std::size_t cells_in_flight() const { return cells_in_flight_; }

 private:
  struct Cell {
    int owner = -1;      ///< process whose free queue this cell belongs to
    int src_local = -1;  ///< filled at send time
    int dst_local = -1;
    bool first = false;           ///< first fragment: carries the header
    std::size_t total_bytes = 0;  ///< payload size of the whole message
    std::any header;              ///< only on first fragment
    std::vector<std::byte> payload;  ///< whole message payload, first fragment only
  };

  struct PendingSend {
    int dst_local;
    Message msg;  ///< payload moves into the first cell
    std::size_t total = 0;   ///< payload size, kept once the payload has moved
    std::size_t offset = 0;  ///< bytes already accounted to cells
    bool started = false;
  };

  struct ProcState {
    LockFreeQueue free_queue;
    LockFreeQueue recv_queue;
    std::deque<PendingSend> sends;  ///< FIFO of outgoing messages
    bool waiting_for_cell = false;
    net::Channel cpu;  ///< serializes this process's copy-in work
    Time last_arrival = 0;  ///< keeps this sender's cell arrivals in order
    DeliverFn deliver;
    ActivityFn activity;
    std::uint64_t mailbox = 0;
    // Reassembly of the in-flight message from each local sender.
    struct Partial {
      bool active = false;
      std::any header;
      std::vector<std::byte> payload;  ///< from the first cell, full size
      std::size_t received = 0;        ///< bytes accounted by cells so far
    };
    std::vector<Partial> partial;  ///< indexed by src_local
  };

  void pump(int src_local);

  sim::Engine& eng_;
  ShmConfig cfg_;
  int num_local_;
  CellPool pool_;
  std::vector<Cell> cells_;
  std::vector<ProcState> procs_;
  std::size_t cells_in_flight_ = 0;
};

}  // namespace nmx::nemesis
