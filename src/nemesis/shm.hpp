// The Nemesis intra-node channel (§2.1.1): a shared region of fixed-size
// message cells, one free queue + one receive queue per process, lock-free
// enqueue. Large messages are fragmented into cells; the receiver polls its
// single receive queue (which is what makes MPI_ANY_SOURCE cheap here).
//
// Data model: the payload is not copied through the cells on the host. The
// first cell moves the message (header and whole payload vector, not a
// copy) into a recycled pool of in-flight messages and carries only its
// slot index, so a cell is a few indices and a size. Every cell, first or
// continuation, still stands for one fragment of min(cell_payload,
// remaining) bytes, and is dequeued, timed, counted and flow-controlled as
// if it held those bytes. The receiver keeps one reassembly entry per
// sender with a message in flight to it (reused once that message
// completes), recomputes each fragment's length with the sender's formula
// and delivers the vector once all of its bytes have been counted. So the
// node's memory grows with its cells and its traffic, not with the square
// of its process count.
//
// Timing model: copying into a cell occupies the sender CPU (serialized via a
// Channel), each cell then becomes visible to the receiver after
// calib::kShmLatency plus the copy-out cost. Flow control is real: a sender
// with an empty free queue stalls until the receiver polls and returns cells
// — which is why a non-progressing receiver (computing, no PIOMan) stalls
// large shared-memory transfers, exactly the effect PIOMan exists to fix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "nemesis/lfqueue.hpp"
#include "net/calibration.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace nmx::nemesis {

/// Header of a message; it rides the message's first cell. The one header
/// of every upper layer: CH3 uses it on shared memory and, serialized, on its
/// legacy netmod cells; the baseline stacks' shm path sends Eager ones. The
/// rendezvous kinds implement CH3's RTS/CTS/DATA protocol of Figure 2.
struct ShmHdr {
  enum class Kind : std::uint8_t { Eager, Rts, Cts, Data };
  Kind kind = Kind::Eager;
  int src_rank = -1;
  int tag = 0;
  int context = 0;
  std::uint64_t rdv_id = 0;
  std::size_t len = 0;     ///< full payload size (Rts announces it)
  std::uint64_t span = 0;  ///< sender's message-lifecycle span (tracing)
};

/// One logical message handed to / delivered by the channel. It moves with
/// the first cell: the receiver gets the very payload vector the sender
/// handed in, and the cells only account for its bytes (fragment sizes,
/// copy time).
struct Message {
  int src_local = -1;  ///< sender's node-local process index
  ShmHdr header;
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
  /// Reassembly entries `local_proc` holds: the peak number of senders
  /// with a message in flight to it at once.
  std::size_t reassembly_slots(int local_proc) const {
    return procs_.at(static_cast<std::size_t>(local_proc)).partial.size();
  }

 private:
  /// Marks a continuation cell: it carries no in-flight message slot.
  static constexpr std::uint32_t kNoMsg = ~std::uint32_t{0};

  struct Cell {
    int owner = -1;      ///< process whose free queue this cell belongs to
    int src_local = -1;  ///< filled at send time
    int dst_local = -1;
    std::uint32_t msg = kNoMsg;   ///< first fragment: its slot in msgs_
    std::size_t total_bytes = 0;  ///< payload size of the whole message
  };
  static_assert(sizeof(Cell) <= 24, "a cell holds indices, not the message");

  struct PendingSend {
    int dst_local;
    Message msg;  ///< moves into msgs_ with the first cell
    std::size_t total = 0;   ///< payload size, kept once the payload has moved
    std::size_t offset = 0;  ///< bytes already accounted to cells
    bool started = false;
  };

  /// Reassembly of the in-flight message from one local sender.
  struct Partial {
    int src_local = -1;        ///< -1: free, reused by the next first cell
    std::uint32_t msg = 0;     ///< slot in msgs_ named by the first cell
    std::size_t received = 0;  ///< bytes accounted by cells so far
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
    /// One entry per sender with a message in flight to this process, so
    /// it never outgrows the peak number of concurrently active senders.
    std::vector<Partial> partial;
  };

  void pump(int src_local);

  sim::Engine& eng_;
  ShmConfig cfg_;
  int num_local_;
  CellPool pool_;
  std::vector<Cell> cells_;
  std::vector<ProcState> procs_;
  /// Messages whose first cell is in flight or reassembling; slots are
  /// recycled through free_msgs_, so steady state allocates nothing.
  std::vector<Message> msgs_;
  std::vector<std::uint32_t> free_msgs_;
  std::size_t cells_in_flight_ = 0;
};

}  // namespace nmx::nemesis
