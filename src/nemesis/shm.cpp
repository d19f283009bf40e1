#include "nemesis/shm.hpp"

#include <algorithm>
#include <utility>

#include "obs/recorder.hpp"

namespace nmx::nemesis {

namespace {
/// Wire size of the serialized header the first cell of a message carries.
constexpr std::size_t kHeaderBytes = 64;

Time copy_time(std::size_t bytes) {
  return static_cast<double>(bytes) / calib::kShmCopyBandwidth;
}
}  // namespace

ShmNode::ShmNode(sim::Engine& eng, int num_local_procs, ShmConfig cfg)
    : eng_(eng),
      cfg_(cfg),
      num_local_(num_local_procs),
      pool_(static_cast<std::size_t>(num_local_procs) * cfg.cells_per_proc),
      cells_(pool_.size()),
      procs_(static_cast<std::size_t>(num_local_procs)) {
  NMX_ASSERT(num_local_ > 0);
  NMX_ASSERT(cfg_.cells_per_proc > 0 && cfg_.cell_payload > 0);
  for (int p = 0; p < num_local_; ++p) {
    for (std::size_t c = 0; c < cfg_.cells_per_proc; ++c) {
      const auto ci = static_cast<CellIndex>(p * cfg_.cells_per_proc + c);
      cells_[static_cast<std::size_t>(ci)].owner = p;
      procs_[p].free_queue.enqueue(pool_, ci);
    }
  }
}

void ShmNode::set_deliver(int local_proc, DeliverFn fn) {
  procs_.at(static_cast<std::size_t>(local_proc)).deliver = std::move(fn);
}

void ShmNode::set_activity_hook(int local_proc, ActivityFn fn) {
  procs_.at(static_cast<std::size_t>(local_proc)).activity = std::move(fn);
}

std::uint64_t ShmNode::mailbox(int local_proc) const {
  return procs_.at(static_cast<std::size_t>(local_proc)).mailbox;
}

void ShmNode::send(int dst_local, Message msg) {
  NMX_ASSERT(msg.src_local >= 0 && msg.src_local < num_local_);
  NMX_ASSERT(dst_local >= 0 && dst_local < num_local_);
  NMX_ASSERT_MSG(msg.src_local != dst_local, "self-sends are short-circuited above Nemesis");
  const int src = msg.src_local;
  const std::size_t total = msg.payload.size();
  procs_[src].sends.push_back(PendingSend{dst_local, std::move(msg), total, 0, false});
  pump(src);
}

void ShmNode::pump(int src_local) {
  ProcState& ps = procs_[static_cast<std::size_t>(src_local)];
  while (!ps.sends.empty()) {
    PendingSend& s = ps.sends.front();
    const std::size_t total = s.total;
    // Inject fragments while cells are available. A zero-byte message still
    // takes one (header-only) cell.
    while (!s.started || s.offset < total) {
      const CellIndex ci = ps.free_queue.dequeue(pool_);
      if (ci == kNilCell) {
        ps.waiting_for_cell = true;  // resume when the receiver returns cells
        return;
      }
      Cell& cell = cells_[static_cast<std::size_t>(ci)];
      const std::size_t frag = std::min(cfg_.cell_payload, total - s.offset);
      cell.src_local = src_local;
      cell.dst_local = s.dst_local;
      cell.msg = kNoMsg;
      cell.total_bytes = total;
      if (!s.started) {
        if (free_msgs_.empty()) {
          free_msgs_.push_back(static_cast<std::uint32_t>(msgs_.size()));
          msgs_.emplace_back();
        }
        cell.msg = free_msgs_.back();
        free_msgs_.pop_back();
        msgs_[cell.msg] = std::move(s.msg);
      }
      s.offset += frag;
      s.started = true;

      // Copy-in occupies the sender CPU; the cell is visible to the
      // receiver after the queue latency plus its copy-out cost. Arrivals
      // are clamped monotonic per sender: enqueue order is program order,
      // even when a small cell follows a large one.
      const std::size_t wire_bytes = frag + (cell.msg != kNoMsg ? kHeaderBytes : 0);
      const net::Channel::Grant g = ps.cpu.reserve(eng_.now(), copy_time(wire_bytes));
      const Time arrival =
          std::max(g.end + calib::kShmLatency + copy_time(wire_bytes), ps.last_arrival);
      ps.last_arrival = arrival;
      ++cells_in_flight_;
      if (obs::Recorder* rec = eng_.recorder()) {
        rec->instant(eng_.now(), src_local, obs::Cat::ShmCell, wire_bytes, s.dst_local);
        rec->metrics().counter("shm.cells").add(1);
        rec->metrics().counter("shm.cell_bytes").add(wire_bytes);
      }
      const int dst = s.dst_local;
      eng_.schedule_checked(arrival, [this, ci, dst] {
        ProcState& pd = procs_[static_cast<std::size_t>(dst)];
        pd.recv_queue.enqueue(pool_, ci);
        ++pd.mailbox;
        if (pd.activity) pd.activity();
      });
    }
    ps.sends.pop_front();
  }
}

bool ShmNode::poll(int local_proc) {
  ProcState& pd = procs_.at(static_cast<std::size_t>(local_proc));
  bool any = false;
  CellIndex ci;
  while ((ci = pd.recv_queue.dequeue(pool_)) != kNilCell) {
    any = true;
    Cell& cell = cells_[static_cast<std::size_t>(ci)];
    NMX_ASSERT(cell.dst_local == local_proc);
    auto entry_of = [&pd](int src) {
      const auto it = std::find_if(pd.partial.begin(), pd.partial.end(),
                                   [src](const Partial& e) { return e.src_local == src; });
      return it == pd.partial.end() ? nullptr : &*it;
    };
    Partial* part = entry_of(cell.src_local);
    if (cell.msg != kNoMsg) {
      NMX_ASSERT_MSG(part == nullptr, "new message started before previous completed");
      NMX_ASSERT_MSG(msgs_[cell.msg].payload.size() == cell.total_bytes,
                     "first cell must carry the whole payload");
      part = entry_of(-1);
      if (part == nullptr) part = &pd.partial.emplace_back();
      *part = Partial{cell.src_local, cell.msg, 0};
    }
    NMX_ASSERT_MSG(part != nullptr, "fragment without a first-fragment header");
    // The sender's fragment formula: this cell stands for the next
    // min(cell_payload, remaining) bytes of the message.
    const std::size_t total = msgs_[part->msg].payload.size();
    NMX_ASSERT_MSG(cell.total_bytes == total, "continuation cell of another message");
    part->received += std::min(cfg_.cell_payload, total - part->received);
    const int owner = cell.owner;

    // Return the cell before delivering: delivery code may trigger sends
    // that need it.
    --cells_in_flight_;
    procs_[static_cast<std::size_t>(owner)].free_queue.enqueue(pool_, ci);
    if (procs_[static_cast<std::size_t>(owner)].waiting_for_cell) {
      procs_[static_cast<std::size_t>(owner)].waiting_for_cell = false;
      pump(owner);
    }

    if (part->received == total) {
      // Take the message out of its slot before delivery: delivery code may
      // send, and a send may grow msgs_ or reuse the slot.
      Message m = std::move(msgs_[part->msg]);
      free_msgs_.push_back(part->msg);
      part->src_local = -1;
      NMX_ASSERT_MSG(pd.deliver != nullptr, "no deliver callback registered");
      pd.deliver(std::move(m));
    }
  }
  return any;
}

}  // namespace nmx::nemesis
