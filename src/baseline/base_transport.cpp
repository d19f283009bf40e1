#include "baseline/base_transport.hpp"

#include <cstring>
#include <utility>

namespace nmx::baseline {

namespace {
constexpr Time kSelfLatency = 0.1_us;
}  // namespace

BaseTransport::BaseTransport(Env env, Time sw_send, Time sw_recv, Time shm_extra,
                             std::size_t eager_max)
    : eng_(env.eng),
      fabric_(env.fabric),
      peers_(env.peers),
      shm_(env.shm),
      rank_(env.rank),
      local_index_(env.local_index),
      my_node_(env.fabric->topology().node_of(env.rank)),
      sw_send_(sw_send),
      sw_recv_(sw_recv),
      shm_extra_(shm_extra),
      eager_max_(eager_max) {
  peers_->add(rank_, this);
  if (shm_) {
    shm_->set_deliver(local_index_, [this](nemesis::Message&& m) { handle_shm(std::move(m)); });
    shm_->set_activity_hook(local_index_, [this] {
      if (in_progress()) shm_->poll(local_index_);
      // No PIOMan equivalent: cells wait for the next MPI call.
    });
  }
}

BaseTransport::~BaseTransport() = default;

BaseRequest* BaseTransport::new_request(BaseRequest::Kind kind) {
  requests_.emplace_back();
  auto it = std::prev(requests_.end());
  it->self = it;
  it->kind = kind;
  return &*it;
}

void BaseTransport::release(mpi::TxRequest* r) {
  auto* req = static_cast<BaseRequest*>(r);
  NMX_ASSERT_MSG(req->completed, "releasing an incomplete request");
  requests_.erase(req->self);
}

// ---------------------------------------------------------------------------
// matching
// ---------------------------------------------------------------------------

void BaseTransport::arrive(BasePkt&& pkt) {
  if (BaseRequest* req = queues_.take_posted(pkt)) {
    accept(req, std::move(pkt));
  } else {
    queues_.park(std::move(pkt));
  }
}

void BaseTransport::accept(BaseRequest* req, BasePkt&& pkt) {
  if (pkt.kind == BasePkt::Kind::Rts) {
    grant_rdv(req, pkt);
    return;
  }
  const std::size_t n = pkt.bytes.size();
  NMX_ASSERT_MSG(n <= req->len, "message overflows receive buffer");
  if (n > 0) std::memcpy(req->rbuf, pkt.bytes.data(), n);
  complete_recv_after(req, pkt.src, pkt.tag, n, calib::copy_cost(n));
}

// ---------------------------------------------------------------------------
// isend / irecv
// ---------------------------------------------------------------------------

mpi::TxRequest* BaseTransport::isend(int dst, int tag, int context, const void* buf,
                                     std::size_t len) {
  BaseRequest* req = new_request(BaseRequest::Kind::Send);
  req->peer = dst;
  req->tag = tag;
  req->context = context;
  req->len = len;
  if (dst == rank_) {
    send_self(req, buf, len);
  } else if (fabric_->topology().same_node(rank_, dst)) {
    send_shm(req, buf, len);
  } else {
    net_send(req, buf, len);
  }
  return req;
}

mpi::TxRequest* BaseTransport::irecv(int src, int tag, int context, void* buf,
                                     std::size_t len) {
  BaseRequest* req = new_request(BaseRequest::Kind::Recv);
  req->peer = src;
  req->tag = tag;
  req->context = context;
  req->rbuf = static_cast<std::byte*>(buf);
  req->len = len;
  if (std::optional<BasePkt> pkt = queues_.take_unexpected(*req)) {
    accept(req, std::move(*pkt));
  } else {
    queues_.post(req);
  }
  return req;
}

// ---------------------------------------------------------------------------
// completions
// ---------------------------------------------------------------------------

void BaseTransport::complete_recv_after(BaseRequest* req, int src, int tag, std::size_t count,
                                        Time delay) {
  req->status.source = src;
  req->status.tag = tag;
  req->status.count = count;
  if (delay > 0) {
    eng_->schedule_in_checked(delay, [req] { req->complete_and_wake(); });
  } else {
    req->complete_and_wake();
  }
}

void BaseTransport::complete_send(BaseRequest* req) {
  req->status.count = req->len;
  req->complete_and_wake();
}

// ---------------------------------------------------------------------------
// network path
// ---------------------------------------------------------------------------

void BaseTransport::net_send(BaseRequest* req, const void* buf, std::size_t len) {
  const auto* bytes = static_cast<const std::byte*>(buf);
  BasePkt pkt{.src = rank_, .tag = req->tag, .context = req->context, .len = len, .bytes = {}};
  if (len <= eager_max_) {
    // Copied into the packet (a pre-registered buffer): the send completes
    // at local NIC egress.
    pkt.bytes.assign(bytes, bytes + len);
    post_tx(req->peer, calib::copy_cost(len), std::move(pkt), req);
    return;
  }
  pkt.kind = BasePkt::Kind::Rts;
  pkt.xid = next_xid_++;
  rdv_out_.emplace(pkt.xid, RdvOut{req, bytes});
  post_tx(req->peer, 0, std::move(pkt));
}

void BaseTransport::post_tx(int dst, Time prep, BasePkt pkt, BaseRequest* req) {
  PendingTx tx{dst, prep, std::move(pkt), req};
  if (in_progress()) {
    inject(std::move(tx));
  } else {
    pending_tx_.push_back(std::move(tx));  // no progress engine running
  }
}

void BaseTransport::inject(PendingTx tx) {
  // Send-side software (sw cost + copy/registration prep) serializes on the
  // host CPU; the NIC then serializes transfers on its own.
  const net::Channel::Grant g = prep_cpu_.reserve(eng_->now(), sw_send_ + tx.prep);
  eng_->schedule_checked(g.end, [this, pkt = std::move(tx.pkt), req = tx.req,
                                 dst = tx.dst]() mutable {
    const std::uint64_t xid = pkt.xid;
    const net::WirePacket hdr{my_node_, fabric_->topology().node_of(dst), rail(),
                              pkt.wire_bytes()};
    const Time egress =
        fabric_->transmit(hdr, [peers = peers_, dst, pkt = std::move(pkt)]() mutable {
          (*peers)[dst].rx_wire(std::move(pkt));
        });
    if (req != nullptr) {
      eng_->schedule_checked(egress, [this, req, xid] { on_send_egress(req, xid); });
    }
  });
}

void BaseTransport::on_send_egress(BaseRequest* req, std::uint64_t /*xid*/) {
  complete_send(req);
}

void BaseTransport::rx_wire(BasePkt&& pkt) {
  pending_rx_.push_back(std::move(pkt));
  if (in_progress()) drain();
  // else: no background progress — handled at the next MPI call.
}

void BaseTransport::drain() {
  while (!pending_rx_.empty()) {
    BasePkt p = std::move(pending_rx_.front());
    pending_rx_.pop_front();
    eng_->schedule_in_checked(sw_recv_, [this, p = std::move(p)]() mutable { deliver(std::move(p)); });
  }
  while (!pending_tx_.empty()) {
    PendingTx tx = std::move(pending_tx_.front());
    pending_tx_.pop_front();
    inject(std::move(tx));
  }
}

void BaseTransport::deliver(BasePkt&& pkt) {
  if (pkt.kind == BasePkt::Kind::Eager || pkt.kind == BasePkt::Kind::Rts) {
    arrive(std::move(pkt));
  } else {
    handle_protocol(std::move(pkt));
  }
}

std::optional<mpi::Status> BaseTransport::iprobe(int src, int tag, int context) {
  enter_progress();
  leave_progress();
  return queues_.probe(src, tag, context);
}

void BaseTransport::enter_progress() {
  ++depth_;
  drain();
  if (shm_) shm_->poll(local_index_);
}

void BaseTransport::leave_progress() {
  NMX_ASSERT(depth_ > 0);
  --depth_;
}

// ---------------------------------------------------------------------------
// self and shared-memory paths
// ---------------------------------------------------------------------------

void BaseTransport::send_self(BaseRequest* req, const void* buf, std::size_t len) {
  const auto* bytes = static_cast<const std::byte*>(buf);
  BasePkt pkt{.src = rank_, .tag = req->tag, .context = req->context, .len = len,
              .bytes = {bytes, bytes + len}};
  eng_->schedule_in_checked(kSelfLatency,
                            [this, pkt = std::move(pkt)]() mutable { arrive(std::move(pkt)); });
  complete_send(req);
}

void BaseTransport::send_shm(BaseRequest* req, const void* buf, std::size_t len) {
  NMX_ASSERT_MSG(shm_ != nullptr, "same-node send without a shared-memory region");
  nemesis::Message m;
  m.src_local = local_index_;
  m.header.src_rank = rank_;
  m.header.tag = req->tag;
  m.header.context = req->context;
  const auto* bytes = static_cast<const std::byte*>(buf);
  m.payload.assign(bytes, bytes + len);
  shm_->send(fabric_->topology().local_index(req->peer), std::move(m));
  complete_send(req);  // copied into the message — buffer reusable
}

void BaseTransport::handle_shm(nemesis::Message&& m) {
  BasePkt pkt{.src = m.header.src_rank, .tag = m.header.tag, .context = m.header.context,
              .len = m.payload.size(), .bytes = std::move(m.payload)};
  if (shm_extra_ > 0) {
    eng_->schedule_in_checked(shm_extra_,
                              [this, pkt = std::move(pkt)]() mutable { arrive(std::move(pkt)); });
  } else {
    arrive(std::move(pkt));
  }
}

}  // namespace nmx::baseline
