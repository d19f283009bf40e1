#include "baseline/base_transport.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nmx::baseline {

namespace {
constexpr Time kSelfLatency = 0.1_us;
}  // namespace

BaseTransport::BaseTransport(Env env, Time sw_send, Time sw_recv, Time shm_extra)
    : eng_(env.eng),
      fabric_(env.fabric),
      peers_(env.peers),
      shm_(env.shm),
      rank_(env.rank),
      local_index_(env.local_index),
      my_node_(env.fabric->topology().node_of(env.rank)),
      sw_send_(sw_send),
      sw_recv_(sw_recv),
      shm_extra_(shm_extra) {
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

BaseRequest* BaseTransport::match_posted(int src, int tag, int context) {
  auto it = std::find_if(posted_.begin(), posted_.end(), [&](const BaseRequest* r) {
    return mpi::envelope_matches(r->peer, r->tag, r->context, src, tag, context);
  });
  if (it == posted_.end()) return nullptr;
  BaseRequest* r = *it;
  posted_.erase(it);
  return r;
}

bool BaseTransport::match_unexpected(BaseRequest* req) {
  auto it = std::find_if(unexpected_.begin(), unexpected_.end(), [req](const UnexMsg& m) {
    return mpi::envelope_matches(req->peer, req->tag, req->context, m.src, m.tag, m.context);
  });
  if (it == unexpected_.end()) return false;
  UnexMsg msg = std::move(*it);
  unexpected_.erase(it);
  if (msg.rdv) {
    grant_rdv(req, msg.rts);
  } else {
    NMX_ASSERT_MSG(msg.payload.size() <= req->len, "message overflows receive buffer");
    if (!msg.payload.empty()) std::memcpy(req->rbuf, msg.payload.data(), msg.payload.size());
    complete_recv_after(req, msg.src, msg.tag, msg.payload.size(),
                        calib::copy_cost(msg.payload.size()));
  }
  return true;
}

void BaseTransport::deliver_eager(int src, int tag, int context,
                                  std::vector<std::byte> payload) {
  BaseRequest* req = match_posted(src, tag, context);
  if (req == nullptr) {
    UnexMsg u;
    u.src = src;
    u.tag = tag;
    u.context = context;
    u.len = payload.size();
    u.payload = std::move(payload);
    unexpected_.push_back(std::move(u));
    return;
  }
  NMX_ASSERT_MSG(payload.size() <= req->len, "message overflows receive buffer");
  if (!payload.empty()) std::memcpy(req->rbuf, payload.data(), payload.size());
  complete_recv_after(req, src, tag, payload.size(), calib::copy_cost(payload.size()));
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
  if (!match_unexpected(req)) posted_.push_back(req);
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
  switch (pkt.kind) {
    case BasePkt::Kind::Eager:
      deliver_eager(pkt.src, pkt.tag, pkt.context, std::move(pkt.bytes));
      break;
    case BasePkt::Kind::Rts: {
      BaseRequest* req = match_posted(pkt.src, pkt.tag, pkt.context);
      if (req == nullptr) {
        UnexMsg u;
        u.rdv = true;
        u.src = pkt.src;
        u.tag = pkt.tag;
        u.context = pkt.context;
        u.len = pkt.total;
        u.rts = std::move(pkt);
        unexpected_.push_back(std::move(u));
      } else {
        grant_rdv(req, pkt);
      }
      break;
    }
    default:
      handle_protocol(std::move(pkt));
  }
}

std::optional<mpi::Status> BaseTransport::iprobe(int src, int tag, int context) {
  enter_progress();
  leave_progress();
  for (const UnexMsg& m : unexpected_) {
    if (!mpi::envelope_matches(src, tag, context, m.src, m.tag, m.context)) continue;
    mpi::Status st;
    st.source = m.src;
    st.tag = m.tag;
    st.count = m.len;
    return st;
  }
  return std::nullopt;
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
  std::vector<std::byte> payload(bytes, bytes + len);
  const int tag = req->tag;
  const int ctx = req->context;
  eng_->schedule_in_checked(kSelfLatency, [this, tag, ctx, payload = std::move(payload)]() mutable {
    deliver_eager(rank_, tag, ctx, std::move(payload));
  });
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
  const nemesis::ShmHdr& hdr = m.header;
  if (shm_extra_ > 0) {
    eng_->schedule_in_checked(shm_extra_, [this, hdr, payload = std::move(m.payload)]() mutable {
      deliver_eager(hdr.src_rank, hdr.tag, hdr.context, std::move(payload));
    });
  } else {
    deliver_eager(hdr.src_rank, hdr.tag, hdr.context, std::move(m.payload));
  }
}

}  // namespace nmx::baseline
