#include "baseline/mvapich.hpp"

#include <cstring>

#include "obs/recorder.hpp"

namespace nmx::baseline {

namespace {
constexpr std::size_t kRcacheCapacity = 1_GiB;
}  // namespace

MvapichTransport::MvapichTransport(Env env, bool use_rcache)
    : BaseTransport(env, calib::kMvapichSwSend, calib::kMvapichSwRecv, /*shm_extra=*/0.05_us),
      use_rcache_(use_rcache),
      rcache_(kRcacheCapacity, [](std::size_t bytes) { return calib::ib_reg_cost(bytes); }) {}

Time MvapichTransport::acquire_registration(const void* buf, std::size_t len) {
  if (!fabric().profile(rail()).needs_registration) return 0;
  if (!use_rcache_) return calib::ib_reg_cost(len);
  const std::size_t hits_before = rcache_.hits();
  const Time cost = rcache_.acquire(reinterpret_cast<std::uintptr_t>(buf), len);
  if (obs::Recorder* rec = eng().recorder()) {
    const bool hit = rcache_.hits() > hits_before;
    rec->metrics().counter(hit ? "rcache.hits" : "rcache.misses").add(1);
  }
  return cost;
}

void MvapichTransport::net_send(BaseRequest* req, const void* buf, std::size_t len) {
  if (len <= calib::kMvapichEagerThreshold) {
    // Copy through a pre-registered vbuf; completes at local NIC completion.
    BasePkt pkt;
    pkt.kind = BasePkt::Kind::Eager;
    pkt.src = rank();
    pkt.tag = req->tag;
    pkt.context = req->context;
    pkt.bytes.resize(len);
    if (len > 0) std::memcpy(pkt.bytes.data(), buf, len);
    post_tx(req->peer, calib::copy_cost(len), std::move(pkt), req);
    return;
  }
  // RDMA rendezvous.
  const std::uint64_t xid = next_xid_++;
  rdv_out_.emplace(xid, std::make_pair(req, static_cast<const std::byte*>(buf)));
  BasePkt rts;
  rts.kind = BasePkt::Kind::Rts;
  rts.src = rank();
  rts.tag = req->tag;
  rts.context = req->context;
  rts.xid = xid;
  rts.total = len;
  post_tx(req->peer, 0, std::move(rts));
}

void MvapichTransport::grant_rdv(BaseRequest* req, const BasePkt& rts) {
  req->matched_tag = rts.tag;
  rdv_in_.emplace(std::make_pair(rts.src, rts.xid), req);
  // Register the receive buffer (cache hit on reuse) before granting.
  const Time reg = acquire_registration(req->rbuf, rts.total);
  BasePkt cts;
  cts.kind = BasePkt::Kind::Cts;
  cts.src = rank();
  cts.xid = rts.xid;
  post_tx(rts.src, reg, std::move(cts));
}

void MvapichTransport::handle_protocol(BasePkt&& pkt) {
  switch (pkt.kind) {
    case BasePkt::Kind::Cts: {
      auto it = rdv_out_.find(pkt.xid);
      NMX_ASSERT_MSG(it != rdv_out_.end(), "CTS for unknown rendezvous");
      auto [req, buf] = it->second;
      rdv_out_.erase(it);
      const Time reg = acquire_registration(buf, req->len);
      BasePkt data;
      data.kind = BasePkt::Kind::Data;
      data.src = rank();
      data.xid = pkt.xid;
      data.total = req->len;
      data.bytes.assign(buf, buf + req->len);  // RDMA read of user memory
      post_tx(pkt.src, reg, std::move(data), req);
      break;
    }
    case BasePkt::Kind::Data: {
      auto it = rdv_in_.find({pkt.src, pkt.xid});
      NMX_ASSERT_MSG(it != rdv_in_.end(), "DATA without matching grant");
      BaseRequest* req = it->second;
      rdv_in_.erase(it);
      NMX_ASSERT(pkt.bytes.size() <= req->len);
      if (!pkt.bytes.empty()) std::memcpy(req->rbuf, pkt.bytes.data(), pkt.bytes.size());
      // RDMA write lands directly in the user buffer: no copy-out.
      complete_recv_after(req, pkt.src, req->matched_tag, pkt.bytes.size(), 0);
      break;
    }
    default:
      NMX_FAIL("unexpected packet kind in MVAPICH2-like stack");
  }
}

}  // namespace nmx::baseline
