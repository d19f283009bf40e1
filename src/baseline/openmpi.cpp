#include "baseline/openmpi.hpp"

#include <algorithm>
#include <cstring>

namespace nmx::baseline {

namespace {
constexpr std::size_t kSendProtocolMax = 256_KiB;  ///< copy protocol up to here
constexpr std::size_t kMediumFrag = 32_KiB;
constexpr Time kPipelineStall = 15.0_us;  ///< descriptor turnaround between frags
/// Registration of fragment i+1 overlaps fragment i's transfer; only a short
/// descriptor-post cost stays on the critical path.
constexpr Time kPipelinePost = 2.0_us;
}  // namespace

Time OmpiTransport::sw_send_for(OmpiVariant v) {
  switch (v) {
    case OmpiVariant::BtlIb: return calib::kOmpiIbSwSend;
    case OmpiVariant::BtlMx: return calib::kOmpiBtlSwSend;
    case OmpiVariant::CmMx: return calib::kOmpiCmSwSend;
  }
  NMX_FAIL("bad variant");
}

Time OmpiTransport::sw_recv_for(OmpiVariant v) {
  switch (v) {
    case OmpiVariant::BtlIb: return calib::kOmpiIbSwRecv;
    case OmpiVariant::BtlMx: return calib::kOmpiBtlSwRecv;
    case OmpiVariant::CmMx: return calib::kOmpiCmSwRecv;
  }
  NMX_FAIL("bad variant");
}

std::size_t OmpiTransport::eager_threshold_for(OmpiVariant v) {
  // The MTL path hands messages to MX directly; MX's internal eager
  // threshold is larger and there is no PML fragment pipeline.
  return v == OmpiVariant::CmMx ? 32_KiB : calib::kOmpiEagerThreshold;
}

OmpiTransport::OmpiTransport(Env env, OmpiVariant variant)
    : BaseTransport(env, sw_send_for(variant), sw_recv_for(variant), /*shm_extra=*/0.15_us),
      variant_(variant) {}

bool OmpiTransport::needs_reg() const {
  return fabric().profile(rail()).needs_registration;
}

void OmpiTransport::net_send(BaseRequest* req, const void* buf, std::size_t len) {
  if (len <= eager_threshold_for(variant_)) {
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
  const std::uint64_t xid = next_xid_++;
  rdv_out_.emplace(xid, OutRdv{req, static_cast<const std::byte*>(buf), 0});
  BasePkt rts;
  rts.kind = BasePkt::Kind::Rts;
  rts.src = rank();
  rts.tag = req->tag;
  rts.context = req->context;
  rts.xid = xid;
  rts.total = len;
  post_tx(req->peer, 0, std::move(rts));
}

void OmpiTransport::grant_rdv(BaseRequest* req, const BasePkt& rts) {
  req->matched_tag = rts.tag;
  req->frag_received = 0;
  rdv_in_.emplace(std::make_pair(rts.src, rts.xid), req);
  BasePkt cts;
  cts.kind = BasePkt::Kind::Cts;
  cts.src = rank();
  cts.xid = rts.xid;
  post_tx(rts.src, 0, std::move(cts));
}

void OmpiTransport::send_next_large_frag(std::uint64_t xid) {
  auto it = rdv_out_.find(xid);
  NMX_ASSERT(it != rdv_out_.end());
  OutRdv& o = it->second;
  BaseRequest* req = o.req;
  const std::size_t frag = std::min(calib::kOmpiPipelineFrag, req->len - o.offset);
  BasePkt pkt;
  pkt.kind = BasePkt::Kind::Frag;
  pkt.src = rank();
  pkt.xid = xid;
  pkt.total = req->len;
  pkt.offset = o.offset;
  pkt.bytes.assign(o.buf + o.offset, o.buf + o.offset + frag);
  o.offset += frag;
  const bool last = o.offset >= req->len;
  const bool first = pkt.offset == 0;
  // The first fragment pays its registration + descriptor management up
  // front; later fragments' registration overlaps the previous transfer
  // (pipelined), leaving only the descriptor post plus a turnaround stall
  // on the critical path — the pipeline never quite saturates the wire.
  const Time prep =
      first ? (needs_reg() ? calib::ib_reg_cost(frag) : 0.0) + calib::kOmpiPerFragOverhead
            : kPipelinePost;
  if (last) rdv_out_.erase(it);
  post_tx(req->peer, prep, std::move(pkt), req);
}

void OmpiTransport::on_send_egress(BaseRequest* req, std::uint64_t xid) {
  if (rdv_out_.count(xid) == 0) {
    complete_send(req);
    return;
  }
  // A pipelined fragment that was not the last: its rendezvous stays open
  // until the next fragment, one descriptor turnaround later.
  eng().schedule_in_checked(kPipelineStall, [this, xid] { send_next_large_frag(xid); });
}

void OmpiTransport::handle_protocol(BasePkt&& pkt) {
  switch (pkt.kind) {
    case BasePkt::Kind::Cts: {
      auto it = rdv_out_.find(pkt.xid);
      NMX_ASSERT_MSG(it != rdv_out_.end(), "CTS for unknown rendezvous");
      OutRdv& o = it->second;
      BaseRequest* req = o.req;
      if (variant_ == OmpiVariant::CmMx) {
        // MTL: single transfer by the MX library.
        BasePkt data;
        data.kind = BasePkt::Kind::Data;
        data.src = rank();
        data.xid = pkt.xid;
        data.total = req->len;
        data.bytes.assign(o.buf, o.buf + req->len);
        rdv_out_.erase(it);
        post_tx(req->peer, 0, std::move(data), req);
        break;
      }
      if (req->len <= kSendProtocolMax) {
        // Copy-in/copy-out send protocol: a stream of copied fragments,
        // pipelined on the prep CPU vs the NIC.
        const std::byte* buf = o.buf;
        const std::size_t total = req->len;
        const int dst = req->peer;
        rdv_out_.erase(it);
        for (std::size_t off = 0; off < total; off += kMediumFrag) {
          const std::size_t frag = std::min(kMediumFrag, total - off);
          BasePkt f;
          f.kind = BasePkt::Kind::Frag;
          f.src = rank();
          f.xid = pkt.xid;
          f.total = total;
          f.offset = off;
          f.bytes.assign(buf + off, buf + off + frag);
          const bool last = off + frag >= total;
          const Time prep = calib::copy_cost(frag) + calib::kOmpiPerFragOverhead;
          if (last) {
            post_tx(dst, prep, std::move(f), req);
          } else {
            post_tx(dst, prep, std::move(f));
          }
        }
      } else {
        send_next_large_frag(pkt.xid);
      }
      break;
    }
    case BasePkt::Kind::Data: {  // CmMx single transfer
      auto it = rdv_in_.find({pkt.src, pkt.xid});
      NMX_ASSERT_MSG(it != rdv_in_.end(), "DATA without matching grant");
      BaseRequest* req = it->second;
      rdv_in_.erase(it);
      NMX_ASSERT(pkt.bytes.size() <= req->len);
      if (!pkt.bytes.empty()) std::memcpy(req->rbuf, pkt.bytes.data(), pkt.bytes.size());
      complete_recv_after(req, pkt.src, req->matched_tag, pkt.bytes.size(), 0);
      break;
    }
    case BasePkt::Kind::Frag: {
      auto it = rdv_in_.find({pkt.src, pkt.xid});
      NMX_ASSERT_MSG(it != rdv_in_.end(), "FRAG without matching grant");
      BaseRequest* req = it->second;
      NMX_ASSERT(pkt.offset + pkt.bytes.size() <= req->len);
      if (!pkt.bytes.empty()) {
        std::memcpy(req->rbuf + pkt.offset, pkt.bytes.data(), pkt.bytes.size());
      }
      req->frag_received += pkt.bytes.size();
      if (req->frag_received >= pkt.total) {
        rdv_in_.erase(it);
        complete_recv_after(req, pkt.src, req->matched_tag, pkt.total, 0);
      }
      break;
    }
    default:
      NMX_FAIL("unexpected packet kind in Open MPI-like stack");
  }
}

}  // namespace nmx::baseline
