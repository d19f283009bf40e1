// Open MPI 1.2.7-like comparison stack (§4). Three variants, matching the
// curves the paper plots:
//
//  * BtlIb — openib BTL through the OB1 PML (Fig 4): eager copies below 12K,
//    a copy-in/copy-out "send protocol" for medium messages and a pipelined
//    RDMA protocol with per-fragment registration (no cache by default in
//    1.2.7) for large ones. The per-fragment costs are why MPICH2-Nmad
//    "is able to reach a higher bandwidth than Open MPI for medium-sized
//    messages" (§4.1.1).
//  * BtlMx — the MX BTL: same PML machinery, higher per-message cost
//    (Fig 6b shows it clearly above the CM PML), no registration cost.
//  * CmMx  — the CM PML over the MX MTL: thin, hands whole messages to the
//    (simulated) MX library; no fragment pipeline.
//
// None of the variants progresses communication in the background (Fig 7).
// `compute_dilation` models the PML's polling machinery stealing cycles from
// tight compute loops — the modeling choice behind Open MPI's EP/LU lag in
// Figure 8 (see DESIGN.md, "Known deviations").
#pragma once

#include "baseline/base_transport.hpp"

namespace nmx::baseline {

enum class OmpiVariant { BtlIb, BtlMx, CmMx };

class OmpiTransport final : public BaseTransport {
 public:
  OmpiTransport(Env env, OmpiVariant variant);

  double compute_dilation() const override { return kDilation; }

 protected:
  void net_send(BaseRequest* req, const void* buf, std::size_t len) override;
  void grant_rdv(BaseRequest* req, const BasePkt& rts) override;
  void handle_protocol(BasePkt&& pkt) override;
  void on_send_egress(BaseRequest* req, std::uint64_t xid) override;

 private:
  struct OutRdv {
    BaseRequest* req = nullptr;
    const std::byte* buf = nullptr;
    std::size_t offset = 0;
  };
  static constexpr double kDilation = 1.09;  ///< compute-time multiplier (file comment)

  static Time sw_send_for(OmpiVariant v);
  static Time sw_recv_for(OmpiVariant v);
  static std::size_t eager_threshold_for(OmpiVariant v);
  bool needs_reg() const;
  void send_next_large_frag(std::uint64_t xid);

  OmpiVariant variant_;
  std::uint64_t next_xid_ = 1;
  std::map<std::uint64_t, OutRdv> rdv_out_;
};

}  // namespace nmx::baseline
