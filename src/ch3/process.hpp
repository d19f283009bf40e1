// The MPICH2-NewMadeleine device: CH3/ADI3 glued to Nemesis (intra-node) and
// NewMadeleine (inter-node), with PIOMan as the centralized progression
// authority (§3).
//
// Two operating modes:
//
//  * bypass = true  — the paper's contribution (§3.1): remote sends go
//    straight to nm_sr_isend, remote receives are posted to NewMadeleine's
//    own matching, and MPI_ANY_SOURCE is handled by the management lists of
//    Figure 3. One handshake per rendezvous.
//
//  * bypass = false — the stock Nemesis network-module path (§2.1.3): every
//    CH3 packet is copied through fixed-size netmod cells, CH3 runs its own
//    eager/rendezvous protocol, and large DATA transfers trigger
//    NewMadeleine's *internal* rendezvous underneath CH3's — the nested
//    handshake of Figure 2. Kept as a first-class mode so the benefit of the
//    bypass is measurable (bench/abl_bypass).
//
// The paper overrides a per-VC send function pointer (§3.1.2). The choice
// that pointer encodes depends only on (peer is self, peer on the same node,
// bypass), so it is modelled as a route computed per message by route(), not
// as a per-peer table: the device keeps no state sized by the world.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <vector>

#include "ch3/anysource.hpp"
#include "ch3/packet.hpp"
#include "ch3/request.hpp"
#include "mpi/transport.hpp"
#include "nemesis/shm.hpp"
#include "net/fabric.hpp"
#include "nmad/core.hpp"
#include "pioman/pioman.hpp"
#include "sim/engine.hpp"

namespace nmx::ch3 {

class Ch3Process final : public mpi::Transport {
 public:
  struct Config {
    nmad::Config nmad;
    /// Enable PIOMan: background progression + its synchronization costs.
    bool pioman = false;
    /// CH3 -> NewMadeleine direct path (the paper's modification).
    bool bypass = true;
  };

  /// `shm` may be null when the process is alone on its node.
  Ch3Process(sim::Engine& eng, net::Fabric& fabric, net::Endpoints<nmad::Core>& cores,
             nemesis::ShmNode* shm, int rank, int local_index, Config cfg);
  ~Ch3Process() override;

  // --- mpi::Transport -----------------------------------------------------
  int rank() const override { return rank_; }
  mpi::TxRequest* isend(int dst, int tag, int context, const void* buf,
                        std::size_t len) override;
  mpi::TxRequest* irecv(int src, int tag, int context, void* buf, std::size_t len) override;
  void release(mpi::TxRequest* r) override;
  void enter_progress() override;
  void leave_progress() override;
  /// The bypass path gathers datatype segments in NewMadeleine's packet
  /// wrapper (§5 future work); the legacy path packs like everyone else.
  bool native_datatypes() const override { return cfg_.bypass; }
  std::optional<mpi::Status> iprobe(int src, int tag, int context) override;
  /// Drains NewMadeleine's outgoing queue (nmad::Core::drain).
  void finalize(sim::Actor& self) override { core_->drain(self); }

  // --- introspection ------------------------------------------------------
  nmad::Core& core() { return *core_; }
  pioman::Manager* pioman() { return pioman_.get(); }
  const AnySourceLists& any_source_lists() const { return as_lists_; }
  std::size_t outstanding_requests() const { return requests_.size(); }
  std::size_t unexpected_count() const { return unexpected_.size(); }

 private:
  /// §3.1.2: the path traffic to or from a peer takes — the paper's per-VC
  /// send function pointer, computed instead of stored.
  enum class Route { Self, Shm, Nmad, Legacy };

  /// A message CH3 itself matches (self, shared memory, legacy netmod):
  /// an eager payload, or a rendezvous announcement to grant over shared
  /// memory (CTS cell) or the legacy netmod (legacy_grant).
  struct UnexMsg {
    enum class Kind { Eager, ShmRdv, NetRdv };
    Kind kind = Kind::Eager;
    int src = -1;
    int tag = 0;
    int context = 0;
    std::uint64_t rdv_id = 0;  ///< shm or legacy CH3 rendezvous id
    std::size_t len = 0;
    obs::SpanId span = 0;  ///< sender's message-lifecycle span (tracing)
    std::vector<std::byte> payload;
  };

  /// A shm rendezvous awaiting its CTS. `buf` views the sender's buffer, not
  /// a copy: the send completes only in the CTS handler, after the DATA
  /// message has copied the bytes, and MPI forbids touching the buffer of an
  /// incomplete send, so the view stays valid until then.
  struct ShmRdvOut {
    MpidRequest* req;
    const std::byte* buf;
    std::size_t len;
    int dst;
  };

  /// Completion context attached to every NewMadeleine request we create.
  struct NmCtx {
    std::function<void(nmad::Request&)> fn;
    std::list<NmCtx>::iterator self;
  };

  // request / ctx pools
  MpidRequest* new_request(MpidRequest::Kind kind);
  NmCtx* new_ctx(std::function<void(nmad::Request&)> fn);
  void run_nmad_completion(nmad::Request& r);
  nmad::Request* nm_isend(int dst, nmad::Tag tag, const void* buf, std::size_t len,
                          std::function<void(nmad::Request&)> done, obs::SpanId span = 0);
  nmad::Request* nm_irecv(int src, nmad::Tag tag, void* buf, std::size_t len,
                          std::function<void(nmad::Request&)> done, obs::SpanId span = 0);

  Route route(int peer) const;

  // send paths
  void send_self(MpidRequest* req, const void* buf, std::size_t len);
  void send_shm(MpidRequest* req, const void* buf, std::size_t len);
  void send_nmad_direct(MpidRequest* req, const void* buf, std::size_t len);
  void send_legacy(MpidRequest* req, const void* buf, std::size_t len);

  // receive paths
  void post_remote_recv(MpidRequest* req);      // bypass: bind to nmad
  void bind_any_source(MpidRequest* req, const nmad::ProbeInfo& found);
  void release_deferred(MpidRequest* req);      // re-check blocking, then post
  void as_probe_all();                          // probe nmad for AS heads

  // CH3 queues (shared-memory / self / legacy-net matching)
  MpidRequest* match_posted(int src, int tag, int context);
  void push_posted(MpidRequest* req);
  void remove_posted(MpidRequest* req);
  bool match_unexpected(MpidRequest* req);  // consume an unexpected msg if any
  void deliver_local(UnexMsg msg);          // arrival -> match or store
  void accept(MpidRequest* req, UnexMsg&& msg);  // a matched message -> its request
  /// An arriving Eager or Rts header as a queue entry; a Rts becomes `rdv`.
  static UnexMsg arrival(const nemesis::ShmHdr& hdr, UnexMsg::Kind rdv,
                         std::vector<std::byte> payload);

  // shared-memory channel
  void handle_shm_message(nemesis::Message&& m);
  void process_shm(const nemesis::ShmHdr& hdr, std::vector<std::byte> payload);

  // legacy netmod (bypass = false)
  void legacy_on_unexpected(const nmad::ProbeInfo& info);
  void legacy_fetch_ctl(const nmad::ProbeInfo& info);
  void legacy_process_ctl(int src, std::vector<std::byte> cell, std::size_t len);
  void legacy_send_ctl(int dst, const nemesis::ShmHdr& hdr);
  void legacy_grant(int src, int tag, std::uint64_t rdv_id, MpidRequest* req);

  // completion helpers
  void complete_recv(MpidRequest* req, int src, int tag, std::size_t count,
                     obs::SpanId sender_span = 0);
  void complete_send(MpidRequest* req);
  void finish(MpidRequest* req);  // complete_and_wake with any-source penalty

  bool in_progress() const { return depth_ > 0; }

  sim::Engine& eng_;
  net::Fabric& fabric_;
  nemesis::ShmNode* shm_;
  int rank_;
  int local_index_;
  Config cfg_;
  std::unique_ptr<nmad::Core> core_;
  std::unique_ptr<pioman::Manager> pioman_;

  // Live objects, plus released nodes kept for reuse (each free list is
  // bounded by the peak number of live objects): a message costs no heap
  // allocation for its request or completion context.
  std::list<MpidRequest> requests_;
  std::list<MpidRequest> free_requests_;
  std::list<NmCtx> nm_ctxs_;
  std::list<NmCtx> free_ctxs_;

  // ADI3 queue pair (§3.1.1) for traffic CH3 itself matches.
  std::list<MpidRequest*> posted_queue_;
  std::list<UnexMsg> unexpected_;

  AnySourceLists as_lists_;

  // shared-memory CH3 rendezvous state
  std::uint64_t next_shm_rdv_ = 1;
  std::map<std::uint64_t, ShmRdvOut> shm_rdv_out_;
  std::map<std::pair<int, std::uint64_t>, MpidRequest*> shm_rdv_in_;

  // legacy CH3 network rendezvous state
  std::uint64_t next_net_rdv_ = 1;
  std::map<std::uint64_t, std::pair<MpidRequest*, const void*>> net_rdv_out_;

  int depth_ = 0;
};

}  // namespace nmx::ch3
