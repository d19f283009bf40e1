// Shared machinery for the comparison MPI stacks (MVAPICH2 1.0.3-like and
// Open MPI 1.2.7-like, §4): centralized posted/unexpected matching (these
// stacks match in one place, which is also why MPI_ANY_SOURCE is trivial for
// them), the gated progress rule (no background progression — the very thing
// Figure 7 shows they lack), a simple shared-memory path over the Nemesis
// cell channel, and a prep-CPU + NIC submission pipeline.
//
// Derived classes implement the network protocol: eager thresholds,
// rendezvous flavor, registration caching, fragmentation — the mechanisms the
// paper's comparisons hinge on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "mpi/transport.hpp"
#include "nemesis/shm.hpp"
#include "net/calibration.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace nmx::baseline {

struct BaseRequest : mpi::TxRequest {
  enum class Kind { Send, Recv };
  Kind kind = Kind::Send;
  int peer = -1;
  int tag = 0;
  int context = 0;
  std::byte* rbuf = nullptr;
  std::size_t len = 0;
  int matched_tag = 0;             ///< actual tag once a rendezvous matched
  std::size_t frag_received = 0;   ///< reassembly progress (fragment protocols)
  std::list<BaseRequest>::iterator self{};
};

/// Network packet of the baseline stacks.
struct BasePkt {
  enum class Kind : std::uint8_t { Eager, Rts, Cts, Data, Frag };
  Kind kind = Kind::Eager;
  int src = -1;
  int tag = 0;
  int context = 0;
  std::uint64_t xid = 0;      ///< rendezvous / message id
  std::size_t total = 0;      ///< full message size (Rts, Frag reassembly)
  std::size_t offset = 0;     ///< Frag position
  std::vector<std::byte> bytes;

  std::size_t wire_bytes() const { return 64 + bytes.size(); }
};

class BaseTransport : public mpi::Transport {
 public:
  struct Env {
    sim::Engine* eng;
    net::Fabric* fabric;
    net::Endpoints<BaseTransport>* peers;  ///< this cluster's delivery table
    nemesis::ShmNode* shm;  ///< may be null (alone on the node)
    int rank;
    int local_index;
  };

  int rank() const override { return rank_; }
  mpi::TxRequest* isend(int dst, int tag, int context, const void* buf,
                        std::size_t len) override;
  mpi::TxRequest* irecv(int src, int tag, int context, void* buf, std::size_t len) override;
  void release(mpi::TxRequest* r) override;
  void enter_progress() override;
  void leave_progress() override;
  std::optional<mpi::Status> iprobe(int src, int tag, int context) override;

  std::size_t outstanding_requests() const { return requests_.size(); }
  std::size_t unexpected_count() const { return unexpected_.size(); }

 protected:
  /// `sw_send`/`sw_recv`: per-message software cost on each side.
  /// `shm_extra`: additional one-way cost of this stack's shm path relative
  /// to raw Nemesis (Fig 6a shows Open MPI's shm above Nemesis).
  BaseTransport(Env env, Time sw_send, Time sw_recv, Time shm_extra);
  ~BaseTransport() override;

  // ---- hooks the concrete stacks implement --------------------------------
  /// Start the network protocol for a send (eager or rendezvous).
  virtual void net_send(BaseRequest* req, const void* buf, std::size_t len) = 0;
  /// A receive matched an Rts: grant it (send CTS, set up reassembly).
  virtual void grant_rdv(BaseRequest* req, const BasePkt& rts) = 0;
  /// Protocol packets (Cts, Data, Frag) — Eager and Rts are routed by the
  /// base class through central matching.
  virtual void handle_protocol(BasePkt&& pkt) = 0;

  // ---- services for derived classes ---------------------------------------
  /// Submit a packet: `prep` seconds of send-side CPU (copy, registration),
  /// then the NIC. With `req` set, on_send_egress(req, pkt.xid) fires when
  /// the NIC finishes reading the buffer. Injection is gated: queued until
  /// someone is in the progress engine.
  void post_tx(int dst, Time prep, BasePkt pkt, BaseRequest* req = nullptr);
  /// Egress continuation of a packet posted with a request: the send is
  /// complete. `xid` is the packet's rendezvous id (0 for eager packets).
  virtual void on_send_egress(BaseRequest* req, std::uint64_t xid);
  /// Complete a recv request (status + wakeup), charging `delay` (copy-out).
  void complete_recv_after(BaseRequest* req, int src, int tag, std::size_t count, Time delay);
  void complete_send(BaseRequest* req);
  /// Central matching entry for a fully-arrived message that behaves like an
  /// eager delivery (payload ready to copy).
  void deliver_eager(int src, int tag, int context, std::vector<std::byte> payload);

  sim::Engine& eng() { return *eng_; }
  net::Fabric& fabric() const { return *fabric_; }
  bool in_progress() const { return depth_ > 0; }
  int rail() const { return 0; }  ///< baselines drive a single rail

  std::map<std::pair<int, std::uint64_t>, BaseRequest*> rdv_in_;  ///< (src,xid)->req

 private:
  struct UnexMsg {
    bool rdv = false;
    int src = -1;
    int tag = 0;
    int context = 0;
    std::size_t len = 0;
    std::vector<std::byte> payload;
    BasePkt rts;  ///< original Rts packet (rdv case)
  };
  struct PendingTx {
    int dst;
    Time prep;
    BasePkt pkt;
    BaseRequest* req;  ///< on_send_egress target (null = none)
  };

  BaseRequest* new_request(BaseRequest::Kind kind);
  BaseRequest* match_posted(int src, int tag, int context);
  bool match_unexpected(BaseRequest* req);
  void deliver(BasePkt&& pkt);  // post-gating dispatch
  void rx_wire(BasePkt&& pkt);  // arrival from the fabric
  void drain();
  void inject(PendingTx tx);
  void send_self(BaseRequest* req, const void* buf, std::size_t len);
  void send_shm(BaseRequest* req, const void* buf, std::size_t len);
  void handle_shm(nemesis::Message&& m);

  sim::Engine* eng_;
  net::Fabric* fabric_;
  net::Endpoints<BaseTransport>* peers_;
  nemesis::ShmNode* shm_;
  int rank_;
  int local_index_;
  int my_node_;
  Time sw_send_, sw_recv_, shm_extra_;

  std::list<BaseRequest> requests_;
  std::list<BaseRequest*> posted_;
  std::list<UnexMsg> unexpected_;
  std::deque<BasePkt> pending_rx_;
  std::deque<PendingTx> pending_tx_;
  net::Channel prep_cpu_;
  int depth_ = 0;
};

}  // namespace nmx::baseline
