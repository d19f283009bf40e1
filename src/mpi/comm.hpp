// The public MPI-like API. One Comm per rank, usable only from that rank's
// simulated actor. All stacks (MPICH2-NewMadeleine and the baselines) sit
// behind the same Transport interface, so application code — examples, the
// NAS kernels, the netpipe harness — is identical across stacks, as in the
// paper's evaluation.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "common/assert.hpp"
#include "mpi/datatype.hpp"
#include "mpi/transport.hpp"
#include "net/calibration.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace nmx::mpi {

/// User-visible request handle (MPI_Request).
class Request {
 public:
  Request() = default;
  bool valid() const { return req_ != nullptr; }

 private:
  friend class Comm;
  TxRequest* req_ = nullptr;
};

enum class ReduceOp { Sum, Prod, Min, Max };

class Comm {
 public:
  Comm(sim::Actor& actor, Transport& tx, sim::Engine& eng, int rank, int size,
       int local_ranks = 1)
      : actor_(actor), tx_(tx), eng_(eng), rank_(rank), size_(size), local_ranks_(local_ranks) {}

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// MPI_Comm_split: collective; ranks supplying the same `color` form a
  /// new communicator, ordered by `key` (ties by parent rank). Each new
  /// communicator gets its own context block, so its traffic — including
  /// MPI_ANY_SOURCE — cannot match the parent's or a sibling's. Must be
  /// called by all members of this communicator in the same program order.
  Comm split(int color, int key);
  /// Number of ranks placed on this rank's node (for shared-resource
  /// contention models: memory bandwidth, NIC sharing).
  int local_ranks() const { return local_ranks_; }

  // --- point-to-point -----------------------------------------------------

  Request isend(const void* buf, std::size_t len, int dst, int tag) {
    trace(obs::Cat::MpiSend, len, dst);
    if (obs::Recorder* r = rec()) {
      r->metrics().counter("mpi.send.count").add(1);
      r->metrics().counter("mpi.send.bytes").add(len);
    }
    return wrap(tx_.isend(global(dst), tag, ctx_base_ + kUserContext, buf, len));
  }
  Request irecv(void* buf, std::size_t cap, int src, int tag) {
    trace(obs::Cat::MpiRecv, cap, src);
    if (obs::Recorder* r = rec()) r->metrics().counter("mpi.recv.count").add(1);
    return wrap(tx_.irecv(global_or_any(src), tag, ctx_base_ + kUserContext, buf, cap));
  }
  void send(const void* buf, std::size_t len, int dst, int tag) {
    Request r = isend(buf, len, dst, tag);
    wait(r);
  }
  Status recv(void* buf, std::size_t cap, int src, int tag) {
    Request r = irecv(buf, cap, src, tag);
    return wait(r);
  }

  Status wait(Request& r) {
    NMX_ASSERT_MSG(r.valid(), "wait on an inactive request");
    return localized(wait_release(std::exchange(r.req_, nullptr)));
  }

  /// Block until one of `reqs` completes; returns its index and frees it
  /// (MPI_Waitany). At least one request must be active.
  int waitany(std::span<Request> reqs, Status* st = nullptr);

  void waitall(std::span<Request> reqs) {
    for (Request& r : reqs) {
      if (r.valid()) wait(r);
    }
  }

  /// Non-blocking completion check; fills `st` on success and frees the
  /// request (one progress poke per call, like MPI_Test).
  bool test(Request& r, Status* st = nullptr) {
    NMX_ASSERT_MSG(r.valid(), "test on an inactive request");
    if (!tx_.test(r.req_)) return false;
    if (st != nullptr) *st = localized(r.req_->status);
    tx_.release(r.req_);
    r.req_ = nullptr;
    return true;
  }

  Status sendrecv(const void* sbuf, std::size_t slen, int dst, int stag, void* rbuf,
                  std::size_t rcap, int src, int rtag) {
    Request rr = irecv(rbuf, rcap, src, rtag);
    Request sr = isend(sbuf, slen, dst, stag);
    wait(sr);
    return wait(rr);
  }

  /// Non-destructive check for a matching incoming message (MPI_Iprobe);
  /// `src` / `tag` may be wildcards. Charges one progress-engine poll pass
  /// (handling the already-arrived packets is what the pass pays for).
  std::optional<Status> iprobe(int src, int tag) {
    if (auto st = tx_.iprobe(global_or_any(src), tag, ctx_base_ + kUserContext)) {
      return localized(*st);
    }
    actor_.sleep_for(1.0_us);  // let the drained packets finish handling
    if (auto st = tx_.iprobe(global_or_any(src), tag, ctx_base_ + kUserContext)) {
      return localized(*st);
    }
    return std::nullopt;
  }

  // --- derived datatypes (§5 future work — see mpi/datatype.hpp) -----------

  /// Send the layout `dt` rooted at `base`. Stacks without native segment
  /// support pack through a bounce buffer and pay the gather copy.
  void send(const void* base, const Datatype& dt, int dst, int tag) {
    if (dt.contiguous_layout()) {
      const auto& segs = dt.segments();
      send(segs.empty() ? base : static_cast<const std::byte*>(base) + segs[0].offset,
           dt.packed_size(), dst, tag);
      return;
    }
    std::vector<std::byte> packed(dt.packed_size());
    dt.pack(base, packed.data());
    if (!tx_.native_datatypes()) actor_.sleep_for(calib::copy_cost(packed.size()));
    send(packed.data(), packed.size(), dst, tag);
  }

  /// Receive into the layout `dt` rooted at `base`.
  Status recv(void* base, const Datatype& dt, int src, int tag) {
    if (dt.contiguous_layout()) {
      const auto& segs = dt.segments();
      return recv(segs.empty() ? base : static_cast<std::byte*>(base) + segs[0].offset,
                  dt.packed_size(), src, tag);
    }
    std::vector<std::byte> packed(dt.packed_size());
    Status st = recv(packed.data(), packed.size(), src, tag);
    if (!tx_.native_datatypes()) actor_.sleep_for(calib::copy_cost(packed.size()));
    dt.unpack(packed.data(), base);
    return st;
  }

  // --- typed convenience ----------------------------------------------------

  template <class T>
  void send(std::span<const T> data, int dst, int tag) {
    send(data.data(), data.size_bytes(), dst, tag);
  }
  template <class T>
  Status recv(std::span<T> data, int src, int tag) {
    return recv(data.data(), data.size_bytes(), src, tag);
  }
  template <class T>
  void send_value(const T& v, int dst, int tag) {
    send(&v, sizeof(T), dst, tag);
  }
  template <class T>
  T recv_value(int src, int tag) {
    T v{};
    recv(&v, sizeof(T), src, tag);
    return v;
  }

  // --- collectives ----------------------------------------------------------
  // One implementation, coll::Engine (src/coll): allreduce and alltoall run
  // the algorithm ClusterConfig::coll selects; the other ops have one
  // algorithm each. Every edge is a transport send on this
  // communicator's collective context, so rail choice and rendezvous
  // chunking stay with the NewMadeleine cost model.

  /// Install the collective algorithm configuration (Cluster does this from
  /// ClusterConfig::coll; split children inherit it).
  void set_coll_config(const coll::Config& cfg) { coll_ = cfg; }

  void barrier() {
    trace(obs::Cat::MpiColl, 0, 0);
    if (obs::Recorder* r = rec()) r->metrics().counter("mpi.coll.count").add(1);
    coll::Engine::barrier(*this);
  }
  void bcast(void* buf, std::size_t len, int root) { coll::Engine::bcast(*this, buf, len, root); }
  /// `block` bytes contributed per rank; recvbuf holds size()*block at root.
  void gather(const void* sendbuf, std::size_t block, void* recvbuf, int root) {
    coll::Engine::gather(*this, sendbuf, block, recvbuf, root);
  }
  void scatter(const void* sendbuf, std::size_t block, void* recvbuf, int root) {
    coll::Engine::scatter(*this, sendbuf, block, recvbuf, root);
  }
  void allgather(const void* sendbuf, std::size_t block, void* recvbuf) {
    coll::Engine::allgather(*this, sendbuf, block, recvbuf);
  }
  void alltoall(const void* sendbuf, std::size_t block, void* recvbuf) {
    coll::Engine::alltoall(*this, sendbuf, block, recvbuf);
  }
  /// Variable-size all-to-all (MPI_Alltoallv, byte counts/displacements) —
  /// what the IS kernel needs.
  void alltoallv(const void* sendbuf, const std::size_t* sendcounts,
                 const std::size_t* senddispls, void* recvbuf, const std::size_t* recvcounts,
                 const std::size_t* recvdispls) {
    coll::Engine::alltoallv(*this, sendbuf, sendcounts, senddispls, recvbuf, recvcounts,
                            recvdispls);
  }
  /// Inclusive prefix reduction (MPI_Scan).
  template <class T>
  void scan(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
    if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, count * sizeof(T));
    coll::Engine::scan(*this, recvbuf, sizeof(T), count, fold<T>(op));
  }
  /// Reduce + scatter of equal blocks (MPI_Reduce_scatter_block).
  template <class T>
  void reduce_scatter_block(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
    std::vector<T> full(count * static_cast<std::size_t>(size_));
    reduce(sendbuf, full.data(), full.size(), op, 0);
    scatter(full.data(), count * sizeof(T), recvbuf, 0);
  }
  /// `recvbuf` (significant at `root` only; may be null) gets the result.
  template <class T>
  void reduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op, int root) {
    std::vector<T> acc(sendbuf, sendbuf + count);
    coll::Engine::reduce(*this, acc.data(), sizeof(T), count, fold<T>(op), root);
    if (rank_ == root && recvbuf != nullptr) std::memcpy(recvbuf, acc.data(), count * sizeof(T));
  }
  /// One scalar double is NIC-offloadable under Algo::NicOffload.
  template <class T>
  void allreduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
    if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, count * sizeof(T));
    const int nic_op = std::is_same_v<T, double> && count == 1 ? static_cast<int>(op) : -1;
    coll::Engine::allreduce(*this, recvbuf, sizeof(T), count, fold<T>(op), nic_op);
  }
  template <class T>
  T allreduce_one(T value, ReduceOp op) {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }

  // --- time -----------------------------------------------------------------

  /// Virtual wall-clock seconds (MPI_Wtime).
  double wtime() const { return eng_.now(); }
  /// Model `seconds` of application computation (advances virtual time;
  /// dilated by stacks whose progression machinery steals cycles).
  void compute(double seconds) {
    const obs::SpanId sp =
        span_begin(obs::Cat::Compute, static_cast<std::size_t>(seconds * 1e9));
    actor_.sleep_for(seconds * tx_.compute_dilation());
    span_end(obs::Cat::Compute, sp, static_cast<std::size_t>(seconds * 1e9));
  }

  sim::Actor& actor() { return actor_; }
  Transport& transport() { return tx_; }

  /// Open/close an application-defined region span on this rank (e.g. the
  /// per-iteration Cat::Iter spans nas::timed_loop emits for the critical-path
  /// analyzer). Returns 0 (and region_end no-ops) without a recorder.
  obs::SpanId region_begin(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    return span_begin(cat, bytes, a);
  }
  void region_end(obs::Cat cat, obs::SpanId sp, std::size_t bytes = 0, std::int64_t a = 0) {
    span_end(cat, sp, bytes, a);
  }

  // --- subsystem plumbing (used by mpi::Window; not part of the user API) --

  /// Reserved context for one-sided (RMA) traffic.
  static constexpr int kRmaContext = 2;
  Request isend_ctx(const void* buf, std::size_t len, int dst, int tag, int context) {
    return wrap(tx_.isend(global(dst), tag, ctx_base_ + context, buf, len));
  }
  Request irecv_ctx(void* buf, std::size_t cap, int src, int tag, int context) {
    return wrap(tx_.irecv(global_or_any(src), tag, ctx_base_ + context, buf, cap));
  }

 private:
  friend class ::nmx::coll::Engine;  // uses inline plumbing only (see coll.hpp)

  static constexpr int kUserContext = 0;
  static constexpr int kCollContext = 1;

  Request wrap(TxRequest* r) {
    Request h;
    h.req_ = r;
    return h;
  }
  obs::Recorder* rec() { return eng_.recorder(); }
  void trace(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    if (obs::Recorder* r = rec()) r->instant(eng_.now(), rank_, cat, bytes, a);
  }
  obs::SpanId span_begin(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    obs::Recorder* r = rec();
    return r != nullptr ? r->begin(eng_.now(), rank_, cat, bytes, a) : obs::SpanId{0};
  }
  void span_end(obs::Cat cat, obs::SpanId sp, std::size_t bytes = 0, std::int64_t a = 0) {
    if (sp == 0) return;
    if (obs::Recorder* r = rec()) r->end(eng_.now(), rank_, cat, sp, bytes, a);
  }
  /// local rank in this communicator -> transport (world) rank
  int global(int local) const {
    NMX_ASSERT_MSG(local >= 0 && local < size_, "peer rank outside this communicator");
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }
  int global_or_any(int local) const { return local == ANY_SOURCE ? ANY_SOURCE : global(local); }
  /// world rank in a status -> local rank in this communicator
  Status localized(Status st) const {
    if (st.source >= 0 && !group_.empty()) {
      // A split member that keeps its world rank: nothing to scan.
      if (st.source < size_ && group_[static_cast<std::size_t>(st.source)] == st.source) {
        return st;
      }
      for (int p = 0; p < size_; ++p) {
        if (group_[static_cast<std::size_t>(p)] == st.source) {
          st.source = p;
          return st;
        }
      }
      NMX_FAIL("status source outside this communicator");
    }
    return st;
  }
  /// Block on `r` inside an MpiWait span, then free it. The span's End arg
  /// names the request span the wait resolved on (a critical-path edge), so
  /// it is captured before completion zeroes it. Returns the world-rank
  /// status. Comm::wait and the coll::Engine plumbing both wait here.
  Status wait_release(TxRequest* r) {
    const obs::SpanId waited = r->span;
    const obs::SpanId sp = span_begin(obs::Cat::MpiWait);
    tx_.wait(actor_, r);
    span_end(obs::Cat::MpiWait, sp, 0, static_cast<std::int64_t>(waited));
    const Status st = r->status;
    tx_.release(r);
    return st;
  }

  /// The byte-erased element-wise fold the coll engine runs for `op` on T.
  template <class T>
  static coll::ReduceFn fold(ReduceOp op) {
    return [op](void* inout, const void* in, std::size_t n) {
      apply(op, static_cast<T*>(inout), static_cast<const T*>(in), n);
    };
  }
  template <class T>
  static void apply(ReduceOp op, T* inout, const T* in, std::size_t n);

  sim::Actor& actor_;
  Transport& tx_;
  sim::Engine& eng_;
  int rank_;
  int size_;
  int local_ranks_;
  std::vector<int> group_;  ///< local rank -> world rank; empty: identity (world)
  int ctx_base_ = 0;        ///< context block of this communicator
  int next_split_ctx_ = 16; ///< context block for the next split (collective)
  coll::Config coll_;       ///< collective algorithm selection
  /// Group-wide collective sequence number: feeds the NIC combine-tree ids
  /// (identical call sequence on every member keeps it in agreement).
  std::uint32_t next_coll_id_ = 1;
};

// ---------------------------------------------------------------------------
// element-wise reduction
// ---------------------------------------------------------------------------

template <class T>
void Comm::apply(ReduceOp op, T* inout, const T* in, std::size_t n) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] + in[i];
      break;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] * in[i];
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] < inout[i] ? in[i] : inout[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] > inout[i] ? in[i] : inout[i];
      break;
  }
}

}  // namespace nmx::mpi
