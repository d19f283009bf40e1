#include "coll/coll.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <span>
#include <string>

#include "common/assert.hpp"
#include "mpi/comm.hpp"
#include "obs/recorder.hpp"

namespace nmx::coll {

namespace {

using obs::CollOp;

/// Arity of Algo::Kary trees and window of the windowed alltoall.
constexpr int kKary = 4;

// ---------------------------------------------------------------------------
// Tag table. Every collective tag lives here, on the communicator's
// collective context. Each public op owns one 128-tag block (its CollOp id
// times 128); each message class of the op's algorithms owns a 16-tag window
// of that block, and multi-round phases use window + (round & 15). The wrap
// bounds the per-(peer, tag) matching entries, which nmad::Core never frees:
// a fresh tag per round or per call would leak one per peer each time.
// ---------------------------------------------------------------------------

constexpr int tag(CollOp op, int window) { return static_cast<int>(op) * 128 + window * 16; }

constexpr int kTagBarrier = tag(CollOp::Barrier, 0);          // + round (dissemination)
constexpr int kTagBcast = tag(CollOp::Bcast, 0);              // binomial tree
constexpr int kTagAllreduceUp = tag(CollOp::Allreduce, 0);    // tree reduce
constexpr int kTagAllreduceDown = tag(CollOp::Allreduce, 1);  // tree bcast
constexpr int kTagRd = tag(CollOp::Allreduce, 2);   // +0 fold in, +1 doubling, +2 fold out
constexpr int kTagRs = tag(CollOp::Allreduce, 3);   // + step (ring reduce-scatter)
constexpr int kTagRag = tag(CollOp::Allreduce, 4);  // + step (ring allgather)
constexpr int kTagA2aPair = tag(CollOp::Alltoall, 0);         // + round
constexpr int kTagA2aBruck = tag(CollOp::Alltoall, 1);
constexpr int kTagA2aXor = tag(CollOp::Alltoall, 2);
constexpr int kTagA2aWin = tag(CollOp::Alltoall, 3);          // + round
constexpr int kTagReduce = tag(CollOp::Reduce, 0);
constexpr int kTagGather = tag(CollOp::Gather, 0);
constexpr int kTagScatter = tag(CollOp::Scatter, 0);
constexpr int kTagAllgather = tag(CollOp::Allgather, 0);      // + round (Bruck)
constexpr int kTagAlltoallv = tag(CollOp::Alltoallv, 0);      // + round
constexpr int kTagScan = tag(CollOp::Scan, 0);

}  // namespace

/// Block b of a P-block buffer: explicit byte counts and displacements
/// (alltoallv), or `total` units of `unit` bytes split into P near-equal
/// blocks, the first total % P of them one unit larger (see even()).
/// Computed on the fly rather than stored: MVAPICH2's registration cache
/// keys on host addresses, so every heap allocation a collective adds can
/// move the virtual time of later transfers.
struct Engine::Blocks {
  const std::size_t* counts = nullptr;
  const std::size_t* displs = nullptr;
  std::size_t base = 0, rem = 0, unit = 0;

  static Blocks even(std::size_t total, int P, std::size_t unit) {
    const auto n = static_cast<std::size_t>(P);
    return Blocks{nullptr, nullptr, total / n, total % n, unit};
  }
  std::size_t off(int b) const {
    const auto i = static_cast<std::size_t>(b);
    return displs != nullptr ? displs[i] : (i * base + std::min(i, rem)) * unit;
  }
  std::size_t len(int b) const {
    return counts != nullptr ? counts[static_cast<std::size_t>(b)] : off(b + 1) - off(b);
  }
};

/// Children of one tree vertex, ascending, without a heap allocation per
/// call: a binomial vertex has at most one child per bit of an int rank, a
/// k-ary vertex at most kKary.
struct Engine::Kids {
  std::array<int, 31> v{};
  int n = 0;

  void push(int k) { v[static_cast<std::size_t>(n++)] = k; }
  std::span<const int> list() const { return {v.data(), static_cast<std::size_t>(n)}; }
};
static_assert(kKary <= 31);

const char* to_string(Algo a) {
  switch (a) {
    case Algo::Auto: return "auto";
    case Algo::Binomial: return "binomial";
    case Algo::Kary: return "kary";
    case Algo::Ring: return "ring";
    case Algo::RecDoubling: return "recdbl";
    case Algo::NicOffload: return "nic";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// plumbing
// ---------------------------------------------------------------------------

int Engine::ctx(const mpi::Comm& c) { return c.ctx_base_ + mpi::Comm::kCollContext; }

mpi::TxRequest* Engine::post_send(mpi::Comm& c, int dst, int tag, const void* buf,
                                  std::size_t len) {
  return c.tx_.isend(c.global(dst), tag, ctx(c), buf, len);
}

mpi::TxRequest* Engine::post_recv(mpi::Comm& c, int src, int tag, void* buf, std::size_t cap) {
  return c.tx_.irecv(c.global(src), tag, ctx(c), buf, cap);
}

void Engine::send(mpi::Comm& c, const void* buf, std::size_t len, int dst, int tag) {
  c.wait_release(post_send(c, dst, tag, buf, len));
}

void Engine::recv(mpi::Comm& c, void* buf, std::size_t cap, int src, int tag) {
  c.wait_release(post_recv(c, src, tag, buf, cap));
}

void Engine::sendrecv(mpi::Comm& c, const void* sbuf, std::size_t slen, int dst, int stag,
                      void* rbuf, std::size_t rcap, int src, int rtag) {
  mpi::TxRequest* rr = post_recv(c, src, rtag, rbuf, rcap);
  mpi::TxRequest* sr = post_send(c, dst, stag, sbuf, slen);
  c.wait_release(sr);
  c.wait_release(rr);
}

std::uint64_t Engine::phase_begin(mpi::Comm& c, CollOp op, Algo algo, std::size_t bytes) {
  if (obs::Recorder* r = c.rec()) {
    const std::string label =
        std::string("op=") + obs::kCollOpNames[static_cast<std::size_t>(op)];
    r->metrics().counter("nmad.coll.count", label).add(1);
    if (bytes != 0) r->metrics().counter("nmad.coll.bytes", label).add(bytes);
  }
  return c.span_begin(obs::Cat::Coll, bytes,
                      (static_cast<std::int64_t>(op) << 8) | static_cast<std::int64_t>(algo));
}

void Engine::phase_end(mpi::Comm& c, std::uint64_t sp, std::size_t bytes) {
  c.span_end(obs::Cat::Coll, sp, bytes);
}

int Engine::tree_edges(int vr, int size, int arity, Kids* children) {
  children->n = 0;
  if (arity <= 0) {
    // Binomial: parent clears vr's lowest set bit; children ascend from +1.
    int lowbit = vr == 0 ? 1 : (vr & -vr);
    if (vr == 0) {
      while (lowbit < size) lowbit <<= 1;
    }
    for (int m = 1; m < lowbit && vr + m < size; m <<= 1) children->push(vr + m);
    return vr == 0 ? -1 : vr - lowbit;
  }
  for (int j = 1; j <= arity; ++j) {
    const int kid = vr * arity + j;
    if (kid < size) children->push(kid);
  }
  return vr == 0 ? -1 : (vr - 1) / arity;
}

bool Engine::nic_combine_tree(mpi::Comm& c, double* value, int op) {
  // All ranks of a communicator execute the same collective sequence, so the
  // counter agrees group-wide; the context block keeps sibling communicators
  // from colliding inside the NIC unit's id space.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx(c))) << 32) | c.next_coll_id_++;
  Kids kids;
  const int parent = tree_edges(c.rank_, c.size_, 0, &kids);
  Kids world_kids;
  for (const int k : kids.list()) world_kids.push(c.global(k));
  const int world_parent = parent >= 0 ? c.global(parent) : -1;
  mpi::TxRequest* r = c.tx_.nic_coll(id, world_parent, world_kids.list(), op, value);
  if (r == nullptr) return false;  // no NIC unit on this stack: host fallback
  c.wait_release(r);
  return true;
}

void Engine::ring_allgather(mpi::Comm& c, std::byte* buf, const Blocks& blocks, int first,
                            int tag) {
  const int P = c.size_;
  const int right = (c.rank_ + 1) % P;
  const int left = (c.rank_ - 1 + P) % P;
  int cur = first;
  for (int step = 0; step < P - 1; ++step) {
    const int in = (cur - 1 + P) % P;
    const int t = tag + (step & 15);
    sendrecv(c, buf + blocks.off(cur), blocks.len(cur), right, t, buf + blocks.off(in),
             blocks.len(in), left, t);
    cur = in;
  }
}

void Engine::pairwise(mpi::Comm& c, const std::byte* in, const Blocks& sb, std::byte* out,
                      const Blocks& rb, int tag) {
  for (int k = 1; k < c.size_; ++k) {
    const int dst = (c.rank_ + k) % c.size_;
    const int src = (c.rank_ - k + c.size_) % c.size_;
    const int t = tag + (k & 15);
    sendrecv(c, in + sb.off(dst), sb.len(dst), dst, t, out + rb.off(src), rb.len(src), src, t);
  }
}

// ---------------------------------------------------------------------------
// barrier / bcast
// ---------------------------------------------------------------------------

void Engine::barrier(mpi::Comm& c) {
  // Dissemination: ⌈log₂P⌉ rounds, round k signals rank + 2^k and waits for
  // rank − 2^k.
  if (c.size_ == 1) return;
  const std::uint64_t sp = phase_begin(c, CollOp::Barrier, Algo::RecDoubling, 0);
  int round = 0;
  for (int k = 1; k < c.size_; k <<= 1, ++round) {
    const int dst = (c.rank_ + k) % c.size_;
    const int src = (c.rank_ - k + c.size_) % c.size_;
    const int t = kTagBarrier + (round & 15);
    sendrecv(c, nullptr, 0, dst, t, nullptr, 0, src, t);
  }
  phase_end(c, sp, 0);
}

void Engine::bcast(mpi::Comm& c, void* buf, std::size_t len, int root) {
  if (c.size_ == 1) return;
  const std::uint64_t sp = phase_begin(c, CollOp::Bcast, Algo::Binomial, len);
  bcast_tree(c, buf, len, root, 0, kTagBcast);
  phase_end(c, sp, len);
}

void Engine::bcast_tree(mpi::Comm& c, void* buf, std::size_t len, int root, int arity,
                        int tag) {
  const int vr = (c.rank_ - root + c.size_) % c.size_;
  Kids kids;
  const int parent = tree_edges(vr, c.size_, arity, &kids);
  if (parent >= 0) recv(c, buf, len, (parent + root) % c.size_, tag);
  // Largest subtree first (binomial kids ascend, so iterate in reverse): the
  // deep branches start flowing before the leaves.
  const std::span<const int> down = kids.list();
  for (auto it = down.rbegin(); it != down.rend(); ++it) {
    send(c, buf, len, (*it + root) % c.size_, tag);
  }
}

// ---------------------------------------------------------------------------
// reduce / allreduce / scan
// ---------------------------------------------------------------------------

void Engine::reduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                    const ReduceFn& fold, int root) {
  if (c.size_ == 1) return;
  const std::size_t bytes = elem * count;
  const std::uint64_t sp = phase_begin(c, CollOp::Reduce, Algo::Auto, bytes);
  reduce_tree(c, data, elem, count, fold, root, 0, kTagReduce);
  phase_end(c, sp, bytes);
}

void Engine::allreduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                       const ReduceFn& fold, int nic_op) {
  if (c.size_ == 1) return;
  const std::size_t bytes = elem * count;
  Algo a = resolve_allreduce(c.coll_.allreduce);
  if (a == Algo::NicOffload && !(nic_op >= 0 && count == 1 && elem == sizeof(double))) {
    a = Algo::Binomial;  // the NIC unit combines exactly one double
  }
  const std::uint64_t sp = phase_begin(c, CollOp::Allreduce, a, bytes);
  const int arity = a == Algo::Kary ? kKary : 0;
  double v = 0;
  if (a == Algo::NicOffload) std::memcpy(&v, data, sizeof v);
  if (a == Algo::RecDoubling) {
    allreduce_recdbl(c, data, elem, count, fold);
  } else if (a == Algo::Ring) {
    allreduce_ring(c, data, elem, count, fold);
  } else if (a == Algo::NicOffload && nic_combine_tree(c, &v, nic_op)) {
    std::memcpy(data, &v, sizeof v);
  } else {
    reduce_tree(c, data, elem, count, fold, 0, arity, kTagAllreduceUp);
    bcast_tree(c, data, bytes, 0, arity, kTagAllreduceDown);
  }
  phase_end(c, sp, bytes);
}

void Engine::reduce_tree(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                         const ReduceFn& fold, int root, int arity, int tag) {
  const int P = c.size_;
  const std::size_t bytes = elem * count;
  Kids kids;
  const int parent = tree_edges((c.rank_ - root + P) % P, P, arity, &kids);
  std::vector<std::byte> tmp(kids.n > 0 ? bytes : 0);  // leaves receive nothing
  for (const int k : kids.list()) {
    recv(c, tmp.data(), bytes, (k + root) % P, tag);
    fold(data, tmp.data(), count);
  }
  if (parent >= 0) send(c, data, bytes, (parent + root) % P, tag);
}

void Engine::allreduce_recdbl(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                              const ReduceFn& fold) {
  // Recursive doubling with the MPICH non-power-of-two fold: excess ranks
  // contribute to a partner, sit out the doubling, and get the result after.
  const std::size_t bytes = elem * count;
  auto* acc = static_cast<std::byte*>(data);
  std::vector<std::byte> tmp(bytes);

  int pof2 = 1;
  while (pof2 * 2 <= c.size_) pof2 *= 2;
  const int rem = c.size_ - pof2;

  int newrank;
  if (c.rank_ < 2 * rem) {
    if (c.rank_ % 2 == 0) {
      send(c, acc, bytes, c.rank_ + 1, kTagRd);
      newrank = -1;
    } else {
      recv(c, tmp.data(), bytes, c.rank_ - 1, kTagRd);
      fold(acc, tmp.data(), count);
      newrank = c.rank_ / 2;
    }
  } else {
    newrank = c.rank_ - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newdst = newrank ^ mask;
      const int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      sendrecv(c, acc, bytes, dst, kTagRd + 1, tmp.data(), bytes, dst, kTagRd + 1);
      fold(acc, tmp.data(), count);
    }
  }

  if (c.rank_ < 2 * rem) {
    if (c.rank_ % 2 == 0) {
      recv(c, acc, bytes, c.rank_ + 1, kTagRd + 2);
    } else {
      send(c, acc, bytes, c.rank_ - 1, kTagRd + 2);
    }
  }
}

void Engine::allreduce_ring(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                            const ReduceFn& fold) {
  // Ring reduce-scatter then ring allgather over P element-blocks: each of
  // the 2(P-1) steps moves ~count/P elements, so every rank sends the
  // bandwidth-optimal 2*count*(P-1)/P elements total.
  const int P = c.size_;
  auto* p = static_cast<std::byte*>(data);
  const Blocks b = Blocks::even(count, P, elem);
  std::vector<std::byte> tmp(b.len(0));  // block 0 is a largest block
  const int right = (c.rank_ + 1) % P;
  const int left = (c.rank_ - 1 + P) % P;

  for (int s = 0; s < P - 1; ++s) {
    const int sb = (c.rank_ - s + P) % P;
    const int rb = (c.rank_ - s - 1 + 2 * P) % P;
    const int tag = kTagRs + (s & 15);
    sendrecv(c, p + b.off(sb), b.len(sb), right, tag, tmp.data(), b.len(rb), left, tag);
    fold(p + b.off(rb), tmp.data(), b.len(rb) / elem);
  }
  // Rank r now owns the fully reduced block (r+1) mod P; circulate it.
  ring_allgather(c, p, b, (c.rank_ + 1) % P, kTagRag);
}

void Engine::scan(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                  const ReduceFn& fold) {
  // Linear pipeline: receive the prefix from rank-1, fold in our values,
  // forward to rank+1.
  if (c.size_ == 1) return;
  const std::size_t bytes = elem * count;
  const std::uint64_t sp = phase_begin(c, CollOp::Scan, Algo::Auto, bytes);
  if (c.rank_ > 0) {
    std::vector<std::byte> prefix(bytes);
    recv(c, prefix.data(), bytes, c.rank_ - 1, kTagScan);
    fold(data, prefix.data(), count);
  }
  if (c.rank_ + 1 < c.size_) send(c, data, bytes, c.rank_ + 1, kTagScan);
  phase_end(c, sp, bytes);
}

// ---------------------------------------------------------------------------
// gather / scatter / allgather
// ---------------------------------------------------------------------------

void Engine::gather(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                    int root) {
  auto* out = static_cast<std::byte*>(recvbuf);
  if (c.rank_ == root) std::memcpy(out + static_cast<std::size_t>(root) * block, sendbuf, block);
  if (c.size_ == 1) return;
  const std::size_t bytes = block * static_cast<std::size_t>(c.size_);
  const std::uint64_t sp = phase_begin(c, CollOp::Gather, Algo::Auto, bytes);
  if (c.rank_ == root) {
    std::vector<mpi::TxRequest*> reqs;
    reqs.reserve(static_cast<std::size_t>(c.size_ - 1));
    for (int p = 0; p < c.size_; ++p) {
      if (p != root) {
        reqs.push_back(post_recv(c, p, kTagGather, out + static_cast<std::size_t>(p) * block,
                                 block));
      }
    }
    for (mpi::TxRequest* q : reqs) c.wait_release(q);
  } else {
    send(c, sendbuf, block, root, kTagGather);
  }
  phase_end(c, sp, bytes);
}

void Engine::scatter(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                     int root) {
  const auto* in = static_cast<const std::byte*>(sendbuf);
  if (c.size_ == 1) {
    std::memcpy(recvbuf, in, block);
    return;
  }
  const std::size_t bytes = block * static_cast<std::size_t>(c.size_);
  const std::uint64_t sp = phase_begin(c, CollOp::Scatter, Algo::Auto, bytes);
  if (c.rank_ == root) {
    std::vector<mpi::TxRequest*> reqs;
    reqs.reserve(static_cast<std::size_t>(c.size_ - 1));
    for (int p = 0; p < c.size_; ++p) {
      if (p != root) {
        reqs.push_back(post_send(c, p, kTagScatter, in + static_cast<std::size_t>(p) * block,
                                 block));
      }
    }
    std::memcpy(recvbuf, in + static_cast<std::size_t>(root) * block, block);
    for (mpi::TxRequest* q : reqs) c.wait_release(q);
  } else {
    recv(c, recvbuf, block, root, kTagScatter);
  }
  phase_end(c, sp, bytes);
}

void Engine::allgather(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf) {
  // Bruck et al., as MPICH2's short-message allgather, in place: block i
  // holds rank (rank + i) % P's contribution. Each round sends the `have`
  // blocks held so far to rank - have and appends the ones rank + have holds,
  // so ⌈log₂P⌉ rounds suffice for any P (the last moves only the P - have
  // missing). One rotation then puts every block at its rank's index.
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out, sendbuf, block);
  const int P = c.size_;
  if (P == 1) return;
  const std::size_t bytes = block * static_cast<std::size_t>(P);
  const std::uint64_t sp = phase_begin(c, CollOp::Allgather, Algo::Auto, bytes);
  int round = 0;
  for (int have = 1; have < P; have *= 2, ++round) {
    const std::size_t len = static_cast<std::size_t>(std::min(have, P - have)) * block;
    const int t = kTagAllgather + (round & 15);
    sendrecv(c, out, len, (c.rank_ - have + P) % P, t,
             out + static_cast<std::size_t>(have) * block, len, (c.rank_ + have) % P, t);
  }
  std::rotate(out, out + static_cast<std::size_t>((P - c.rank_) % P) * block, out + bytes);
  phase_end(c, sp, bytes);
}

// ---------------------------------------------------------------------------
// alltoall / alltoallv
// ---------------------------------------------------------------------------

void Engine::alltoall(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf) {
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(c.rank_) * block,
              in + static_cast<std::size_t>(c.rank_) * block, block);
  if (c.size_ == 1) return;
  Algo a = resolve_alltoall(c.coll_.alltoall);
  if (a == Algo::NicOffload) a = Algo::Ring;  // no NIC path for alltoall
  if (a == Algo::RecDoubling && (c.size_ & (c.size_ - 1)) != 0) a = Algo::Ring;
  const std::size_t bytes = block * static_cast<std::size_t>(c.size_);
  const std::uint64_t sp = phase_begin(c, CollOp::Alltoall, a, bytes);
  switch (a) {
    case Algo::Binomial: alltoall_bruck(c, in, block, out); break;
    case Algo::RecDoubling: alltoall_xor(c, in, block, out); break;
    case Algo::Kary: alltoall_windowed(c, in, block, out); break;
    default: {
      const Blocks even = Blocks::even(c.size_, c.size_, block);
      pairwise(c, in, even, out, even, kTagA2aPair);
      break;
    }
  }
  phase_end(c, sp, bytes);
}

void Engine::alltoallv(mpi::Comm& c, const void* sendbuf, const std::size_t* sendcounts,
                       const std::size_t* senddispls, void* recvbuf,
                       const std::size_t* recvcounts, const std::size_t* recvdispls) {
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + recvdispls[c.rank_], in + senddispls[c.rank_], sendcounts[c.rank_]);
  if (c.size_ == 1) return;
  const std::size_t bytes =
      std::accumulate(sendcounts, sendcounts + c.size_, std::size_t{0});
  const std::uint64_t sp = phase_begin(c, CollOp::Alltoallv, Algo::Auto, bytes);
  pairwise(c, in, Blocks{sendcounts, senddispls}, out, Blocks{recvcounts, recvdispls},
           kTagAlltoallv);
  phase_end(c, sp, bytes);
}

void Engine::alltoall_bruck(mpi::Comm& c, const std::byte* in, std::size_t block,
                            std::byte* out) {
  // Bruck: ceil(log2 P) rounds of bundled blocks — latency-optimal for small
  // blocks at the cost of local copies and log-factor extra bytes.
  const int P = c.size_;
  const int r = c.rank_;
  std::vector<std::byte> tmp(static_cast<std::size_t>(P) * block);
  const std::size_t half = (static_cast<std::size_t>(P) + 1) / 2;
  std::vector<std::byte> pack(half * block);
  std::vector<std::byte> rbuf(half * block);

  for (int i = 0; i < P; ++i) {
    std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block,
                in + static_cast<std::size_t>((r + i) % P) * block, block);
  }
  for (int mask = 1; mask < P; mask <<= 1) {
    std::size_t n = 0;
    for (int i = 0; i < P; ++i) {
      if ((i & mask) != 0) {
        std::memcpy(pack.data() + n * block, tmp.data() + static_cast<std::size_t>(i) * block,
                    block);
        ++n;
      }
    }
    const int dst = (r + mask) % P;
    const int src = (r - mask + P) % P;
    sendrecv(c, pack.data(), n * block, dst, kTagA2aBruck, rbuf.data(), n * block, src,
             kTagA2aBruck);
    n = 0;
    for (int i = 0; i < P; ++i) {
      if ((i & mask) != 0) {
        std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block, rbuf.data() + n * block,
                    block);
        ++n;
      }
    }
  }
  for (int i = 0; i < P; ++i) {
    std::memcpy(out + static_cast<std::size_t>((r - i + P) % P) * block,
                tmp.data() + static_cast<std::size_t>(i) * block, block);
  }
}

void Engine::alltoall_xor(mpi::Comm& c, const std::byte* in, std::size_t block,
                          std::byte* out) {
  // XOR pairwise exchange: power-of-two only; every round is a perfect
  // matching, so no rank ever waits on a busy partner.
  for (int k = 1; k < c.size_; ++k) {
    const int peer = c.rank_ ^ k;
    sendrecv(c, in + static_cast<std::size_t>(peer) * block, block, peer, kTagA2aXor,
             out + static_cast<std::size_t>(peer) * block, block, peer, kTagA2aXor);
  }
}

void Engine::alltoall_windowed(mpi::Comm& c, const std::byte* in, std::size_t block,
                               std::byte* out) {
  // Nonblocking batches of kKary peers: receives posted first so eager
  // arrivals match instead of queueing unexpected.
  const int P = c.size_;
  std::vector<mpi::TxRequest*> reqs;
  for (int lo = 1; lo < P; lo += kKary) {
    const int hi = std::min(lo + kKary, P);
    reqs.clear();
    for (int k = lo; k < hi; ++k) {
      const int src = (c.rank_ - k + P) % P;
      reqs.push_back(
          post_recv(c, src, kTagA2aWin + (k & 15), out + static_cast<std::size_t>(src) * block,
                    block));
    }
    for (int k = lo; k < hi; ++k) {
      const int dst = (c.rank_ + k) % P;
      reqs.push_back(
          post_send(c, dst, kTagA2aWin + (k & 15), in + static_cast<std::size_t>(dst) * block,
                    block));
    }
    for (mpi::TxRequest* q : reqs) c.wait_release(q);
  }
}

}  // namespace nmx::coll
