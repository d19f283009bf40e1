// Topology/rail-aware collective engine: the one implementation of every
// MPI collective behind mpi::Comm, shared by all stacks. Allreduce and
// alltoall have selectable algorithms (binomial and k-ary trees, ring,
// recursive doubling, and for allreduce a modeled NIC-offloaded combine tree
// after Yu/Buntinas/Graham/Panda). Every other op runs one algorithm: a
// dissemination barrier, binomial bcast and reduce, Bruck's allgather
// (⌈log₂P⌉ rounds, as MPICH2 runs short allgathers), linear gather, scatter
// and scan, and a shifted-pairwise alltoallv (why barrier and bcast have one:
// EXPERIMENTS.md, "Collective algorithm sweep").
//
// Every host-tree edge is an ordinary transport send, so its rail choice and
// rendezvous chunking route through the NewMadeleine cost model
// (Strategy::pick_rail / the CostModel chunk planner, fed by the RailAd
// two-ended horizons): the collective layer decides *who talks to whom*, the
// strategy decides *which wire carries it*. The NIC-offloaded allreduce
// bypasses the host trees entirely: contributions combine inside the
// nmad::Core NIC unit and cross nodes as CollCtl control frames on the
// min-predicted-egress rail.
//
// Layering: nmx_coll sits *below* nmx_mpi (nmx_mpi links it). Engine is a
// friend of mpi::Comm and uses only Comm's inline members plus the raw
// Transport, so this library never references a symbol defined in comm.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace nmx::mpi {
class Comm;
struct TxRequest;
}  // namespace nmx::mpi

namespace nmx::obs {
enum class CollOp : std::uint8_t;
}  // namespace nmx::obs

namespace nmx::coll {

/// Algorithm selector of allreduce and alltoall. Auto resolves to the op's
/// default (Engine::resolve_*), chosen to match the pre-engine behaviour:
/// binomial reduce+bcast allreduce, shifted-pairwise alltoall. Coll spans
/// record (op << 8) | algo, so barrier spans carry RecDoubling (the
/// dissemination rounds) and bcast spans Binomial.
enum class Algo : std::uint8_t {
  Auto,         ///< the op's default algorithm
  Binomial,     ///< binomial tree (alltoall: Bruck's log-round algorithm)
  Kary,         ///< k-ary tree, arity 4 (alltoall: pairwise, window of 4)
  Ring,         ///< ring reduce-scatter + allgather (alltoall: shifted pairwise)
  RecDoubling,  ///< recursive doubling (alltoall: XOR exchange when P is a
                ///< power of two, else shifted pairwise)
  NicOffload,   ///< NIC combine tree; falls back to a host tree when the
                ///< stack has no NIC unit or the payload is not one double
                ///< (alltoall: shifted pairwise)
};

const char* to_string(Algo a);

/// Algorithm selection of the two ops that have a choice.
struct Config {
  Algo allreduce = Algo::Auto;
  Algo alltoall = Algo::Auto;
};

/// Element-wise reduction: fold `count` elements of `in` into `inout`.
using ReduceFn = std::function<void(void* inout, const void* in, std::size_t count)>;

/// Every op runs on the communicator's collective context; allreduce and
/// alltoall with the algorithm its coll::Config (Comm::set_coll_config)
/// selects.
class Engine {
 public:
  static void barrier(mpi::Comm& c);
  static void bcast(mpi::Comm& c, void* buf, std::size_t len, int root);
  /// In-place allreduce: `data` holds this rank's `count` contributions of
  /// `elem` bytes and receives the combined vector. `nic_op` >= 0 (the NIC
  /// combine op code) marks a payload the NIC unit can take — one double —
  /// and is only honoured under Algo::NicOffload.
  static void allreduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                        const ReduceFn& fold, int nic_op);
  /// In-place binomial reduce: `data` is this rank's contribution and, at
  /// `root`, receives the result (scratch elsewhere).
  static void reduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                     const ReduceFn& fold, int root);
  /// In-place inclusive prefix reduction (linear chain).
  static void scan(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                   const ReduceFn& fold);
  /// `block` bytes per rank; the root's buffer holds size()*block (linear).
  static void gather(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                     int root);
  static void scatter(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                      int root);
  static void allgather(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf);
  static void alltoall(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf);
  /// Byte counts and displacements per peer (shifted pairwise).
  static void alltoallv(mpi::Comm& c, const void* sendbuf, const std::size_t* sendcounts,
                        const std::size_t* senddispls, void* recvbuf,
                        const std::size_t* recvcounts, const std::size_t* recvdispls);

 private:
  // Auto resolution per op.
  static Algo resolve_allreduce(Algo a) { return a == Algo::Auto ? Algo::Binomial : a; }
  static Algo resolve_alltoall(Algo a) { return a == Algo::Auto ? Algo::Ring : a; }

  // --- pt2pt plumbing on the collective context ----------------------------
  static int ctx(const mpi::Comm& c);
  static mpi::TxRequest* post_send(mpi::Comm& c, int dst, int tag, const void* buf,
                                   std::size_t len);
  static mpi::TxRequest* post_recv(mpi::Comm& c, int src, int tag, void* buf, std::size_t cap);
  static void send(mpi::Comm& c, const void* buf, std::size_t len, int dst, int tag);
  static void recv(mpi::Comm& c, void* buf, std::size_t cap, int src, int tag);
  static void sendrecv(mpi::Comm& c, const void* sbuf, std::size_t slen, int dst, int stag,
                       void* rbuf, std::size_t rcap, int src, int rtag);

  // Cat::Coll span + nmad.coll.* metrics around one collective op.
  static std::uint64_t phase_begin(mpi::Comm& c, obs::CollOp op, Algo algo, std::size_t bytes);
  static void phase_end(mpi::Comm& c, std::uint64_t sp, std::size_t bytes);

  /// Fixed-capacity child list of one tree vertex (defined in coll.cpp).
  struct Kids;
  /// Binomial (arity == 0) or k-ary parent/children of `vr` in a tree rooted
  /// at virtual rank 0; children ascending.
  static int tree_edges(int vr, int size, int arity, Kids* children);

  /// Binomial NIC combine tree rooted at rank 0: returns false when the
  /// transport has no NIC unit (caller falls back to a host tree).
  static bool nic_combine_tree(mpi::Comm& c, double* value, int op);

  /// Binomial (arity == 0) or k-ary tree broadcast of `buf` from `root`.
  static void bcast_tree(mpi::Comm& c, void* buf, std::size_t len, int root, int arity, int tag);

  // reduce / allreduce bodies
  static void reduce_tree(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                          const ReduceFn& fold, int root, int arity, int tag);
  static void allreduce_recdbl(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                               const ReduceFn& fold);
  static void allreduce_ring(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                             const ReduceFn& fold);

  /// Where block b of a P-block buffer lives (defined in coll.cpp).
  struct Blocks;
  /// Ring allgather of the P blocks of `buf`: this rank starts with block
  /// `first` and every step forwards the block it last received to its
  /// right neighbour.
  static void ring_allgather(mpi::Comm& c, std::byte* buf, const Blocks& blocks, int first,
                             int tag);
  /// Shifted pairwise exchange: round k sends block rank+k of `in` to rank+k
  /// and receives block rank-k of `out` from rank-k.
  static void pairwise(mpi::Comm& c, const std::byte* in, const Blocks& sb, std::byte* out,
                       const Blocks& rb, int tag);

  // alltoall bodies
  static void alltoall_bruck(mpi::Comm& c, const std::byte* in, std::size_t block,
                             std::byte* out);
  static void alltoall_xor(mpi::Comm& c, const std::byte* in, std::size_t block, std::byte* out);
  static void alltoall_windowed(mpi::Comm& c, const std::byte* in, std::size_t block,
                                std::byte* out);
};

}  // namespace nmx::coll
