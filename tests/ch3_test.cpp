// CH3 layer tests: the any-source management lists of §3.2.2 / Figure 3
// (unit level), plus integration scenarios through the full stack — message
// ordering with MPI_ANY_SOURCE, intra-node matches cancelling the list
// entry, deferred known-source receives, and the legacy (non-bypass) path.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "ch3/anysource.hpp"
#include "ch3/packet.hpp"
#include "ch3/request.hpp"
#include "mpi/cluster.hpp"

namespace nmx {
namespace {

// ---------------------------------------------------------------------------
// AnySourceLists unit tests
// ---------------------------------------------------------------------------

struct AsFixture : ::testing::Test {
  std::list<ch3::MpidRequest> pool;
  std::vector<ch3::MpidRequest*> released;

  ch3::MpidRequest* req(int src, int tag, int ctx = 0) {
    pool.emplace_back();
    auto* r = &pool.back();
    r->kind = ch3::MpidRequest::Kind::Recv;
    r->peer = src;
    r->tag = tag;
    r->context = ctx;
    return r;
  }
  ch3::AnySourceLists::ReleaseFn collect() {
    return [this](ch3::MpidRequest* r) { released.push_back(r); };
  }
};

TEST_F(AsFixture, EmptyListsBlockNothing) {
  ch3::AnySourceLists as;
  EXPECT_FALSE(as.blocks(0, 7));
  EXPECT_TRUE(as.empty());
}

TEST_F(AsFixture, AnySourceBlocksSameTagOnly) {
  ch3::AnySourceLists as;
  as.add_any_source(req(mpi::ANY_SOURCE, 7));
  EXPECT_TRUE(as.blocks(0, 7));
  EXPECT_FALSE(as.blocks(0, 8));
  EXPECT_FALSE(as.blocks(1, 7));  // different context
}

TEST_F(AsFixture, WildcardTagBlocksWholeContext) {
  ch3::AnySourceLists as;
  as.add_any_source(req(mpi::ANY_SOURCE, mpi::ANY_TAG));
  EXPECT_TRUE(as.blocks(0, 7));
  EXPECT_TRUE(as.blocks(0, 123));
  EXPECT_FALSE(as.blocks(1, 7));
}

TEST_F(AsFixture, ResolveReleasesDeferredUntilNextAnySource) {
  ch3::AnySourceLists as;
  auto* as1 = req(mpi::ANY_SOURCE, 7);
  as.add_any_source(as1);
  auto* r1 = req(3, 7);
  auto* r2 = req(4, 7);
  as.defer(r1);
  as.defer(r2);
  auto* as2 = req(mpi::ANY_SOURCE, 7);
  as.add_any_source(as2);
  auto* r3 = req(5, 7);
  as.defer(r3);

  as.resolve(as1, collect());
  // r1, r2 released; as2 becomes the head; r3 stays deferred behind it.
  EXPECT_EQ(released, (std::vector<ch3::MpidRequest*>{r1, r2}));
  EXPECT_TRUE(as.blocks(0, 7));
  ASSERT_EQ(as.heads().size(), 1u);
  EXPECT_EQ(as.heads()[0], as2);

  released.clear();
  as.resolve(as2, collect());
  EXPECT_EQ(released, (std::vector<ch3::MpidRequest*>{r3}));
  EXPECT_FALSE(as.blocks(0, 7));
  EXPECT_TRUE(as.empty());
}

TEST_F(AsFixture, HeadsAreOrderedByPostTime) {
  ch3::AnySourceLists as;
  auto* a = req(mpi::ANY_SOURCE, 7);
  auto* b = req(mpi::ANY_SOURCE, 3);
  as.add_any_source(a);
  as.add_any_source(b);
  auto heads = as.heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], a);
  EXPECT_EQ(heads[1], b);
}

// ---------------------------------------------------------------------------
// Full-stack integration
// ---------------------------------------------------------------------------

mpi::ClusterConfig stack_cfg(int nodes, int procs, bool bypass = true) {
  mpi::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.procs = procs;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.bypass = bypass;
  return cfg;
}

TEST(AnySourceIntegration, ReceivesFromTwoRemoteSenders) {
  mpi::Cluster cluster(stack_cfg(3, 3));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int seen[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, 7);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, 7);
        seen[st.source - 1]++;
      }
      EXPECT_EQ(seen[0], 1);
      EXPECT_EQ(seen[1], 1);
    } else {
      int v = c.rank() * 100;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, OrderingWithLaterKnownSourceReceive) {
  // AS(tag) posted first, then recv(src=1, tag). Sender 1 sends twice.
  // MPI ordering: the first message must match the any-source request.
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      mpi::Request r_as = c.irecv(&a, sizeof(a), mpi::ANY_SOURCE, 7);
      mpi::Request r_known = c.irecv(&b, sizeof(b), 1, 7);
      auto st = c.wait(r_as);
      c.wait(r_known);
      EXPECT_EQ(a, 111);  // first send goes to the earlier (any-source) recv
      EXPECT_EQ(b, 222);
      EXPECT_EQ(st.source, 1);
    } else {
      int v1 = 111, v2 = 222;
      c.send(&v1, sizeof(v1), 0, 7);
      c.send(&v2, sizeof(v2), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, IntraNodeMessageMatchesAndReleasesDeferred) {
  // Rank 0, rank 1 on node 0; rank 2 remote. AS recv matches the shm
  // message from rank 1; the deferred known-source recv for rank 2 is then
  // posted and completes.
  mpi::ClusterConfig cfg = stack_cfg(2, 3);
  cfg.nodes = 2;  // block mapping: ranks 0,1 on node 0; rank 2 on node 1
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      mpi::Request r_as = c.irecv(&a, sizeof(a), mpi::ANY_SOURCE, 7);
      mpi::Request r2 = c.irecv(&b, sizeof(b), 2, 7);
      // Tell the senders to go (they are ordered by these sends).
      char go = 1;
      c.send(&go, 1, 1, 1);
      c.send(&go, 1, 2, 1);
      auto st = c.wait(r_as);
      c.wait(r2);
      EXPECT_EQ(st.source, 1);  // shm sender arrives first (lower latency)
      EXPECT_EQ(a, 100);
      EXPECT_EQ(b, 200);
    } else if (c.rank() == 1) {
      char go;
      c.recv(&go, 1, 0, 1);
      int v = 100;
      c.send(&v, sizeof(v), 0, 7);
    } else {
      char go;
      c.recv(&go, 1, 0, 1);
      c.compute(20e-6);  // let the shm message win the race deterministically
      int v = 200;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, KnownSourceAnyTagReceives) {
  // Regression: a known remote source with MPI_ANY_TAG cannot be posted to
  // NewMadeleine's exact matching — it must go through the wildcard lists.
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), 1, mpi::ANY_TAG);
        EXPECT_EQ(st.tag, 50 + i);
        EXPECT_EQ(v, i * 3);
        EXPECT_EQ(st.source, 1);
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        int v = i * 3;
        c.send(&v, sizeof(v), 0, 50 + i);
      }
    }
  });
}

TEST(AnySourceIntegration, AnyTagWildcardReceives) {
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, mpi::ANY_TAG);
        EXPECT_EQ(st.tag, 10 + i);  // per-pair FIFO order preserved
        EXPECT_EQ(v, 1000 + i);
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        int v = 1000 + i;
        c.send(&v, sizeof(v), 0, 10 + i);
      }
    }
  });
}

TEST(AnySourceIntegration, ConstantLatencyPenalty) {
  // §4.1.1: the any-source path costs a constant ~300 ns, independent of
  // message size.
  auto one_way = [](bool any_source, std::size_t size) {
    mpi::Cluster cluster(stack_cfg(2, 2));
    double t = 0;
    cluster.run([&](mpi::Comm& c) {
      std::vector<std::byte> buf(size);
      const int src = any_source ? mpi::ANY_SOURCE : 1 - c.rank();
      for (int i = 0; i < 2; ++i) {  // warmup + measured
        const double t0 = c.wtime();
        if (c.rank() == 0) {
          c.send(buf.data(), size, 1, 0);
          c.recv(buf.data(), size, src, 0);
        } else {
          c.recv(buf.data(), size, src, 0);
          c.send(buf.data(), size, 1 - c.rank(), 0);
        }
        if (c.rank() == 0 && i == 1) t = (c.wtime() - t0) / 2;
      }
    });
    return t;
  };
  const double gap_small = one_way(true, 8) - one_way(false, 8);
  const double gap_large = one_way(true, 16384) - one_way(false, 16384);
  EXPECT_NEAR(gap_small, 0.3e-6, 0.05e-6);
  EXPECT_NEAR(gap_large, 0.3e-6, 0.05e-6);
}

// ---------------------------------------------------------------------------
// Recycled request objects
// ---------------------------------------------------------------------------

// A released MpidRequest goes back to its process's free list and the next
// request reuses the node. The first receive here goes through the
// any-source lists (via_any_source, a bound NewMadeleine request); the plain
// remote receive that reuses its node must start fresh: same completion time
// as when the first receive named its source, so no 300 ns any-source charge
// carried over, and its own unbound, unqueued state.
class RecycledRequest : public ::testing::TestWithParam<bool> {
 protected:
  struct Outcome {
    bool first_via_any_source = false;
    bool node_reused = false;
    double second_done = -1;
  };

  Outcome run(int first_src) {
    mpi::ClusterConfig cfg = stack_cfg(2, 2);
    cfg.pioman = GetParam();
    mpi::Cluster cluster(cfg);
    Outcome out;
    constexpr int kCtx = 0;  // the world communicator's user context
    constexpr double kSecondSendAt = 200e-6;
    cluster.run([&](mpi::Comm& c) {
      mpi::Transport& tx = cluster.transport(c.rank());
      if (c.rank() == 1) {
        int v = 111;
        c.send(&v, sizeof(v), 0, 7);
        c.compute(kSecondSendAt - c.wtime());  // long after the first receive settled
        v = 222;
        c.send(&v, sizeof(v), 0, 8);
        return;
      }
      int a = -1, b = -1;
      auto* first = static_cast<ch3::MpidRequest*>(tx.irecv(first_src, 7, kCtx, &a, sizeof(a)));
      tx.wait(c.actor(), first);
      EXPECT_EQ(a, 111);
      out.first_via_any_source = first->via_any_source;
      tx.release(first);

      auto* second = static_cast<ch3::MpidRequest*>(tx.irecv(1, 8, kCtx, &b, sizeof(b)));
      out.node_reused = second == first;
      EXPECT_FALSE(second->completed);
      EXPECT_FALSE(second->via_any_source);
      EXPECT_FALSE(second->in_posted_queue);  // remote known source: nmad matches it
      ASSERT_NE(second->nmad_req, nullptr);
      EXPECT_EQ(second->nmad_req->tag, ch3::pack_tag(kCtx, 8));
      EXPECT_FALSE(second->nmad_req->completed);
      tx.wait(c.actor(), second);
      out.second_done = c.wtime();
      EXPECT_EQ(b, 222);
      EXPECT_EQ(second->status.source, 1);
      EXPECT_EQ(second->status.tag, 8);
      tx.release(second);
    });
    return out;
  }
};

TEST_P(RecycledRequest, ReusedNodeStartsFresh) {
  const Outcome any = run(mpi::ANY_SOURCE);
  const Outcome known = run(1);
  ASSERT_TRUE(any.first_via_any_source);
  ASSERT_FALSE(known.first_via_any_source);
  ASSERT_TRUE(any.node_reused) << "the second receive did not reuse the released node";
  EXPECT_DOUBLE_EQ(any.second_done, known.second_done)
      << "the any-source charge leaked into the recycled request";
}

INSTANTIATE_TEST_SUITE_P(Pioman, RecycledRequest, ::testing::Bool());

// ---------------------------------------------------------------------------
// Intra-node CH3 rendezvous (Nemesis LMT)
// ---------------------------------------------------------------------------

// The shm rendezvous keeps a view of the sender's buffer until the CTS, so
// the send must stay incomplete until the receive is posted and the CTS is
// handled; once it completes the buffer is the user's again, and scribbling
// on it must not reach the receiver.
class ShmRendezvous : public ::testing::TestWithParam<bool> {};

TEST_P(ShmRendezvous, LateReceiveHoldsSendUntilCts) {
  mpi::ClusterConfig cfg = stack_cfg(1, 2);  // both ranks on one node
  cfg.pioman = GetParam();
  mpi::Cluster cluster(cfg);
  const std::size_t n = 256 * 1024;  // above the 64 KiB shm rendezvous switch
  std::vector<std::byte> msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  const double recv_post = 500e-6;
  double send_done = -1;
  double posted_at = -1;
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf = msg;
      mpi::Request r = c.isend(buf.data(), buf.size(), 1, 4);
      for (int i = 0; i < 4; ++i) {
        c.compute(100e-6);  // the RTS has long arrived; no receive yet
        EXPECT_FALSE(c.test(r)) << "shm rendezvous send completed before its CTS";
      }
      c.wait(r);
      send_done = c.wtime();
      std::fill(buf.begin(), buf.end(), std::byte{0xee});  // reuse is legal now
    } else {
      c.compute(recv_post);
      std::vector<std::byte> in(n);
      posted_at = c.wtime();
      auto st = c.recv(in.data(), in.size(), 0, 4);
      EXPECT_EQ(st.count, n);
      EXPECT_EQ(in, msg);
    }
  });
  EXPECT_GE(posted_at, recv_post);
  EXPECT_GT(send_done, posted_at);
}

INSTANTIATE_TEST_SUITE_P(Pioman, ShmRendezvous, ::testing::Bool());

// ---------------------------------------------------------------------------
// Legacy netmod path (bypass = false)
// ---------------------------------------------------------------------------

class LegacyPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LegacyPath, CarriesBytesLikeBypass) {
  mpi::Cluster cluster(stack_cfg(2, 2, /*bypass=*/false));
  const std::size_t n = GetParam();
  std::vector<std::byte> msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::byte>(i & 0xff);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(msg.data(), msg.size(), 1, 3);
    } else {
      std::vector<std::byte> in(n);
      auto st = c.recv(in.data(), in.size(), 0, 3);
      EXPECT_EQ(st.count, n);
      EXPECT_EQ(in, msg);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, LegacyPath,
                         ::testing::Values(0, 1, 1000, 31999, 32001, 262144, 2097152));

TEST(LegacyPath, AnySourceWorksThroughCentralQueues) {
  mpi::Cluster cluster(stack_cfg(3, 3, /*bypass=*/false));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, 7);
        EXPECT_EQ(v, st.source * 10);
      }
    } else {
      int v = c.rank() * 10;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(LegacyPath, NestedHandshakeCostsMoreThanBypass) {
  // Figure 2: the legacy path runs the CH3 rendezvous *and* NewMadeleine's
  // internal rendezvous — large transfers must be measurably slower.
  auto transfer_time = [](bool bypass) {
    mpi::Cluster cluster(stack_cfg(2, 2, bypass));
    double t = 0;
    cluster.run([&](mpi::Comm& c) {
      // Medium rendezvous size: the extra handshake round trip is not yet
      // amortized by the data transfer.
      std::vector<std::byte> buf(96 * 1024);
      const double t0 = c.wtime();
      if (c.rank() == 0) {
        std::vector<std::byte> in(buf.size());
        c.send(buf.data(), buf.size(), 1, 0);
        c.recv(in.data(), in.size(), 1, 1);
        t = (c.wtime() - t0) / 2;
      } else {
        std::vector<std::byte> in(buf.size());
        c.recv(in.data(), in.size(), 0, 0);
        c.send(buf.data(), buf.size(), 0, 1);
      }
    });
    return t;
  };
  const double legacy = transfer_time(false);
  const double bypass = transfer_time(true);
  EXPECT_GT(legacy, bypass * 1.02);  // at least one extra handshake round
}

// ---------------------------------------------------------------------------
// Late receives on the CH3 queues (bypass = false). The receiver polls
// iprobe until the message sits in CH3's unexpected queue, then posts the
// receive, so the match is made from the unexpected-queue side.
// ---------------------------------------------------------------------------

class LateReceive : public ::testing::TestWithParam<bool> {
 protected:
  /// Rank 0 sends `n` bytes with tag 9 to the last rank, which receives
  /// them late with (recv_src, recv_tag) and checks bytes and Status.
  void run(int nodes, int procs, std::size_t n, int recv_src, int recv_tag) {
    mpi::ClusterConfig cfg = stack_cfg(nodes, procs, /*bypass=*/false);
    cfg.pioman = GetParam();
    mpi::Cluster cluster(cfg);
    const int dst = procs - 1;
    std::vector<std::byte> msg(n);
    for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::byte>((i * 11 + 5) & 0xff);
    cluster.run([&](mpi::Comm& c) {
      mpi::Request sreq;
      if (c.rank() == 0) sreq = c.isend(msg.data(), n, dst, 9);
      if (c.rank() == dst) {
        std::optional<mpi::Status> probed;
        while (!(probed = c.iprobe(recv_src, recv_tag))) c.compute(10e-6);
        EXPECT_EQ(probed->source, 0);
        EXPECT_EQ(probed->tag, 9);
        EXPECT_EQ(probed->count, n);
        std::vector<std::byte> in(n);
        const mpi::Status st = c.recv(in.data(), n, recv_src, recv_tag);
        EXPECT_EQ(st.source, 0);
        EXPECT_EQ(st.tag, 9);
        EXPECT_EQ(st.count, n);
        EXPECT_EQ(in, msg);
      }
      if (sreq.valid()) c.wait(sreq);
    });
  }
};

TEST_P(LateReceive, LegacyRendezvousWithAnySource) {
  run(2, 2, 256 * 1024, mpi::ANY_SOURCE, 9);  // CH3 network RTS, granted late
}

TEST_P(LateReceive, LegacyEagerWithAnyTag) { run(2, 2, 1000, 0, mpi::ANY_TAG); }

TEST_P(LateReceive, SelfSendWithAnySource) { run(1, 1, 1000, mpi::ANY_SOURCE, 9); }

INSTANTIATE_TEST_SUITE_P(Pioman, LateReceive, ::testing::Bool());

}  // namespace
}  // namespace nmx
