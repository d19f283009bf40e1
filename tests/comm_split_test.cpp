// Tests for sub-communicators (MPI_Comm_split) and MPI_Waitany — the API
// surface real NPB codes (row/column communicators in CG, multi-pending
// receives in LU) expect from a production MPI layer.
#include <gtest/gtest.h>

#include "mpi/cluster.hpp"

namespace nmx {
namespace {

mpi::ClusterConfig cfg6() {
  mpi::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.procs = 6;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  return cfg;
}

TEST(CommSplit, RowGroupsHaveLocalRanksAndSizes) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    // 2 rows x 3 columns: color = row, key = column.
    const int row = world.rank() / 3;
    const int col = world.rank() % 3;
    mpi::Comm rowc = world.split(row, col);
    EXPECT_EQ(rowc.size(), 3);
    EXPECT_EQ(rowc.rank(), col);
  });
}

TEST(CommSplit, KeyOrdersTheNewRanks) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    // One group, ranks reversed by key.
    mpi::Comm rev = world.split(0, world.size() - world.rank());
    EXPECT_EQ(rev.rank(), world.size() - 1 - world.rank());
  });
}

TEST(CommSplit, Pt2PtUsesLocalRanksAndTranslatesStatus) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    const int row = world.rank() / 3;
    mpi::Comm rowc = world.split(row, world.rank());
    if (rowc.rank() == 0) {
      rowc.send_value(row * 100 + 7, 2, 5);  // to local rank 2 of MY row
    } else if (rowc.rank() == 2) {
      int v = -1;
      auto st = rowc.recv(&v, sizeof(v), mpi::ANY_SOURCE, 5);
      EXPECT_EQ(v, row * 100 + 7);       // from my own row's rank 0
      EXPECT_EQ(st.source, 0);           // local rank, not world rank
    }
  });
}

TEST(CommSplit, CollectivesScopeToTheSubgroup) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    const int row = world.rank() / 3;
    mpi::Comm rowc = world.split(row, world.rank());
    const double sum = rowc.allreduce_one(1.0, mpi::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum, 3.0);  // only the row, not the world

    int root_val = rowc.rank() == 0 ? row * 11 : -1;
    rowc.bcast(&root_val, sizeof(root_val), 0);
    EXPECT_EQ(root_val, row * 11);

    rowc.barrier();
    world.barrier();
  });
}

TEST(CommSplit, SiblingTrafficCannotCrossMatch) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    const int row = world.rank() / 3;
    mpi::Comm rowc = world.split(row, world.rank());
    // Same local ranks and same tag in both rows simultaneously: contexts
    // must keep them apart.
    if (rowc.rank() == 0) rowc.send_value(1000 + row, 1, 9);
    if (rowc.rank() == 1) {
      EXPECT_EQ(rowc.recv_value<int>(0, 9), 1000 + row);
    }
  });
}

TEST(CommSplit, SplitOfASplitNests) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.procs = 8;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& world) {
    mpi::Comm half = world.split(world.rank() / 4, world.rank());  // two halves of 4
    mpi::Comm quarter = half.split(half.rank() / 2, half.rank());  // four pairs
    EXPECT_EQ(quarter.size(), 2);
    const double sum = quarter.allreduce_one(1.0, mpi::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum, 2.0);
  });
}

TEST(CommSplit, SuccessiveSplitsGetFreshContexts) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    mpi::Comm a = world.split(0, world.rank());
    mpi::Comm b = world.split(0, world.rank());
    // A receive on `b` must not match a send on `a`.
    if (world.rank() == 0) a.send_value(111, 1, 3);
    if (world.rank() == 1) {
      EXPECT_FALSE(b.iprobe(0, 3).has_value());
      EXPECT_EQ(a.recv_value<int>(0, 3), 111);
    }
  });
}

TEST(CommSplit, EqualKeysKeepParentRankOrder) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    // Equal keys within each parity group: new ranks follow world order.
    mpi::Comm parity = world.split(world.rank() % 2, 7);
    EXPECT_EQ(parity.size(), 3);
    EXPECT_EQ(parity.rank(), world.rank() / 2);
    // The tie-break is the rank in the *parent*: split a reversed
    // communicator with equal keys and the reversal survives.
    mpi::Comm rev = world.split(0, world.size() - world.rank());
    mpi::Comm same = rev.split(0, 0);
    EXPECT_EQ(same.rank(), rev.rank());
    EXPECT_EQ(same.rank(), world.size() - 1 - world.rank());
    // The mapping is real, not just the rank number: local rank 0 of `same`
    // is world rank size-1.
    int v = same.rank() == 0 ? world.rank() : -1;
    same.bcast(&v, sizeof(v), 0);
    EXPECT_EQ(v, world.size() - 1);
  });
}

TEST(CommSplit, NegativeKeysOrderLikeAnyOther) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    mpi::Comm rev = world.split(0, -world.rank());
    EXPECT_EQ(rev.rank(), world.size() - 1 - world.rank());
    // Keys straddling zero keep their numeric order.
    mpi::Comm fwd = world.split(0, world.rank() - 3);
    EXPECT_EQ(fwd.rank(), world.rank());
  });
}

TEST(CommSplit, NonPowerOfTwoWorldThreeColors) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.procs = 12;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& world) {
    // Color c holds world ranks c, c+3, c+6, c+9; descending keys reverse them.
    const int color = world.rank() % 3;
    mpi::Comm sub = world.split(color, -world.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - world.rank() / 3);
    const double sum = sub.allreduce_one(static_cast<double>(world.rank()), mpi::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum, 4.0 * color + 18.0);
    int root = sub.rank() == 0 ? world.rank() : -1;
    sub.bcast(&root, sizeof(root), 0);
    EXPECT_EQ(root, color + 9);
  });
}

TEST(CommSplit, SiblingBlocksComeFromTheMaximumColor) {
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    // Colors 0 and 2 (1 unused): the split reserves three context blocks on
    // every rank, whatever its own color.
    const int color = world.rank() % 2 == 0 ? 0 : 2;
    mpi::Comm odd = world.split(color, world.rank());
    mpi::Comm a = world.split(0, world.rank());
    mpi::Comm b = world.split(0, world.rank());
    // Every rank placed `a` and `b` at the same blocks: collectives spanning
    // both colors complete.
    EXPECT_DOUBLE_EQ(a.allreduce_one(1.0, mpi::ReduceOp::Sum), 6.0);
    EXPECT_DOUBLE_EQ(b.allreduce_one(1.0, mpi::ReduceOp::Sum), 6.0);
    // Neither reuses color 2's block: world rank 1 sends to world rank 3 on
    // `odd`, then on `a` and `b`, same tag; a shared context would hand the
    // `odd` message to the first receive.
    if (world.rank() == 1) {
      odd.send_value(111, 1, 4);
      a.send_value(222, 3, 4);
      b.send_value(333, 3, 4);
    }
    if (world.rank() == 3) {
      EXPECT_EQ(b.recv_value<int>(1, 4), 333);
      EXPECT_EQ(a.recv_value<int>(1, 4), 222);
      EXPECT_EQ(odd.recv_value<int>(0, 4), 111);
    }
  });
}

TEST(Waitany, ReturnsTheFirstCompletion) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 3;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      std::vector<mpi::Request> reqs;
      reqs.push_back(c.irecv(&a, sizeof(a), 1, 1));
      reqs.push_back(c.irecv(&b, sizeof(b), 2, 2));
      mpi::Status st;
      const int first = c.waitany(reqs, &st);
      EXPECT_EQ(first, 1);  // rank 2 sends immediately; rank 1 delays
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(b, 22);
      EXPECT_FALSE(reqs[1].valid());
      const int second = c.waitany(reqs, &st);
      EXPECT_EQ(second, 0);
      EXPECT_EQ(a, 11);
    } else if (c.rank() == 1) {
      c.compute(50e-6);
      c.send_value(11, 0, 1);
    } else {
      c.send_value(22, 0, 2);
    }
  });
}

TEST(RankMapping, AnySourceAndWaitanyStatusesOnWorldAndReversedSplit) {
  // The world communicator maps ranks without a stored group; a split with
  // reversed keys maps local rank r to world rank size-1-r. ANY_SOURCE
  // receives and waitany must report the sender's rank in the communicator
  // the receive was posted on.
  mpi::Cluster cluster(cfg6());
  cluster.run([](mpi::Comm& world) {
    const int n = world.size();
    mpi::Comm rev = world.split(0, n - world.rank());
    ASSERT_EQ(rev.rank(), n - 1 - world.rank());
    for (mpi::Comm* c : {&world, &rev}) {
      if (c->rank() == 0) {
        // Every other rank sends its own rank; ANY_SOURCE must name it.
        for (int k = 1; k < n; ++k) {
          int v = -1;
          const mpi::Status st = c->recv(&v, sizeof(v), mpi::ANY_SOURCE, 3);
          EXPECT_EQ(st.source, v);
        }
        // waitany over named sources: the status names the same rank.
        std::vector<int> got(static_cast<std::size_t>(n), -1);
        std::vector<mpi::Request> reqs;
        for (int src = 1; src < n; ++src) {
          reqs.push_back(c->irecv(&got[static_cast<std::size_t>(src)], sizeof(int), src, 4));
        }
        for (int k = 1; k < n; ++k) {
          mpi::Status st;
          const int idx = c->waitany(reqs, &st);
          EXPECT_EQ(st.source, idx + 1);
          EXPECT_EQ(got[static_cast<std::size_t>(st.source)], st.source);
        }
      } else {
        const int me = c->rank();
        c->send_value(me, 0, 3);
        c->send_value(me, 0, 4);
      }
    }
  });
}

TEST(Waitany, CompletedRequestReturnsWithoutBlocking) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& c) {
    if (c.rank() == 0) {
      int v = -1;
      std::vector<mpi::Request> reqs;
      reqs.push_back(c.irecv(&v, sizeof(v), 1, 1));
      c.compute(50e-6);  // completion already happened
      EXPECT_EQ(c.waitany(reqs, nullptr), 0);
      EXPECT_EQ(v, 5);
    } else {
      c.send_value(5, 0, 1);
    }
  });
}

}  // namespace
}  // namespace nmx
