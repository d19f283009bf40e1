// MPI layer tests: point-to-point semantics (ordering, statuses, waitall,
// test), typed helpers, and property-style sweeps of every collective
// against a locally computed reference, across process counts and stacks.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"
#include "sim/rng.hpp"

namespace nmx {
namespace {

mpi::ClusterConfig cfg_nmad(int nodes, int procs) {
  mpi::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.procs = procs;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  return cfg;
}

TEST(Pt2Pt, StatusCarriesSourceTagCount) {
  mpi::Cluster cluster(cfg_nmad(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v(10, 3.5);
      c.send(v.data(), v.size() * sizeof(double), 1, 33);
    } else {
      std::vector<double> v(32);
      auto st = c.recv(v.data(), v.size() * sizeof(double), 0, 33);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 33);
      EXPECT_EQ(st.count, 10 * sizeof(double));
      EXPECT_DOUBLE_EQ(v[9], 3.5);
    }
  });
}

TEST(Pt2Pt, PerPairPerTagOrderIsFifo) {
  mpi::Cluster cluster(cfg_nmad(2, 2));
  cluster.run([&](mpi::Comm& c) {
    constexpr int kN = 50;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send_value(i, 1, 4);
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(c.recv_value<int>(0, 4), i);
    }
  });
}

TEST(Pt2Pt, WaitallCompletesMixedRequests) {
  mpi::Cluster cluster(cfg_nmad(2, 4));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> in(3, -1);
      std::vector<mpi::Request> reqs;
      for (int p = 1; p < 4; ++p) {
        reqs.push_back(c.irecv(&in[static_cast<std::size_t>(p - 1)], sizeof(int), p, 9));
      }
      c.waitall(reqs);
      for (int p = 1; p < 4; ++p) EXPECT_EQ(in[static_cast<std::size_t>(p - 1)], p * 7);
    } else {
      int v = c.rank() * 7;
      c.send(&v, sizeof(v), 0, 9);
    }
  });
}

TEST(Pt2Pt, TestPollsUntilComplete) {
  mpi::Cluster cluster(cfg_nmad(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.compute(5e-6);
      int v = 77;
      c.send(&v, sizeof(v), 1, 2);
    } else {
      int v = -1;
      mpi::Request r = c.irecv(&v, sizeof(v), 0, 2);
      mpi::Status st;
      int polls = 0;
      while (!c.test(r, &st)) {
        c.compute(1e-6);
        ++polls;
      }
      EXPECT_GT(polls, 0);
      EXPECT_EQ(v, 77);
      EXPECT_EQ(st.count, sizeof(int));
    }
  });
}

TEST(Pt2Pt, SelfSendMatchesOwnReceive) {
  mpi::Cluster cluster(cfg_nmad(1, 1));
  cluster.run([&](mpi::Comm& c) {
    int out = 41, in = -1;
    mpi::Request r = c.irecv(&in, sizeof(in), 0, 5);
    c.send(&out, sizeof(out), 0, 5);
    c.wait(r);
    EXPECT_EQ(in, 41);
  });
}

TEST(Pt2Pt, SendrecvExchangesWithoutDeadlockInRing) {
  mpi::Cluster cluster(cfg_nmad(3, 6));
  cluster.run([&](mpi::Comm& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() - 1 + c.size()) % c.size();
    int out = c.rank(), in = -1;
    auto st = c.sendrecv(&out, sizeof(out), right, 1, &in, sizeof(in), left, 1);
    EXPECT_EQ(in, left);
    EXPECT_EQ(st.source, left);
  });
}

// Intra-node wildcard receive on every stack's shared-memory path: the
// Status must name the message that matched.
class IntraNodeWildcard : public ::testing::TestWithParam<mpi::StackKind> {};

TEST_P(IntraNodeWildcard, StatusCarriesSourceTagCount) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.procs = 3;
  cfg.stack = GetParam();
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> seen(3, 0);
      for (int i = 0; i < 2; ++i) {
        std::vector<int> in(64, -1);
        auto st = c.recv(in.data(), in.size() * sizeof(int), mpi::ANY_SOURCE, mpi::ANY_TAG);
        ASSERT_TRUE(st.source == 1 || st.source == 2) << st.source;
        const auto n = static_cast<std::size_t>(8 * st.source);
        EXPECT_EQ(st.tag, 20 + st.source);
        EXPECT_EQ(st.count, n * sizeof(int));
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(in[k], st.source * 100 + static_cast<int>(k));
        }
        seen[static_cast<std::size_t>(st.source)]++;
      }
      EXPECT_EQ(seen, (std::vector<int>{0, 1, 1}));
    } else {
      std::vector<int> out(static_cast<std::size_t>(8 * c.rank()));
      std::iota(out.begin(), out.end(), c.rank() * 100);
      c.send(out.data(), out.size() * sizeof(int), 0, 20 + c.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Stacks, IntraNodeWildcard,
                         ::testing::Values(mpi::StackKind::Mpich2Nmad, mpi::StackKind::Mvapich2,
                                           mpi::StackKind::OpenMpiBtlIb),
                         [](const auto& info) {
                           std::string s = mpi::to_string(info.param);
                           std::erase(s, '-');
                           return s;
                         });

// ---------------------------------------------------------------------------
// Collectives: property sweeps over (procs, payload size) for every stack.
// ---------------------------------------------------------------------------

struct CollectiveCase {
  mpi::StackKind stack;
  int nodes;
  int procs;
  int count;  // doubles per rank
};

class Collectives : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(Collectives, MatchReference) {
  const auto param = GetParam();
  mpi::ClusterConfig cfg;
  cfg.nodes = param.nodes;
  cfg.procs = param.procs;
  cfg.stack = param.stack;
  mpi::Cluster cluster(cfg);

  const int P = param.procs;
  const std::size_t count = static_cast<std::size_t>(param.count);

  // Deterministic per-rank contributions.
  auto value = [](int rank, std::size_t i) {
    return static_cast<double>(rank + 1) * 0.5 + static_cast<double>(i);
  };

  cluster.run([&](mpi::Comm& c) {
    const int r = c.rank();
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = value(r, i);

    // allreduce(sum)
    std::vector<double> sum(count);
    c.allreduce(mine.data(), sum.data(), count, mpi::ReduceOp::Sum);
    for (std::size_t i = 0; i < count; ++i) {
      double expect = 0;
      for (int p = 0; p < P; ++p) expect += value(p, i);
      ASSERT_DOUBLE_EQ(sum[i], expect);
    }

    // reduce(max) to a non-zero root
    const int root = P - 1;
    std::vector<double> mx(count);
    c.reduce(mine.data(), mx.data(), count, mpi::ReduceOp::Max, root);
    if (r == root) {
      for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(mx[i], value(P - 1, i));
    }

    // bcast from the middle rank
    std::vector<double> bc(count);
    if (r == P / 2) bc = mine;
    c.bcast(bc.data(), count * sizeof(double), P / 2);
    for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(bc[i], value(P / 2, i));

    // allgather
    std::vector<double> all(count * static_cast<std::size_t>(P));
    c.allgather(mine.data(), count * sizeof(double), all.data());
    for (int p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(p) * count + i], value(p, i));
      }
    }

    // gather / scatter round trip through rank 0
    std::vector<double> gathered(count * static_cast<std::size_t>(P));
    c.gather(mine.data(), count * sizeof(double), gathered.data(), 0);
    std::vector<double> scattered(count);
    c.scatter(gathered.data(), count * sizeof(double), scattered.data(), 0);
    for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(scattered[i], mine[i]);

    // alltoall
    std::vector<double> to(static_cast<std::size_t>(P)), from(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) to[static_cast<std::size_t>(p)] = r * 1000.0 + p;
    c.alltoall(to.data(), sizeof(double), from.data());
    for (int p = 0; p < P; ++p) {
      ASSERT_DOUBLE_EQ(from[static_cast<std::size_t>(p)], p * 1000.0 + r);
    }

    c.barrier();
  });
}

std::vector<CollectiveCase> collective_cases() {
  std::vector<CollectiveCase> cases;
  for (auto stack : {mpi::StackKind::Mpich2Nmad, mpi::StackKind::Mvapich2,
                     mpi::StackKind::OpenMpiBtlIb}) {
    for (int procs : {2, 3, 4, 5, 7, 8, 12, 16}) {
      cases.push_back({stack, (procs + 1) / 2, procs, 17});
    }
  }
  // Larger payloads (crossing eager/rendezvous) on the paper's stack.
  for (int count : {1, 1024, 20000}) {
    cases.push_back({mpi::StackKind::Mpich2Nmad, 3, 6, count});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Collectives, ::testing::ValuesIn(collective_cases()),
                         [](const auto& info) {
                           std::string s = mpi::to_string(info.param.stack);
                           std::erase(s, '-');
                           return s + "_p" + std::to_string(info.param.procs) + "_n" +
                                  std::to_string(info.param.count);
                         });

// ---------------------------------------------------------------------------
// Randomized pt2pt traffic property: many messages with random sizes, tags
// and directions; everything must arrive intact and in per-(pair, tag) order.
// ---------------------------------------------------------------------------

class RandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTraffic, AllMessagesArriveInOrder) {
  mpi::Cluster cluster(cfg_nmad(2, 4));
  const std::uint64_t seed = GetParam();

  // Pre-generate a deterministic schedule every rank agrees on:
  // rounds of (src, dst, tag, len).
  struct Msg {
    int src, dst, tag;
    std::size_t len;
  };
  sim::Xoshiro256 rng(seed);
  std::vector<Msg> schedule;
  for (int i = 0; i < 60; ++i) {
    Msg m;
    m.src = static_cast<int>(rng.below(4));
    m.dst = static_cast<int>(rng.below(4));
    if (m.dst == m.src) m.dst = (m.dst + 1) % 4;
    m.tag = static_cast<int>(rng.below(3));
    m.len = 8 + rng.below(200000);  // crosses cells, eager and rendezvous
    schedule.push_back(m);
  }

  cluster.run([&](mpi::Comm& c) {
    // Post receives in schedule order (per pair+tag FIFO must hold), then
    // send in schedule order, then wait for everything.
    std::vector<std::vector<std::byte>> rbufs;
    std::vector<std::vector<std::byte>> sbufs;
    std::vector<mpi::Request> reqs;
    rbufs.reserve(schedule.size());
    sbufs.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Msg& m = schedule[i];
      if (m.dst == c.rank()) {
        rbufs.emplace_back(m.len);
        reqs.push_back(c.irecv(rbufs.back().data(), m.len, m.src, m.tag));
      }
    }
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Msg& m = schedule[i];
      if (m.src == c.rank()) {
        sbufs.emplace_back(m.len);
        auto& buf = sbufs.back();
        for (std::size_t k = 0; k < std::min<std::size_t>(m.len, 64); ++k) {
          buf[k] = static_cast<std::byte>((i * 13 + k) & 0xff);
        }
        reqs.push_back(c.isend(buf.data(), m.len, m.dst, m.tag));
      }
    }
    c.waitall(reqs);

    // Validate: replay the schedule and check the i-th matching message.
    std::size_t ri = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Msg& m = schedule[i];
      if (m.dst != c.rank()) continue;
      const auto& buf = rbufs[ri++];
      ASSERT_EQ(buf.size(), m.len);
      for (std::size_t k = 0; k < std::min<std::size_t>(m.len, 64); ++k) {
        ASSERT_EQ(buf[k], static_cast<std::byte>((i * 13 + k) & 0xff))
            << "message " << i << " byte " << k << " (seed " << seed << ")";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraffic, ::testing::Values(1, 2, 3, 42, 1234, 99999));

// ---------------------------------------------------------------------------
// Finalize: a rank whose body returns right after its last wait may still
// hold queued outgoing entries (a rendezvous completion ack that found every
// rail busy). Its peers' sends complete only when those entries leave, so
// the end of the body must drain them, as MPI_Finalize does.
// ---------------------------------------------------------------------------

// Each rank receives 128 KiB (a rendezvous on every stack) from each of
// r-1, r-2 and r-3, sends the same to r+1, r+2 and r+3, waits for all six in
// post order and returns.
void shift_exchange(mpi::Comm& c) {
  constexpr int kPeers = 3;
  constexpr std::size_t kLen = 128_KiB;
  auto byte_of = [](int src, int dst, std::size_t i) {
    return static_cast<std::byte>((src * 31 + dst * 7 + static_cast<int>(i % 251)) & 0xff);
  };
  const int P = c.size();
  const int r = c.rank();
  std::vector<std::vector<std::byte>> in(kPeers, std::vector<std::byte>(kLen));
  std::vector<std::vector<std::byte>> out(kPeers, std::vector<std::byte>(kLen));
  std::vector<mpi::Request> reqs;
  for (int k = 1; k <= kPeers; ++k) {
    reqs.push_back(c.irecv(in[static_cast<std::size_t>(k - 1)].data(), kLen, (r - k + P) % P, k));
  }
  for (int k = 1; k <= kPeers; ++k) {
    auto& buf = out[static_cast<std::size_t>(k - 1)];
    const int dst = (r + k) % P;
    for (std::size_t i = 0; i < kLen; ++i) buf[i] = byte_of(r, dst, i);
    reqs.push_back(c.isend(buf.data(), kLen, dst, k));
  }
  for (mpi::Request& q : reqs) c.wait(q);
  for (int k = 1; k <= kPeers; ++k) {
    const int src = (r - k + P) % P;
    const auto& buf = in[static_cast<std::size_t>(k - 1)];
    for (std::size_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(buf[i], byte_of(src, r, i)) << "rank " << r << ": byte " << i << " from " << src;
    }
  }
}

class Finalize : public ::testing::TestWithParam<mpi::StackKind> {
 protected:
  mpi::ClusterConfig config() const {
    mpi::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.procs = 16;
    cfg.cyclic_mapping = true;
    cfg.stack = GetParam();
    return cfg;
  }
};

TEST_P(Finalize, QueuedEntriesLeaveAfterTheBodyReturns) {
  mpi::Cluster cluster(config());
  cluster.run(shift_exchange);
}

// Under run_threads the rank finalizes when its last thread returns; here
// the second thread returns at once and the first runs the exchange.
TEST_P(Finalize, QueuedEntriesLeaveAfterTheLastThreadReturns) {
  mpi::Cluster cluster(config());
  cluster.run_threads(2, [](mpi::Comm& c, int thread) {
    if (thread == 0) shift_exchange(c);
  });
}

INSTANTIATE_TEST_SUITE_P(Stacks, Finalize,
                         ::testing::Values(mpi::StackKind::Mpich2Nmad, mpi::StackKind::Mvapich2,
                                           mpi::StackKind::OpenMpiBtlIb,
                                           mpi::StackKind::OpenMpiBtlMx,
                                           mpi::StackKind::OpenMpiCmMx),
                         [](const auto& info) {
                           std::string s = mpi::to_string(info.param);
                           std::erase(s, '-');
                           return s;
                         });

}  // namespace
}  // namespace nmx
