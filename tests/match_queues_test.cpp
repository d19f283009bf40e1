// mpi::MatchQueues on its own (FIFO matching on both sides, receive-side
// wildcards, non-consuming probe, idempotent unpost), and a cross-stack
// quiescence check over its two users: after a pt2pt program with self, shm
// and network traffic on both sides of every eager threshold, wildcard
// receives and late receives behind an iprobe loop, every transport must end
// with no live request and nothing left in its unexpected queue.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/base_transport.hpp"
#include "ch3/process.hpp"
#include "mpi/cluster.hpp"
#include "mpi/match_queues.hpp"

namespace nmx {
namespace {

using mpi::ANY_SOURCE;
using mpi::ANY_TAG;

struct Recv {
  int peer;
  int tag;
  int context;
};

struct Arrival {
  int src;
  int tag;
  int context;
  std::size_t len;
};

using Queues = mpi::MatchQueues<Recv, Arrival>;

TEST(MatchQueues, ArrivalTakesOldestPostedReceiveItSatisfies) {
  Queues q;
  Recv other{2, 5, 0}, exact{1, 5, 0}, any_src{ANY_SOURCE, 5, 0}, any_tag{1, ANY_TAG, 0};
  q.post(&other);
  q.post(&exact);
  q.post(&any_src);
  q.post(&any_tag);
  const Arrival a{1, 5, 0, 8};
  EXPECT_EQ(q.take_posted(a), &exact);
  EXPECT_EQ(q.take_posted(a), &any_src);
  EXPECT_EQ(q.take_posted(a), &any_tag);
  EXPECT_EQ(q.take_posted(a), nullptr);
  EXPECT_EQ(q.posted_count(), 1u);  // only `other` is left
  EXPECT_EQ(q.take_posted(Arrival{2, 5, 0, 8}), &other);
  EXPECT_EQ(q.posted_count(), 0u);
}

TEST(MatchQueues, ReceiveTakesOldestUnexpectedMessageItWants) {
  Queues q;
  q.park({2, 1, 0, 10});
  q.park({1, 1, 0, 20});
  q.park({1, 2, 0, 30});
  q.park({1, 1, 0, 40});
  EXPECT_EQ(q.unexpected_count(), 4u);
  const Recv r{1, 1, 0};
  std::optional<Arrival> m = q.take_unexpected(r);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->len, 20u);
  m = q.take_unexpected(r);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->len, 40u);
  EXPECT_FALSE(q.take_unexpected(r));
  m = q.take_unexpected(Recv{ANY_SOURCE, ANY_TAG, 0});
  ASSERT_TRUE(m);
  EXPECT_EQ(m->len, 10u);  // the oldest left, whatever its envelope
  EXPECT_EQ(q.unexpected_count(), 1u);
}

TEST(MatchQueues, WildcardsApplyOnlyOnTheReceiveSideAndContextsMatchExactly) {
  Queues q;
  Recv exact{1, 3, 0};
  q.post(&exact);
  // An arrival never carries a wildcard: -1 is just a source/tag no
  // receive named.
  EXPECT_EQ(q.take_posted(Arrival{ANY_SOURCE, 3, 0, 0}), nullptr);
  EXPECT_EQ(q.take_posted(Arrival{1, ANY_TAG, 0, 0}), nullptr);
  EXPECT_EQ(q.take_posted(Arrival{1, 3, 1, 0}), nullptr);  // other context
  EXPECT_EQ(q.take_posted(Arrival{1, 3, 0, 0}), &exact);

  Recv wild{ANY_SOURCE, ANY_TAG, 0};
  q.post(&wild);
  EXPECT_EQ(q.take_posted(Arrival{7, 9, 1, 0}), nullptr);  // wildcards never span contexts
  EXPECT_EQ(q.take_posted(Arrival{7, 9, 0, 0}), &wild);

  q.park({7, 9, 1, 0});
  EXPECT_FALSE(q.probe(ANY_SOURCE, ANY_TAG, 0));
  EXPECT_FALSE(q.take_unexpected(Recv{ANY_SOURCE, ANY_TAG, 0}));
  EXPECT_TRUE(q.probe(ANY_SOURCE, ANY_TAG, 1));
}

TEST(MatchQueues, ProbeDoesNotConsume) {
  Queues q;
  q.park({4, 6, 2, 123});
  for (int i = 0; i < 2; ++i) {
    std::optional<mpi::Status> st = q.probe(ANY_SOURCE, 6, 2);
    ASSERT_TRUE(st);
    EXPECT_EQ(st->source, 4);
    EXPECT_EQ(st->tag, 6);
    EXPECT_EQ(st->count, 123u);
    EXPECT_EQ(q.unexpected_count(), 1u);
  }
  EXPECT_FALSE(q.probe(5, 6, 2));
  EXPECT_TRUE(q.take_unexpected(Recv{4, ANY_TAG, 2}));
  EXPECT_FALSE(q.probe(ANY_SOURCE, ANY_TAG, 2));
}

TEST(MatchQueues, UnpostOfARequestNotQueuedIsANoOp) {
  Queues q;
  Recv a{1, 1, 0}, b{1, 1, 0}, never{1, 1, 0};
  q.post(&a);
  q.post(&b);
  q.unpost(&never);
  EXPECT_EQ(q.posted_count(), 2u);
  q.unpost(&a);
  EXPECT_EQ(q.posted_count(), 1u);
  q.unpost(&a);  // already withdrawn
  EXPECT_EQ(q.posted_count(), 1u);
  EXPECT_EQ(q.take_posted(Arrival{1, 1, 0, 0}), &b);
  q.unpost(&b);  // already matched
  EXPECT_EQ(q.posted_count(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-stack quiescence
// ---------------------------------------------------------------------------

struct StackCase {
  mpi::StackKind stack;
  bool bypass;  ///< MPICH2-NMad only
  const char* name;
};

void PrintTo(const StackCase& c, std::ostream* os) { *os << c.name; }

class Quiescence : public ::testing::TestWithParam<StackCase> {};

std::byte byte_of(int src, int dst, std::size_t i) {
  return static_cast<std::byte>((src * 31 + dst * 7 + static_cast<int>(i)) & 0xff);
}

// Two nodes x two procs: rank r's peers are itself, its node mate and the
// two remote ranks. Per size, every rank sends one message to every rank
// with tag base + src, and receives its four messages as: self with
// ANY_TAG, r+1 with ANY_SOURCE, r+2 with ANY_TAG, r+3 with ANY_SOURCE
// posted only after an iprobe loop has seen it arrive.
void exchange(mpi::Comm& c) {
  const int r = c.rank();
  const int P = c.size();
  int base = 100;
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{256} << 10}) {
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(P));
    std::vector<mpi::Request> sends;
    for (int d = 0; d < P; ++d) {
      auto& buf = out[static_cast<std::size_t>(d)];
      buf.resize(n);
      for (std::size_t i = 0; i < n; ++i) buf[i] = byte_of(r, d, i);
      sends.push_back(c.isend(buf.data(), n, d, base + r));
    }
    std::vector<std::vector<std::byte>> in(4, std::vector<std::byte>(n));
    const int s1 = (r + 1) % P, s2 = (r + 2) % P, s3 = (r + 3) % P;
    mpi::Request self = c.irecv(in[0].data(), n, r, ANY_TAG);
    mpi::Request any_src = c.irecv(in[1].data(), n, ANY_SOURCE, base + s1);
    mpi::Request any_tag = c.irecv(in[2].data(), n, s2, ANY_TAG);
    std::optional<mpi::Status> seen;
    while (!(seen = c.iprobe(s3, ANY_TAG))) {
    }
    EXPECT_EQ(seen->source, s3);
    EXPECT_EQ(seen->tag, base + s3);
    EXPECT_EQ(seen->count, n);
    mpi::Request late = c.irecv(in[3].data(), n, ANY_SOURCE, base + s3);

    const int srcs[4] = {r, s1, s2, s3};
    mpi::Request* recvs[4] = {&self, &any_src, &any_tag, &late};
    for (int k = 0; k < 4; ++k) {
      const mpi::Status st = c.wait(*recvs[k]);
      EXPECT_EQ(st.source, srcs[k]) << "size " << n << ", receive " << k;
      EXPECT_EQ(st.tag, base + srcs[k]);
      EXPECT_EQ(st.count, n);
      const auto& buf = in[static_cast<std::size_t>(k)];
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], byte_of(srcs[k], r, i)) << "size " << n << " from " << srcs[k];
      }
    }
    c.waitall(sends);
    base += 100;
  }
}

TEST_P(Quiescence, NothingLiveOrUnexpectedAfterThePt2PtProgram) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.stack = GetParam().stack;
  cfg.bypass = GetParam().bypass;
  mpi::Cluster cluster(cfg);
  cluster.run(exchange);
  for (int p = 0; p < cfg.procs; ++p) {
    SCOPED_TRACE("rank " + std::to_string(p));
    mpi::Transport& tx = cluster.transport(p);
    if (auto* ch3 = dynamic_cast<ch3::Ch3Process*>(&tx)) {
      EXPECT_EQ(ch3->outstanding_requests(), 0u);
      EXPECT_EQ(ch3->unexpected_count(), 0u);
      EXPECT_EQ(ch3->posted_count(), 0u);
      EXPECT_EQ(ch3->core().outstanding_requests(), 0u);
      EXPECT_EQ(ch3->any_source_lists().sublist_count(), 0u);
    } else {
      auto& base = dynamic_cast<baseline::BaseTransport&>(tx);
      EXPECT_EQ(base.outstanding_requests(), 0u);
      EXPECT_EQ(base.unexpected_count(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, Quiescence,
    ::testing::Values(StackCase{mpi::StackKind::Mpich2Nmad, true, "Mpich2Nmad"},
                      StackCase{mpi::StackKind::Mpich2Nmad, false, "Mpich2NmadLegacy"},
                      StackCase{mpi::StackKind::Mvapich2, true, "Mvapich2"},
                      StackCase{mpi::StackKind::OpenMpiBtlIb, true, "OpenMpiBtlIb"},
                      StackCase{mpi::StackKind::OpenMpiBtlMx, true, "OpenMpiBtlMx"},
                      StackCase{mpi::StackKind::OpenMpiCmMx, true, "OpenMpiCmMx"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace nmx
