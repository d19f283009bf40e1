// Network substrate tests: channel reservation, uncontended transfer math,
// NIC contention (egress and ingress serialization) and topology mappings.
#include <gtest/gtest.h>

#include <vector>

#include "net/calibration.hpp"
#include "net/fabric.hpp"

namespace nmx::net {
namespace {

TEST(Channel, ReservationsSerialize) {
  Channel ch;
  auto a = ch.reserve(0.0, 2.0);
  EXPECT_DOUBLE_EQ(a.begin, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  auto b = ch.reserve(1.0, 3.0);  // wants to start while busy
  EXPECT_DOUBLE_EQ(b.begin, 2.0);
  EXPECT_DOUBLE_EQ(b.end, 5.0);
  auto c = ch.reserve(10.0, 1.0);  // idle gap
  EXPECT_DOUBLE_EQ(c.begin, 10.0);
}

TEST(Topology, BlockedMappingFillsNodesInOrder) {
  Topology t = Topology::blocked(3, 7, {ib_profile()});
  // ceil(7/3) = 3 per node: 0,1,2 | 3,4,5 | 6
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(2), 0);
  EXPECT_EQ(t.node_of(3), 1);
  EXPECT_EQ(t.node_of(6), 2);
  EXPECT_TRUE(t.same_node(0, 2));
  EXPECT_FALSE(t.same_node(2, 3));
}

TEST(Topology, CyclicMappingScatters) {
  Topology t = Topology::cyclic(10, 16, {ib_profile()});
  for (int p = 0; p < 16; ++p) EXPECT_EQ(t.node_of(p), p % 10);
  // "in the 8 processes case, only one process runs on a node"
  Topology t8 = Topology::cyclic(10, 8, {ib_profile()});
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) EXPECT_FALSE(t8.same_node(a, b));
  }
}

TEST(Topology, LocalIndexMatchesRankOrderOnNode) {
  // The node-local index is the count of lower ranks on the same node (the
  // per-send loop it replaced); procs_on is the node's population.
  for (const Topology& t : {Topology::blocked(3, 7, {ib_profile()}),
                            Topology::blocked(4, 16, {ib_profile()}),
                            Topology::cyclic(3, 8, {ib_profile()}),
                            Topology::cyclic(10, 8, {ib_profile()})}) {
    std::vector<int> population(static_cast<std::size_t>(t.num_nodes), 0);
    for (int p = 0; p < t.num_procs(); ++p) {
      int lower = 0;
      for (int q = 0; q < p; ++q) {
        if (t.node_of(q) == t.node_of(p)) ++lower;
      }
      EXPECT_EQ(t.local_index(p), lower) << "proc " << p;
      ++population[static_cast<std::size_t>(t.node_of(p))];
    }
    for (int n = 0; n < t.num_nodes; ++n) {
      EXPECT_EQ(t.procs_on(n), population[static_cast<std::size_t>(n)]) << "node " << n;
    }
  }
  // Spot values: blocked 0,1,2 | 3,4,5 | 6 and cyclic over 3 nodes.
  const Topology b = Topology::blocked(3, 7, {ib_profile()});
  EXPECT_EQ(b.local_index(4), 1);
  EXPECT_EQ(b.local_index(6), 0);
  const Topology c = Topology::cyclic(3, 8, {ib_profile()});
  EXPECT_EQ(c.local_index(7), 2);  // node 1 holds 1, 4, 7
  EXPECT_EQ(c.procs_on(2), 2);     // node 2 holds 2, 5
}

struct FabricFixture : ::testing::Test {
  sim::Engine eng;
  Topology topo = Topology::blocked(3, 3, {ib_profile()});
  Fabric fabric{eng, topo};
  std::vector<std::pair<Time, int>> arrivals;  // (time, src_node)

  void send(int src, int dst, std::size_t bytes) {
    fabric.transmit(WirePacket{src, dst, 0, bytes},
                    [this, src] { arrivals.emplace_back(eng.now(), src); });
  }
};

TEST_F(FabricFixture, UncontendedTransferMatchesModel) {
  send(0, 1, 4096);
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  const NicProfile& prof = fabric.profile(0);
  EXPECT_NEAR(arrivals[0].first, prof.wire_latency + prof.occupancy(4096), 1e-12);
  EXPECT_NEAR(fabric.uncontended_time(0, 4096), arrivals[0].first, 1e-12);
}

TEST_F(FabricFixture, EgressSerializesSameSender) {
  send(0, 1, 1 << 20);
  send(0, 1, 1 << 20);
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Time occupancy = fabric.profile(0).occupancy(1 << 20);
  EXPECT_NEAR(arrivals[1].first - arrivals[0].first, occupancy, 1e-9);
}

TEST_F(FabricFixture, IngressSerializesDifferentSenders) {
  // Two senders to one node: the receiving NIC is the bottleneck — this is
  // the many-processes-per-node contention of the NAS testbed.
  send(0, 2, 1 << 20);
  send(1, 2, 1 << 20);
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Time occupancy = fabric.profile(0).occupancy(1 << 20);
  EXPECT_NEAR(arrivals[1].first - arrivals[0].first, occupancy, occupancy * 0.05);
}

TEST_F(FabricFixture, DistinctPairsDoNotContend) {
  send(0, 1, 1 << 20);
  send(2, 1, 64);  // tiny message into the same ingress: queues
  eng.run();
  // Both arrive; order by completion time.
  ASSERT_EQ(arrivals.size(), 2u);
}

TEST_F(FabricFixture, LoopbackIsRejected) {
  EXPECT_THROW(send(1, 1, 64), AssertionError);
  EXPECT_EQ(fabric.packets_sent(), 0u);
}

TEST(Profiles, PaperCalibration) {
  const NicProfile ib = ib_profile();
  const NicProfile mx = mx_profile();
  EXPECT_TRUE(ib.needs_registration);
  EXPECT_FALSE(mx.needs_registration);
  EXPECT_LT(ib.wire_latency, mx.wire_latency);  // IB is the low-latency rail
  EXPECT_GT(ib.bandwidth, mx.bandwidth);
  // Raw one-way small-message time ~ 1.2 us (§4.1.1).
  EXPECT_NEAR(ib.wire_latency + ib.occupancy(1), 1.2e-6, 0.05e-6);
}

}  // namespace
}  // namespace nmx::net
