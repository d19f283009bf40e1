// NewMadeleine core tests: sampling/splitting, strategies (aggregation,
// rail selection), eager/rendezvous protocols, tag matching order, probes,
// gated progress and the multirail data path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "nmad/core.hpp"
#include "sim/fault.hpp"

namespace nmx::nmad {
namespace {

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(Sampling, FitRecoversLinkParameters) {
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric(eng, topo);
  Sampling s(fabric, {0, 1});
  ASSERT_EQ(s.num_rails(), 2u);
  // alpha ~ wire latency + per-message; beta ~ NIC bandwidth.
  EXPECT_NEAR(s.rails()[0].alpha, calib::kIbWireLatency + calib::kIbPerMessage, 0.1e-6);
  EXPECT_NEAR(s.rails()[0].beta, calib::kIbBandwidth, 1e6);
  EXPECT_NEAR(s.rails()[1].beta, calib::kMxBandwidth, 1e6);
  EXPECT_EQ(s.fastest(), 0);  // IB has the lower latency
}

TEST(Sampling, SmallMessagesGoEntirelyToFastestRail) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto shares = s.split(4096, 16384);
  EXPECT_EQ(shares[0], 4096u);
  EXPECT_EQ(shares[1], 0u);
}

TEST(Sampling, EqualRailsSplitEvenly) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split(1 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{1} << 20);
  EXPECT_NEAR(static_cast<double>(shares[0]), static_cast<double>(shares[1]), 2.0);
}

TEST(Sampling, AsymmetricRailsSplitProportionallyToBandwidth) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split(3 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{3} << 20);
  // Equal finish time => shares proportional to beta (alphas equal).
  EXPECT_NEAR(static_cast<double>(shares[0]) / static_cast<double>(shares[1]), 2.0, 0.01);
}

TEST(Sampling, SlowRailDroppedWhenShareBelowMinChunk) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 10e6}});  // 200x slower
  auto shares = s.split(100000, 16384);
  EXPECT_EQ(shares[1], 0u);  // its share would be ~500 bytes: dropped
  EXPECT_EQ(shares[0], 100000u);
}

TEST(Sampling, SplitAccountsForAlphaDifferences) {
  // Same bandwidth, one rail much higher latency: it gets a smaller share.
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 200e-6, 1e9}});
  auto shares = s.split(1 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{1} << 20);
  EXPECT_GT(shares[0], shares[1]);
}

TEST(Sampling, EvenSplitIsNaive) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split_even(1000);
  EXPECT_EQ(shares[0], 500u);
  EXPECT_EQ(shares[1], 500u);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

Entry eager_entry(int dst, Tag tag, std::uint32_t seq, std::size_t n) {
  Entry e;
  e.kind = Entry::Kind::Eager;
  e.dst_proc = dst;
  e.tag = tag;
  e.seq = seq;
  e.bytes.resize(n);
  return e;
}

TEST(Strategy, DefaultSendsOneEntryPerPacket) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Default, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  strat->enqueue(eager_entry(1, 7, 1, 100));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_EQ(wm2->entries.size(), 1u);
  EXPECT_FALSE(strat->next(0, 0).has_value());
  EXPECT_FALSE(strat->pending());
}

TEST(Strategy, AggregPacksSmallEntriesToSameDestination) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.max_aggregate = 4096;
  auto strat = make_strategy(StrategyKind::Aggreg, s, opts);
  for (std::uint32_t i = 0; i < 5; ++i) strat->enqueue(eager_entry(1, 7, i, 500));
  auto wm = strat->next(0, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries.size(), 5u);  // 2500 bytes <= 4096 cap
  // sequence order preserved inside the packet
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(wm->entries[i].seq, i);
}

TEST(Strategy, AggregRespectsByteCap) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.max_aggregate = 1000;
  auto strat = make_strategy(StrategyKind::Aggreg, s, opts);
  for (std::uint32_t i = 0; i < 4; ++i) strat->enqueue(eager_entry(1, 7, i, 400));
  auto wm = strat->next(0, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries.size(), 2u);  // 800 <= 1000 < 1200
}

TEST(Strategy, AggregDoesNotMixDestinations) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Aggreg, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  strat->enqueue(eager_entry(2, 7, 0, 100));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_NE(wm1->dst_proc, wm2->dst_proc);  // round-robin across destinations
}

TEST(Strategy, RdvChunksTravelAlone) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Aggreg, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  const std::vector<std::byte> payload(100000);
  Entry chunk;
  chunk.kind = Entry::Kind::RdvChunk;
  chunk.dst_proc = 1;
  chunk.rail = 0;
  chunk.chunk = payload;
  strat->enqueue(std::move(chunk));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  EXPECT_EQ(wm1->entries[0].kind, Entry::Kind::Eager);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_EQ(wm2->entries.size(), 1u);
  EXPECT_EQ(wm2->entries[0].kind, Entry::Kind::RdvChunk);
  EXPECT_EQ(wm2->entries[0].chunk.data(), payload.data());  // the view, not a copy
  EXPECT_EQ(wm2->entries[0].chunk.size(), payload.size());
}

TEST(Strategy, CostModelSteersSmallEntriesAwayFromBusyRail) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::CostModel, s, {});
  // Idle fabric: the cost model agrees with the fastest-rail rule.
  strat->enqueue(eager_entry(1, 7, 0, 100));
  EXPECT_TRUE(strat->next(0, 0).has_value());
  EXPECT_EQ(strat->steals(0), 0u);
  EXPECT_EQ(strat->steals(1), 0u);
  // Rail 0 booked for a millisecond: the entry's predicted completion is
  // earlier on rail 1, so it is stolen from the fastest rail.
  strat->set_load_probe([] {
    RailLoad l;
    l.now = 0;
    l.busy_until = {1e-3, 0.0};
    return l;
  });
  strat->enqueue(eager_entry(1, 7, 1, 100));
  EXPECT_FALSE(strat->next(0, 0).has_value());
  auto wm = strat->next(1, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries[0].seq, 1u);
  EXPECT_EQ(strat->steals(1), 1u);
}

TEST(Strategy, CostModelQueuedBacklogCountsAsLoad) {
  // No probe at all: the rail's own queued bytes must still steer traffic.
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::CostModel, s, {});
  // Fill rail 0 with ~1 ms of queued bytes without draining it.
  strat->enqueue(eager_entry(1, 7, 0, 1 << 20));
  EXPECT_GT(strat->backlog_bytes(0), std::size_t{1} << 20);
  strat->enqueue(eager_entry(1, 7, 1, 100));
  EXPECT_GT(strat->backlog_bytes(1), 0u);  // steered to the empty rail
  EXPECT_EQ(strat->steals(1), 1u);
}

TEST(Strategy, CostModelCarvesRendezvousIntoQuantumChunks) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.min_split_chunk = 4_KiB;
  opts.rdv_quantum = 64_KiB;
  auto strat = make_strategy(StrategyKind::CostModel, s, opts);
  ASSERT_TRUE(strat->plans_rdv_chunks());

  const std::size_t len = 300_KiB;
  const std::vector<std::byte> payload(len);
  Entry job;
  job.kind = Entry::Kind::RdvChunk;
  job.dst_proc = 1;
  job.rdv_id = 1;
  job.rail = -1;  // unplanned: the strategy carves it
  job.chunk = payload;
  strat->enqueue(std::move(job));
  EXPECT_EQ(strat->rdv_backlog_bytes(), len);

  std::vector<std::size_t> per_rail(2, 0);
  std::vector<std::pair<std::size_t, std::size_t>> cover;
  int rail = 0;
  while (strat->pending()) {
    auto wm = strat->next(rail, 0);
    rail = 1 - rail;  // alternate like two idle drivers would
    if (!wm) continue;
    ASSERT_EQ(wm->entries.size(), 1u);
    const Entry& e = wm->entries[0];
    ASSERT_EQ(e.kind, Entry::Kind::RdvChunk);
    EXPECT_LE(e.chunk.size(), opts.rdv_quantum);  // quantum respected
    EXPECT_GT(e.chunk.size(), 0u);
    EXPECT_EQ(e.chunk.data(), payload.data() + e.offset);  // carved as a subspan
    per_rail[static_cast<std::size_t>(e.rail)] += e.chunk.size();
    cover.emplace_back(e.offset, e.chunk.size());
  }
  EXPECT_EQ(strat->rdv_backlog_bytes(), 0u);
  EXPECT_GT(per_rail[0], 0u);  // equal rails: both carry data
  EXPECT_GT(per_rail[1], 0u);
  std::sort(cover.begin(), cover.end());
  std::size_t cursor = 0;
  for (const auto& [off, n] : cover) {
    EXPECT_EQ(off, cursor);  // contiguous, no gap, no overlap
    cursor = off + n;
  }
  EXPECT_EQ(cursor, len);
}

// ---------------------------------------------------------------------------
// Core: two processes on two nodes exchanging through the fabric.
// ---------------------------------------------------------------------------

struct CoreFixture : ::testing::Test {
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric{eng, topo};
  net::Endpoints<Core> peers{topo.num_procs()};
  Config cfg;

  std::unique_ptr<Core> a;  // proc 0
  std::unique_ptr<Core> b;  // proc 1

  void make_cores(StrategyKind strat = StrategyKind::Aggreg, std::vector<int> rails = {0}) {
    cfg.strategy = strat;
    cfg.rails = std::move(rails);
    a = std::make_unique<Core>(eng, fabric, peers, 0, cfg);
    b = std::make_unique<Core>(eng, fabric, peers, 1, cfg);
    // Always-in-progress processes (the MPI layer provides the bracketing).
    a->enter_progress();
    b->enter_progress();
  }

  std::vector<std::byte> pattern(std::size_t n, int seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(seed)) & 0xff);
    }
    return v;
  }
};

TEST_F(CoreFixture, EagerSendRecvCarriesBytes) {
  make_cores();
  auto msg = pattern(1024, 1);
  std::vector<std::byte> dst(1024);
  Request* sr = a->isend(1, 42, msg.data(), msg.size());
  Request* rr = b->irecv(0, 42, dst.data(), dst.size());
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(rr->received, msg.size());
  EXPECT_EQ(dst, msg);
  a->release(sr);
  b->release(rr);
  EXPECT_EQ(a->outstanding_requests(), 0u);
}

TEST_F(CoreFixture, UnexpectedEagerMatchesLaterIrecv) {
  make_cores();
  auto msg = pattern(100, 2);
  a->isend(1, 5, msg.data(), msg.size());
  eng.run();
  EXPECT_EQ(b->unexpected_count(), 1u);
  std::vector<std::byte> dst(100);
  Request* rr = b->irecv(0, 5, dst.data(), dst.size());
  EXPECT_TRUE(rr->completed);  // consumed synchronously from the buffers
  EXPECT_EQ(dst, msg);
  EXPECT_EQ(b->unexpected_count(), 0u);
}

// A rendezvous delivers the payload intact under each way of getting chunks
// onto the wire — one pre-planned chunk, a static multirail split, and
// cost-model carving. Every RdvChunk views the sender's buffer, so that
// buffer must outlive the last landing: the send may only complete after the
// receive has.
struct RdvOrderCase {
  StrategyKind strat;
  std::vector<int> rails;
  const char* name;
};
void PrintTo(const RdvOrderCase& c, std::ostream* os) { *os << c.name; }

struct RdvOrderFixture : CoreFixture, ::testing::WithParamInterface<RdvOrderCase> {};

TEST_P(RdvOrderFixture, RendezvousTransfersLargeMessage) {
  make_cores(GetParam().strat, GetParam().rails);
  std::string order;
  a->set_on_complete([&](Request&) { order += 's'; });
  b->set_on_complete([&](Request&) { order += 'r'; });
  const std::size_t big = 4_MiB;  // several chunks under every strategy
  auto msg = pattern(big, 3);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(a->rdv_started(), 1u);
  EXPECT_EQ(dst, msg);
  EXPECT_EQ(order, "rs") << "the send retired before the receiver landed every byte";
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RdvOrderFixture,
    ::testing::Values(RdvOrderCase{StrategyKind::Aggreg, {0}, "Aggreg1Rail"},
                      RdvOrderCase{StrategyKind::SplitBalance, {0, 1}, "SplitBalance2Rails"},
                      RdvOrderCase{StrategyKind::CostModel, {0, 1}, "CostModel2Rails"}),
    [](const ::testing::TestParamInfo<RdvOrderCase>& info) { return info.param.name; });

TEST_F(CoreFixture, MultirailSplitsRendezvousAcrossBothRails) {
  make_cores(StrategyKind::SplitBalance, {0, 1});
  const std::size_t big = 8 << 20;
  auto msg = pattern(big, 4);
  std::vector<std::byte> dst(big);
  b->irecv(0, 9, dst.data(), dst.size());
  a->isend(1, 9, msg.data(), msg.size());
  const std::size_t before = fabric.packets_sent();
  eng.run();
  EXPECT_EQ(dst, msg);
  // RTS + CTS + two data chunks (one per rail) + the receiver's RdvFin
  // completion ack = 5 packets.
  EXPECT_EQ(fabric.packets_sent() - before, 5u);
}

TEST_F(CoreFixture, CostModelRendezvousDeliversInQuantumChunks) {
  make_cores(StrategyKind::CostModel, {0, 1});
  const std::size_t big = 8_MiB;  // > 4 chunks at the default 2 MiB quantum
  auto msg = pattern(big, 13);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  const std::size_t before = fabric.packets_sent();
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(dst, msg);
  // RTS + CTS + at least ceil(8 MiB / 2 MiB) data chunks.
  EXPECT_GE(fabric.packets_sent() - before, 6u);
}

TEST(NmadEndpoints, EachProcessReceivesOnlyItsOwnPackets) {
  // Procs 2 and 3 share node 1's NIC: every packet proc 0 sends there must
  // land at the process it names, through the cluster's delivery table.
  sim::Engine eng;
  const net::Topology topo = net::Topology::blocked(2, 4, {net::ib_profile()});  // 0,1 | 2,3
  net::Fabric fabric(eng, topo);
  net::Endpoints<Core> peers(topo.num_procs());
  Config cfg;
  Core p0(eng, fabric, peers, 0, cfg);
  Core p2(eng, fabric, peers, 2, cfg);
  Core p3(eng, fabric, peers, 3, cfg);
  for (Core* c : {&p0, &p2, &p3}) c->enter_progress();
  EXPECT_THROW(std::make_unique<Core>(eng, fabric, peers, 2, cfg), AssertionError);

  const std::vector<std::byte> to2(48, std::byte{0x22});
  const std::vector<std::byte> to3a(64, std::byte{0x3a});
  const std::vector<std::byte> to3b(80, std::byte{0x3b});
  p0.isend(2, 7, to2.data(), to2.size());
  p0.isend(3, 7, to3a.data(), to3a.size());
  p0.isend(3, 7, to3b.data(), to3b.size());
  eng.run();
  EXPECT_EQ(p2.unexpected_count(), 1u);
  EXPECT_EQ(p3.unexpected_count(), 2u);
  std::vector<std::byte> got2(128), got3a(128), got3b(128);
  Request* r2 = p2.irecv(0, 7, got2.data(), got2.size());
  Request* r3a = p3.irecv(0, 7, got3a.data(), got3a.size());
  Request* r3b = p3.irecv(0, 7, got3b.data(), got3b.size());
  eng.run();
  ASSERT_TRUE(r2->completed && r3a->completed && r3b->completed);
  got2.resize(r2->received);
  got3a.resize(r3a->received);
  got3b.resize(r3b->received);
  EXPECT_EQ(got2, to2);
  EXPECT_EQ(got3a, to3a);
  EXPECT_EQ(got3b, to3b);

  // Proc 1 never registered an endpoint: a packet for it fails at arrival.
  p2.isend(1, 7, to2.data(), to2.size());
  try {
    eng.run();
    ADD_FAILURE() << "packet for proc 1 was delivered";
  } catch (const AssertionError& err) {
    EXPECT_NE(err.message.find("unregistered process"), std::string::npos) << err.message;
  }
}

TEST(CostModelCore, MatchesSplitBalanceOnIdleFabric) {
  // Same transfer, both strategies, each on a fresh fabric: on an idle
  // fabric the cost model's split degenerates to the sampled one, so
  // completion times must be close.
  auto timed = [](StrategyKind k) {
    sim::Engine eng;
    net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
    net::Fabric fabric(eng, topo);
    net::Endpoints<Core> peers(topo.num_procs());
    Config cfg;
    cfg.strategy = k;
    cfg.rails = {0, 1};
    Core a(eng, fabric, peers, 0, cfg);
    Core b(eng, fabric, peers, 1, cfg);
    a.enter_progress();
    b.enter_progress();
    const std::size_t big = 4_MiB;
    std::vector<std::byte> msg(big, std::byte{0x5a});
    std::vector<std::byte> dst(big);
    b.irecv(0, 9, dst.data(), dst.size());
    a.isend(1, 9, msg.data(), msg.size());
    eng.run();
    EXPECT_EQ(dst, msg);
    return eng.now();
  };
  const Time split = timed(StrategyKind::SplitBalance);
  const Time cost = timed(StrategyKind::CostModel);
  EXPECT_LT(cost, split * 1.05);  // no idle-fabric regression
}

TEST_F(CoreFixture, PerTagFifoMatchingOrder) {
  make_cores();
  auto m1 = pattern(64, 5);
  auto m2 = pattern(64, 6);
  std::vector<std::byte> d1(64), d2(64);
  Request* r1 = b->irecv(0, 3, d1.data(), 64);
  Request* r2 = b->irecv(0, 3, d2.data(), 64);
  a->isend(1, 3, m1.data(), 64);
  a->isend(1, 3, m2.data(), 64);
  eng.run();
  EXPECT_TRUE(r1->completed && r2->completed);
  EXPECT_EQ(d1, m1);  // first posted gets first sent
  EXPECT_EQ(d2, m2);
}

TEST_F(CoreFixture, DifferentTagsMatchIndependently) {
  make_cores();
  auto m1 = pattern(64, 7);
  auto m2 = pattern(64, 8);
  std::vector<std::byte> d1(64), d2(64);
  Request* r2 = b->irecv(0, 20, d2.data(), 64);
  Request* r1 = b->irecv(0, 10, d1.data(), 64);
  a->isend(1, 10, m1.data(), 64);
  a->isend(1, 20, m2.data(), 64);
  eng.run();
  EXPECT_TRUE(r1->completed && r2->completed);
  EXPECT_EQ(d1, m1);
  EXPECT_EQ(d2, m2);

  // Unexpected side: tags 10, 20, 10 queue in one gate before any receive;
  // the tag-10 receives take the first and third messages, in order.
  auto u1 = pattern(64, 21);
  auto u2 = pattern(64, 22);
  auto u3 = pattern(64, 23);
  a->isend(1, 10, u1.data(), 64);
  a->isend(1, 20, u2.data(), 64);
  a->isend(1, 10, u3.data(), 64);
  eng.run();
  EXPECT_EQ(b->unexpected_count(), 3u);
  std::vector<std::byte> e1(64), e3(64), e2(64);
  Request* q1 = b->irecv(0, 10, e1.data(), 64);
  Request* q3 = b->irecv(0, 10, e3.data(), 64);
  EXPECT_TRUE(q1->completed && q3->completed);
  EXPECT_EQ(e1, u1);
  EXPECT_EQ(e3, u3);
  Request* q2 = b->irecv(0, 20, e2.data(), 64);
  EXPECT_TRUE(q2->completed);
  EXPECT_EQ(e2, u2);
  EXPECT_EQ(b->unexpected_count(), 0u);

  // Posted side: receives on tags 20, 10, 20; a tag-20 send must skip the
  // tag-10 receive, and the second tag-20 send fills the third receive.
  auto p1 = pattern(64, 31);
  auto p2 = pattern(64, 32);
  auto p3 = pattern(64, 33);
  std::vector<std::byte> f1(64), f2(64), f3(64);
  Request* s1 = b->irecv(0, 20, f1.data(), 64);
  Request* s2 = b->irecv(0, 10, f2.data(), 64);
  Request* s3 = b->irecv(0, 20, f3.data(), 64);
  a->isend(1, 20, p1.data(), 64);
  a->isend(1, 20, p3.data(), 64);
  eng.run();
  EXPECT_TRUE(s1->completed && s3->completed);
  EXPECT_FALSE(s2->completed);
  EXPECT_EQ(f1, p1);
  EXPECT_EQ(f3, p3);
  a->isend(1, 10, p2.data(), 64);
  eng.run();
  EXPECT_TRUE(s2->completed);
  EXPECT_EQ(f2, p2);
}

// Two rails, one tag: a full-size eager message takes the fast rail and the
// cost model steers the small ones behind it to the idle second rail, so they
// land first and wait in the out-of-order stash until the big one drains
// them. Every receive completion posts a send back to the same peer on a
// fresh tag, which appends to the gate's per-tag sequence table while the
// drain is still walking it (a reference into the table held across that
// growth is a use-after-free under ASan).
TEST_F(CoreFixture, OutOfOrderDrainSurvivesSequenceTableGrowth) {
  make_cores(StrategyKind::CostModel, {0, 1});
  constexpr Tag kTag = 7;
  constexpr Tag kReplyTag = 100;
  const std::vector<std::size_t> sizes{calib::kNmadRdvThreshold, 64, 64};
  std::vector<std::vector<std::byte>> msgs, dsts, replies;
  std::vector<Request*> recvs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    msgs.push_back(pattern(sizes[i], 40 + static_cast<int>(i)));
    dsts.emplace_back(sizes[i]);
    replies.push_back(pattern(32, 60 + static_cast<int>(i)));
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    recvs.push_back(b->irecv(0, kTag, dsts[i].data(), dsts[i].size()));
  }
  std::vector<std::size_t> order;
  std::vector<Time> done_at;
  b->set_on_complete([&](Request& r) {
    if (r.kind != Request::Kind::Recv) return;
    const auto i = static_cast<std::size_t>(
        std::find(recvs.begin(), recvs.end(), &r) - recvs.begin());
    order.push_back(i);
    done_at.push_back(eng.now());
    b->isend(0, kReplyTag + i, replies[i].data(), replies[i].size());
  });
  // The small sends are posted once the big one occupies rail 0.
  a->isend(1, kTag, msgs[0].data(), msgs[0].size());
  eng.schedule(30e-6, [&] {
    for (std::size_t i = 1; i < sizes.size(); ++i) {
      a->isend(1, kTag, msgs[i].data(), msgs[i].size());
    }
  });
  eng.run();

  ASSERT_EQ(order, (std::vector<std::size_t>{0, 1, 2})) << "per-tag matching order broken";
  for (std::size_t i = 0; i < sizes.size(); ++i) EXPECT_EQ(dsts[i], msgs[i]) << "message " << i;
  // The stash was exercised: the small messages arrived first, so all three
  // matched in the one drain that the big message's arrival started.
  EXPECT_EQ(done_at.front(), done_at.back());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::byte> got(32);
    Request* rr = a->irecv(1, kReplyTag + i, got.data(), got.size());
    EXPECT_TRUE(rr->completed);
    EXPECT_EQ(got, replies[i]) << "reply " << i;
  }
  EXPECT_EQ(a->unexpected_count(), 0u);
  EXPECT_EQ(b->unexpected_count(), 0u);
}

TEST_F(CoreFixture, ProbeSeesOldestUnexpected) {
  make_cores();
  auto m = pattern(256, 9);
  a->isend(1, 77, m.data(), m.size());
  eng.run();
  auto p = b->probe(std::nullopt, TagSelector::any());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src, 0);
  EXPECT_EQ(p->tag, 77u);
  EXPECT_EQ(p->len, 256u);
  // Probe is non-destructive.
  EXPECT_TRUE(b->probe(std::nullopt, TagSelector::exact(77)).has_value());
  EXPECT_FALSE(b->probe(std::nullopt, TagSelector::exact(78)).has_value());
  EXPECT_FALSE(b->probe(5, TagSelector::any()).has_value());

  // A selector that skips the head of the gate's list: tag 77 is oldest,
  // exact(78) must still find the tag-78 message behind it.
  auto m78 = pattern(96, 19);
  a->isend(1, 78, m78.data(), m78.size());
  eng.run();
  auto p78 = b->probe(0, TagSelector::exact(78));
  ASSERT_TRUE(p78.has_value());
  EXPECT_EQ(p78->src, 0);
  EXPECT_EQ(p78->tag, 78u);
  EXPECT_EQ(p78->len, 96u);
  EXPECT_EQ(b->probe(std::nullopt, TagSelector::any())->tag, 77u);
}

TEST_F(CoreFixture, OnUnexpectedHookFires) {
  make_cores();
  int hooks = 0;
  ProbeInfo seen;
  b->set_on_unexpected([&](const ProbeInfo& info) {
    ++hooks;
    seen = info;
  });
  auto m = pattern(64, 10);
  a->isend(1, 55, m.data(), m.size());
  eng.run();
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(seen.src, 0);
  EXPECT_EQ(seen.tag, 55u);
}

TEST_F(CoreFixture, GatedInjectionWaitsForProgress) {
  make_cores();
  a->leave_progress();  // sender's application is "computing"
  auto m = pattern(64, 11);
  std::vector<std::byte> d(64);
  Request* rr = b->irecv(0, 1, d.data(), 64);
  Request* sr = a->isend(1, 1, m.data(), 64);
  eng.run();  // nothing can move: injection is gated
  EXPECT_FALSE(sr->completed);
  EXPECT_FALSE(rr->completed);
  EXPECT_TRUE(a->has_gated_work());
  a->enter_progress();  // "the application entered an MPI call"
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(d, m);
}

TEST_F(CoreFixture, AsyncNotifierFiresWhenGatedWorkAppears) {
  make_cores();
  a->leave_progress();
  int notified = 0;
  a->set_async_notifier([&] { ++notified; });
  auto m = pattern(64, 12);
  a->isend(1, 1, m.data(), 64);
  EXPECT_GT(notified, 0);
}

TEST_F(CoreFixture, AggregationReducesWirePackets) {
  make_cores(StrategyKind::Aggreg);
  // Queue several small sends while the sender is gated, then open the gate:
  // the strategy packs them into one wire packet.
  a->leave_progress();
  std::vector<std::vector<std::byte>> msgs;
  std::vector<std::vector<std::byte>> dsts;
  msgs.reserve(6);
  dsts.reserve(6);  // pointers handed to irecv must stay stable
  for (int i = 0; i < 6; ++i) {
    msgs.push_back(pattern(200, i));
    dsts.emplace_back(200);
    b->irecv(0, static_cast<Tag>(i), dsts.back().data(), 200);
  }
  for (int i = 0; i < 6; ++i) a->isend(1, static_cast<Tag>(i), msgs[static_cast<std::size_t>(i)].data(), 200);
  const std::size_t before = fabric.packets_sent();
  a->enter_progress();
  eng.run();
  EXPECT_EQ(fabric.packets_sent() - before, 1u);  // 6 sends, one packet
  for (int i = 0; i < 6; ++i) EXPECT_EQ(dsts[static_cast<std::size_t>(i)], msgs[static_cast<std::size_t>(i)]);
}

TEST_F(CoreFixture, ZeroByteMessageCompletes) {
  make_cores();
  Request* rr = b->irecv(0, 2, nullptr, 0);
  Request* sr = a->isend(1, 2, nullptr, 0);
  eng.run();
  EXPECT_TRUE(sr->completed && rr->completed);
  EXPECT_EQ(rr->received, 0u);
}

TEST_F(CoreFixture, LegacyCtsPathStillCompletesRendezvous) {
  // advertise_rdv_load=false: the grant is the historical 16-byte CTS and the
  // sender falls back to the one-ended split. Data must still flow.
  cfg.advertise_rdv_load = false;
  make_cores(StrategyKind::CostModel, {0, 1});
  const std::size_t big = 1_MiB;
  auto msg = pattern(big, 21);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  EXPECT_TRUE(sr->completed && rr->completed);
  EXPECT_EQ(dst, msg);
}

// ---------------------------------------------------------------------------
// Rendezvous hardening: the CTS grant must come from the RTS destination and
// must arrive at most once. Pre-fix, handle_cts matched on rdv_id alone, so a
// grant echoed by the wrong process (or replayed) started the payload toward
// whoever asked — data in the wrong buffer, double-queued chunks.
// ---------------------------------------------------------------------------

struct RdvHardeningFixture : ::testing::Test {
  sim::Engine eng;
  // Three procs on three nodes so a third party can forge grants.
  net::Topology topo = net::Topology::blocked(3, 3, {net::ib_profile()});
  net::Fabric fabric{eng, topo};
  net::Endpoints<Core> peers{topo.num_procs()};
  Config cfg;
  std::unique_ptr<Core> a;  // proc 0: rendezvous sender under attack
  std::unique_ptr<Core> b;  // proc 1: the legitimate destination
  std::unique_ptr<Core> c;  // proc 2: bystander

  void make_cores() {
    cfg.rails = {0};
    a = std::make_unique<Core>(eng, fabric, peers, 0, cfg);
    b = std::make_unique<Core>(eng, fabric, peers, 1, cfg);
    c = std::make_unique<Core>(eng, fabric, peers, 2, cfg);
    a->enter_progress();
    b->enter_progress();
    c->enter_progress();
  }

  /// Inject a forged CTS claiming to grant rendezvous `rdv_id`, sent by
  /// `src_proc` to proc 0 — bypassing any Core's send path so the wire
  /// contents are entirely under the test's control. It still crosses the
  /// fabric and lands through proc 0's arrival entry point.
  void forge_cts(int src_proc, std::uint64_t rdv_id) {
    WireMsg wm;
    wm.src_proc = src_proc;
    wm.dst_proc = 0;
    Entry cts;
    cts.kind = Entry::Kind::Cts;
    cts.dst_proc = 0;
    cts.rdv_id = rdv_id;
    wm.entries.push_back(std::move(cts));
    const net::WirePacket hdr{topo.node_of(src_proc), topo.node_of(0), 0, wm.wire_bytes()};
    fabric.transmit(hdr, [this, wm = std::move(wm)]() mutable { a->rx_wire(0, std::move(wm)); });
  }

  std::string run_expecting_assert() {
    try {
      eng.run();
    } catch (const AssertionError& err) {
      return err.message;
    }
    return {};
  }
};

TEST_F(RdvHardeningFixture, CrossWiredCtsFailsLoudly) {
  make_cores();
  // RTS toward proc 1; no recv is posted there, so no legitimate grant exists.
  std::vector<std::byte> msg(128_KiB);
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_FALSE(sr->completed);
  // Proc 2 echoes the (guessable, sender-scoped) rendezvous id.
  forge_cts(/*src_proc=*/2, sr->rdv_id);
  const std::string what = run_expecting_assert();
  EXPECT_NE(what.find("cross-wired"), std::string::npos) << what;
}

TEST_F(RdvHardeningFixture, LateDuplicateCtsIsIgnoredAfterCompletion) {
  // A grant that names a *retired* rendezvous — a wire duplicate or a
  // re-grant that crossed the final chunks — must be dropped, not asserted
  // on and not allowed to re-queue the payload. (A duplicate arriving while
  // the data phase runs is exercised end-to-end by the chaos tier.)
  make_cores();
  std::vector<std::byte> msg(128_KiB);
  std::vector<std::byte> dst(128_KiB);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_TRUE(sr->completed && rr->completed);
  const std::size_t sent_before = fabric.packets_sent();
  // Replay the grant twice; both are late duplicates of a known, retired id.
  forge_cts(/*src_proc=*/1, sr->rdv_id);
  forge_cts(/*src_proc=*/1, sr->rdv_id);
  eng.run();
  // No assert, and no payload was re-queued: only the two forged packets
  // themselves crossed the wire.
  EXPECT_EQ(fabric.packets_sent(), sent_before + 2);
  EXPECT_EQ(dst, msg);
}

TEST_F(RdvHardeningFixture, CtsForNeverIssuedRendezvousFailsLoudly) {
  // Late duplicates are tolerated, but an id above the allocation watermark
  // was never issued by this sender — that is a forged or corrupted grant
  // and stays a hard failure.
  make_cores();
  std::vector<std::byte> msg(128_KiB);
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_FALSE(sr->completed);
  forge_cts(/*src_proc=*/1, sr->rdv_id + 1000);
  const std::string what = run_expecting_assert();
  EXPECT_NE(what.find("unknown rendezvous"), std::string::npos) << what;
}


// ---------------------------------------------------------------------------
// Gates as connections: every Eager and Rts entry carries the receiver's gate
// toward its sender (the far end), so the arrival path looks no gate up. An
// entry without it (the sender could not resolve it, or a retransmitted RTS)
// is matched through a lookup by peer id, with the same result.
// ---------------------------------------------------------------------------

struct StashRun {
  std::vector<std::size_t> order;  ///< receive completion order
  std::vector<Time> done_at;
  bool payloads_intact = false;
  std::size_t lookups = 0;  ///< the receiver's arrival_lookups()
};

// OutOfOrderDrainSurvivesSequenceTableGrowth's scenario on two rails: the
// small messages overtake the full-size one on the idle rail and wait in the
// stash until its arrival drains them. With `late_receiver`, the receiver's
// core is built only after every send, so no entry can carry a far end.
StashRun run_two_rail_stash(bool late_receiver) {
  sim::Engine eng;
  const net::Topology topo =
      net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric(eng, topo);
  net::Endpoints<Core> peers(topo.num_procs());
  Config cfg;
  cfg.strategy = StrategyKind::CostModel;
  cfg.rails = {0, 1};
  Core a(eng, fabric, peers, 0, cfg);
  a.enter_progress();
  std::unique_ptr<Core> b;

  constexpr Tag kTag = 7;
  const std::vector<std::size_t> sizes{calib::kNmadRdvThreshold, 64, 64};
  std::vector<std::vector<std::byte>> msgs, dsts;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    msgs.emplace_back(sizes[i]);
    for (std::size_t k = 0; k < sizes[i]; ++k) msgs[i][k] = static_cast<std::byte>(k * 3 + i);
    dsts.emplace_back(sizes[i]);
  }
  StashRun out;
  std::vector<Request*> recvs;
  auto make_receiver = [&] {
    b = std::make_unique<Core>(eng, fabric, peers, 1, cfg);
    b->enter_progress();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      recvs.push_back(b->irecv(0, kTag, dsts[i].data(), dsts[i].size()));
    }
    b->set_on_complete([&](Request& r) {
      out.order.push_back(static_cast<std::size_t>(std::find(recvs.begin(), recvs.end(), &r) -
                                                   recvs.begin()));
      out.done_at.push_back(eng.now());
    });
  };
  if (!late_receiver) make_receiver();
  a.isend(1, kTag, msgs[0].data(), msgs[0].size());
  eng.schedule(30e-6, [&] {
    for (std::size_t i = 1; i < sizes.size(); ++i) a.isend(1, kTag, msgs[i].data(), msgs[i].size());
    if (late_receiver) make_receiver();
  });
  eng.run();
  out.payloads_intact = dsts == msgs;
  out.lookups = b->arrival_lookups();
  return out;
}

TEST(NmadGates, FarEndAndLookupDeliveryDrainTheStashAlike) {
  const StashRun far = run_two_rail_stash(/*late_receiver=*/false);
  const StashRun looked_up = run_two_rail_stash(/*late_receiver=*/true);
  EXPECT_EQ(far.lookups, 0u) << "an entry carrying its far end was looked up";
  EXPECT_EQ(looked_up.lookups, 3u);
  for (const StashRun* r : {&far, &looked_up}) {
    EXPECT_EQ(r->order, (std::vector<std::size_t>{0, 1, 2})) << "per-tag matching order broken";
    EXPECT_TRUE(r->payloads_intact);
    // The stash was exercised: all three matched in the one drain that the
    // full-size message's arrival started.
    ASSERT_EQ(r->done_at.size(), 3u);
    EXPECT_EQ(r->done_at.front(), r->done_at.back());
  }
  EXPECT_EQ(far.done_at, looked_up.done_at);
}

// A rendezvous whose first RTS or whose CTS is dropped on the wire: the
// sender's retry timer retransmits the RTS without a far end. It must slot
// into the matching stream (lost RTS) or be recognised as a duplicate (lost
// CTS), so the receive matches exactly once and the eager message queued
// behind it on the same tag still matches the second receive. The receiver's
// first gate leads to a third process, so the lookup must find the sender's
// gate by peer id, not take whichever gate exists.
struct LostControlFixture : ::testing::TestWithParam<Entry::Kind> {};

TEST_P(LostControlFixture, RetransmittedRtsWithoutFarEndMatchesOnce) {
  sim::Engine eng;
  const net::Topology topo = net::Topology::blocked(3, 3, {net::ib_profile()});
  net::Fabric fabric(eng, topo);
  net::Endpoints<Core> peers(topo.num_procs());
  sim::FaultSpec spec;
  sim::FaultSpec::EntryFault drop;
  drop.kind = static_cast<int>(GetParam());
  drop.until = 100e-6;  // the original only; the retransmission gets through
  drop.drop_p = 1.0;
  spec.entry_faults.push_back(drop);
  sim::FaultPlan plan(spec);
  Config cfg;
  cfg.fault_plan = &plan;
  cfg.rdv_retry_timeout = 200e-6;
  Core a(eng, fabric, peers, 0, cfg);
  Core b(eng, fabric, peers, 1, cfg);
  Core other(eng, fabric, peers, 2, cfg);
  plan.arm(eng);
  a.enter_progress();
  b.enter_progress();
  other.enter_progress();

  std::vector<std::byte> big(256_KiB), small(64), hello(64, std::byte{0x5a});
  for (std::size_t k = 0; k < big.size(); ++k) big[k] = static_cast<std::byte>(k * 5);
  for (std::size_t k = 0; k < small.size(); ++k) small[k] = static_cast<std::byte>(k + 1);
  std::vector<std::byte> got_big(big.size()), got_small(small.size()), spare(big.size());
  std::vector<std::byte> got_hello(big.size());
  int recv_completions = 0;
  b.set_on_complete([&](Request&) { ++recv_completions; });
  // The receiver's first connection leads to the third process, on the same
  // tag, with room for the rendezvous payload.
  Request* r0 = b.irecv(2, 9, got_hello.data(), got_hello.size());
  Request* r1 = b.irecv(0, 9, got_big.data(), got_big.size());
  Request* r2 = b.irecv(0, 9, got_small.data(), got_small.size());
  Request* r3 = b.irecv(0, 9, spare.data(), spare.size());  // nothing left to match
  Request* s1 = a.isend(1, 9, big.data(), big.size());
  Request* s2 = a.isend(1, 9, small.data(), small.size());
  other.isend(1, 9, hello.data(), hello.size());
  eng.run();

  EXPECT_TRUE(s1->completed && s2->completed);
  ASSERT_TRUE(r0->completed && r1->completed && r2->completed);
  EXPECT_FALSE(r3->completed) << "a retransmitted RTS matched a second receive";
  EXPECT_EQ(recv_completions, 3);
  EXPECT_EQ(got_big, big);
  EXPECT_EQ(got_small, small);
  EXPECT_EQ(r0->received, hello.size()) << "the third process's receive matched another message";
  EXPECT_TRUE(std::equal(hello.begin(), hello.end(), got_hello.begin()));
  EXPECT_EQ(a.rdv_started(), 1u);
  EXPECT_EQ(b.arrival_lookups(), 1u) << "only the retransmitted RTS lacks its far end";
  EXPECT_EQ(b.unexpected_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lost, LostControlFixture,
                         ::testing::Values(Entry::Kind::Rts, Entry::Kind::Cts),
                         [](const ::testing::TestParamInfo<Entry::Kind>& info) {
                           return std::string(Entry::kind_name(info.param));
                         });

// probe() takes the oldest unexpected message over all gates by arrival
// stamp, so the order in which the gates were created does not matter.
TEST(NmadGates, ProbeReturnsOldestUnexpectedWhateverTheGateOrder) {
  for (const int first_gate : {0, 1}) {
    sim::Engine eng;
    const net::Topology topo = net::Topology::blocked(3, 3, {net::ib_profile()});
    net::Fabric fabric(eng, topo);
    net::Endpoints<Core> peers(topo.num_procs());
    Config cfg;
    Core p0(eng, fabric, peers, 0, cfg);
    Core p1(eng, fabric, peers, 1, cfg);
    Core p2(eng, fabric, peers, 2, cfg);
    for (Core* c : {&p0, &p1, &p2}) c->enter_progress();
    // A receive creates the gate toward its source: fix p2's creation order
    // with receives on a tag nobody sends.
    std::vector<std::byte> sink(8);
    p2.irecv(first_gate, 999, sink.data(), sink.size());
    p2.irecv(1 - first_gate, 999, sink.data(), sink.size());

    const std::vector<std::byte> m1(40, std::byte{1}), m0(24, std::byte{2});
    p1.isend(2, 5, m1.data(), m1.size());  // lands first
    eng.schedule(50e-6, [&] { p0.isend(2, 6, m0.data(), m0.size()); });
    eng.run();
    ASSERT_EQ(p2.unexpected_count(), 2u);

    const auto oldest = p2.probe(std::nullopt, TagSelector::any());
    ASSERT_TRUE(oldest.has_value());
    EXPECT_EQ(oldest->src, 1) << "first gate " << first_gate;
    EXPECT_EQ(oldest->tag, 5u);
    EXPECT_EQ(oldest->len, 40u);
    const auto from0 = p2.probe(0, TagSelector::any());
    ASSERT_TRUE(from0.has_value());
    EXPECT_EQ(from0->tag, 6u);
    EXPECT_EQ(p2.probe(std::nullopt, TagSelector::exact(6))->src, 0);
    EXPECT_FALSE(p2.probe(1, TagSelector::exact(6)).has_value());
  }
}

// A restart loses the receive side's landing progress, and the per-peer
// landing mix is part of it: every gate's mix is cleared, not just one.
TEST(NmadGates, RestartClearsEveryGatesLandingMix) {
  sim::Engine eng;
  const net::Topology topo = net::Topology::blocked(3, 3, {net::ib_profile()});
  net::Fabric fabric(eng, topo);
  net::Endpoints<Core> peers(topo.num_procs());
  sim::FaultSpec spec;
  spec.restart.push_back({5e-3, /*proc=*/2});
  sim::FaultPlan plan(spec);
  Config cfg;
  cfg.fault_plan = &plan;
  Core p0(eng, fabric, peers, 0, cfg);
  Core p1(eng, fabric, peers, 1, cfg);
  Core p2(eng, fabric, peers, 2, cfg);
  plan.arm(eng);
  for (Core* c : {&p0, &p1, &p2}) c->enter_progress();

  const std::vector<std::byte> msg(256_KiB, std::byte{7});
  std::vector<std::byte> d0(msg.size()), d1(msg.size());
  Request* r0 = p2.irecv(0, 9, d0.data(), d0.size());
  Request* r1 = p2.irecv(1, 9, d1.data(), d1.size());
  p0.isend(2, 9, msg.data(), msg.size());
  p1.isend(2, 9, msg.data(), msg.size());
  bool mixed_before_restart = false;
  eng.schedule(4e-3, [&] {
    mixed_before_restart = !p2.landing_mix(0).empty() && !p2.landing_mix(1).empty();
  });
  eng.run();
  ASSERT_TRUE(r0->completed && r1->completed);
  EXPECT_EQ(d0, msg);
  EXPECT_EQ(d1, msg);
  EXPECT_TRUE(mixed_before_restart) << "both rendezvous should have fed a landing mix";
  EXPECT_TRUE(p2.landing_mix(0).empty());
  EXPECT_TRUE(p2.landing_mix(1).empty());
}

}  // namespace
}  // namespace nmx::nmad
