// Nemesis channel tests: the lock-free MPSC queue (including a real
// multi-threaded stress run — the queue is genuine concurrent code), cell
// fragmentation, ordering, flow control and the PIOMan mailbox counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "nemesis/lfqueue.hpp"
#include "nemesis/shm.hpp"

namespace nmx::nemesis {
namespace {

TEST(LockFreeQueue, FifoSingleThread) {
  CellPool pool(8);
  LockFreeQueue q;
  EXPECT_TRUE(q.empty());
  q.enqueue(pool, 3);
  q.enqueue(pool, 1);
  q.enqueue(pool, 5);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.dequeue(pool), 3);
  EXPECT_EQ(q.dequeue(pool), 1);
  EXPECT_EQ(q.dequeue(pool), 5);
  EXPECT_EQ(q.dequeue(pool), kNilCell);
  EXPECT_TRUE(q.empty());
}

TEST(LockFreeQueue, DrainAndRefill) {
  CellPool pool(4);
  LockFreeQueue q;
  for (int round = 0; round < 100; ++round) {
    q.enqueue(pool, round % 4);
    EXPECT_EQ(q.dequeue(pool), round % 4);
    EXPECT_EQ(q.dequeue(pool), kNilCell);
  }
}

TEST(LockFreeQueue, MultiProducerStress) {
  // 4 real producer threads, one consumer: every cell index must come out
  // exactly as many times as it went in, with per-producer FIFO order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  CellPool pool(kProducers * kPerProducer);
  LockFreeQueue q;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.enqueue(pool, p * kPerProducer + i);
      }
    });
  }

  std::vector<int> next_expected(kProducers, 0);
  int got = 0;
  while (got < kProducers * kPerProducer) {
    const CellIndex c = q.dequeue(pool);
    if (c == kNilCell) continue;
    const int p = c / kPerProducer;
    const int i = c % kPerProducer;
    ASSERT_EQ(i, next_expected[static_cast<std::size_t>(p)]) << "per-producer FIFO violated";
    ++next_expected[static_cast<std::size_t>(p)];
    ++got;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.dequeue(pool), kNilCell);
}

std::vector<std::byte> payload_of(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i + static_cast<std::size_t>(seed)) & 0xff);
  return v;
}

struct ShmFixture : ::testing::Test {
  sim::Engine eng;
  ShmNode node{eng, 2};
  std::vector<Message> delivered;

  void SetUp() override {
    node.set_deliver(1, [this](Message&& m) { delivered.push_back(std::move(m)); });
    node.set_deliver(0, [](Message&&) {});
    // Receiver polls whenever cells land (an always-progressing receiver).
    node.set_activity_hook(1, [this] { node.poll(1); });
  }

  /// Returns the sent payload's buffer, to check that delivery hands over
  /// the same vector instead of a copy.
  const std::byte* send(std::size_t n, int tag_seed) {
    Message m;
    m.src_local = 0;
    m.header.kind = ShmHdr::Kind::Rts;
    m.header.tag = tag_seed;
    m.header.rdv_id = 1000 + static_cast<std::uint64_t>(tag_seed);
    m.header.len = n;
    m.payload = payload_of(n, tag_seed);
    const std::byte* buf = m.payload.data();
    node.send(1, std::move(m));
    return buf;
  }
};

TEST_F(ShmFixture, SmallMessageArrivesIntact) {
  send(100, 1);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, payload_of(100, 1));
  // The whole typed header rides the first cell.
  EXPECT_EQ(delivered[0].header.kind, ShmHdr::Kind::Rts);
  EXPECT_EQ(delivered[0].header.tag, 1);
  EXPECT_EQ(delivered[0].header.rdv_id, 1001u);
  EXPECT_EQ(delivered[0].header.len, 100u);
  EXPECT_EQ(delivered[0].src_local, 0);
}

TEST_F(ShmFixture, ZeroByteMessageStillDelivers) {
  send(0, 9);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].payload.empty());
}

TEST_F(ShmFixture, LargeMessageFragmentsAcrossCells) {
  const std::size_t big = 200 * 1024;  // 25 cells at the 8 KiB default
  const std::byte* sent = send(big, 2);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload.size(), big);
  EXPECT_EQ(delivered[0].payload, payload_of(big, 2));
  EXPECT_EQ(delivered[0].payload.data(), sent);  // moved through, not copied
  EXPECT_EQ(node.mailbox(1), 25u);              // still one cell per fragment
}

TEST_F(ShmFixture, MessagesKeepSendOrder) {
  for (int i = 0; i < 10; ++i) send(1000 + static_cast<std::size_t>(i), i);
  eng.run();
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].header.tag, i);
  }
}

TEST_F(ShmFixture, FlowControlSurvivesMessageLargerThanAllCells) {
  // 64 cells x 8 KiB = 512 KiB of cells; send 2 MiB. Progress requires the
  // receiver to return cells — the activity hook polls, so it must drain.
  const std::size_t huge = 2 * 1024 * 1024;
  const std::byte* sent = send(huge, 3);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload.size(), huge);
  EXPECT_EQ(delivered[0].payload, payload_of(huge, 3));
  EXPECT_EQ(delivered[0].payload.data(), sent);
  EXPECT_EQ(node.cells_in_flight(), 0u);
}

TEST(ShmInterleave, TwoSendersMultiCellMessagesIntoOneReceiver) {
  // Two local senders stream multi-cell messages into one receiver through
  // a small cell pool, so their cells interleave in the receive queue and
  // both stall on flow control. Each sender's partial message must be
  // reassembled on its own, in its own send order.
  sim::Engine eng;
  ShmConfig cfg;
  cfg.cells_per_proc = 3;
  cfg.cell_payload = 1000;
  ShmNode node(eng, 3, cfg);
  std::vector<Message> delivered;
  node.set_deliver(2, [&](Message&& m) { delivered.push_back(std::move(m)); });
  node.set_activity_hook(2, [&] { node.poll(2); });

  constexpr int kPerSender = 6;
  auto size_of = [](int src, int i) {
    return static_cast<std::size_t>(2500 + 1700 * i + 333 * src);  // 3..13 cells
  };
  for (int i = 0; i < kPerSender; ++i) {
    for (int src = 0; src < 2; ++src) {
      Message m;
      m.src_local = src;
      m.header.tag = i;
      m.payload = payload_of(size_of(src, i), 16 * src + i);
      node.send(2, std::move(m));
    }
  }
  eng.run();

  ASSERT_EQ(delivered.size(), 2u * kPerSender);
  std::vector<int> next(2, 0);
  bool interleaved = false;
  for (std::size_t k = 0; k < delivered.size(); ++k) {
    const Message& m = delivered[k];
    const int i = m.header.tag;
    EXPECT_EQ(i, next[static_cast<std::size_t>(m.src_local)]++) << "per-sender order";
    EXPECT_EQ(m.payload, payload_of(size_of(m.src_local, i), 16 * m.src_local + i));
    if (k > 0 && delivered[k - 1].src_local != m.src_local) interleaved = true;
  }
  EXPECT_EQ(next, (std::vector<int>{kPerSender, kPerSender}));
  EXPECT_TRUE(interleaved);
  EXPECT_EQ(node.cells_in_flight(), 0u);
}

TEST_F(ShmFixture, MailboxCountsArrivedCells) {
  EXPECT_EQ(node.mailbox(1), 0u);
  send(100, 1);
  eng.run();
  EXPECT_EQ(node.mailbox(1), 1u);
  send(20000, 2);  // 3 cells
  eng.run();
  EXPECT_EQ(node.mailbox(1), 4u);
}

TEST(ShmTiming, LatencyMatchesCalibration) {
  // One small message: copy-in + latency + copy-out.
  sim::Engine eng;
  ShmNode node(eng, 2);
  Time arrival = -1;
  node.set_deliver(1, [&](Message&&) { arrival = eng.now(); });
  node.set_activity_hook(1, [&] { node.poll(1); });
  Message m;
  m.src_local = 0;
  m.payload = payload_of(64, 0);
  node.send(1, std::move(m));
  eng.run();
  const Time copies = 2.0 * (64.0 + 64.0) / calib::kShmCopyBandwidth;  // hdr+payload, both sides
  EXPECT_NEAR(arrival, calib::kShmLatency + copies, 1e-9);
}

TEST(ShmTiming, NonPollingReceiverStallsDelivery) {
  sim::Engine eng;
  ShmNode node(eng, 2);
  std::vector<Message> delivered;
  node.set_deliver(1, [&](Message&& m) { delivered.push_back(std::move(m)); });
  // No activity hook: nobody polls.
  Message m;
  m.src_local = 0;
  m.payload = payload_of(100, 0);
  node.send(1, std::move(m));
  eng.run();
  EXPECT_TRUE(delivered.empty());  // cells sit in the receive queue
  EXPECT_TRUE(node.poll(1));
  EXPECT_EQ(delivered.size(), 1u);
}

}  // namespace
}  // namespace nmx::nemesis
