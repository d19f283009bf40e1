// Tests for the cluster's trace stream and the MPI_THREAD_MULTIPLE-style execution
// mode (run_threads) — the simulator-side analogues of the PM2 suite's FxT
// tracing and of §3.3.2's semaphore-based thread waiting.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "mpi/cluster.hpp"
#include "obs/recorder.hpp"

namespace nmx {
namespace {

TEST(Tracer, ClusterTraceCapturesAllLayers) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;  // shm + network traffic
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;
  cfg.trace = true;
  mpi::Cluster cluster(cfg);
  cluster.run([](mpi::Comm& c) {
    std::vector<std::byte> buf(256 * 1024);  // rendezvous-sized
    if (c.rank() == 0) {
      c.send(buf.data(), buf.size(), 3, 1);   // network
      c.send(buf.data(), 100, 1, 2);          // shared memory
      c.compute(5e-6);
    } else if (c.rank() == 3) {
      c.recv(buf.data(), buf.size(), 0, 1);
    } else if (c.rank() == 1) {
      c.recv(buf.data(), 100, 0, 2);
    }
    c.barrier();
  });
  ASSERT_NE(cluster.recorder(), nullptr);
  // Count instants and span Begins per category (a span counts once).
  const auto& recs = cluster.recorder()->records();
  std::map<obs::Cat, std::uint64_t> n;
  for (const obs::Record& r : recs) {
    if (r.ph != obs::Ph::End) ++n[r.cat];
  }
  EXPECT_GT(n[obs::Cat::MpiSend], 0u);
  EXPECT_GT(n[obs::Cat::MpiWait], 0u);
  EXPECT_GT(n[obs::Cat::MpiColl], 0u);
  EXPECT_GT(n[obs::Cat::NmadTx], 0u);
  EXPECT_GT(n[obs::Cat::NmadRx], 0u);
  EXPECT_EQ(n[obs::Cat::NmadRdv], 1u);  // exactly one big send
  EXPECT_GT(n[obs::Cat::ShmCell], 0u);
  EXPECT_GT(n[obs::Cat::PiomanPass], 0u);
  EXPECT_EQ(n[obs::Cat::Compute], 1u);
  // Records are time-ordered (each layer records at emission time).
  for (std::size_t i = 1; i < recs.size(); ++i) EXPECT_GE(recs[i].t, recs[i - 1].t);
}

TEST(Tracer, DisabledByDefaultCostsNothing) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  mpi::Cluster cluster(cfg);
  EXPECT_EQ(cluster.recorder(), nullptr);
  cluster.run([](mpi::Comm& c) {
    if (c.rank() == 0) c.send_value(1, 1, 0);
    if (c.rank() == 1) c.recv_value<int>(0, 0);
  });
}

// ---------------------------------------------------------------------------
// run_threads — MPI_THREAD_MULTIPLE-style execution
// ---------------------------------------------------------------------------

TEST(ThreadMultiple, TwoThreadsPerRankExchangeIndependently) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  // Thread 0 uses tag 100, thread 1 uses tag 200; both block in MPI calls
  // concurrently on the same process's stack.
  cluster.run_threads(2, [](mpi::Comm& c, int thread) {
    const int tag = 100 + thread * 100;
    if (c.rank() == 0) {
      c.send_value(thread * 10 + 1, 1, tag);
      EXPECT_EQ(c.recv_value<int>(1, tag), thread * 10 + 2);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, tag), thread * 10 + 1);
      c.send_value(thread * 10 + 2, 0, tag);
    }
  });
}

TEST(ThreadMultiple, ConcurrentWaitsBlockOnTheirOwnCompletions) {
  // §3.3.2: "instead of concurrently polling when several threads invoke
  // MPI_Wait ... these threads would relinquish the CPU". One thread waits
  // on a slow rendezvous while the other completes fast sends; neither
  // prevents the other from progressing.
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;
  mpi::Cluster cluster(cfg);
  double fast_done = 0, slow_done = 0;
  cluster.run_threads(2, [&](mpi::Comm& c, int thread) {
    if (c.rank() == 0) {
      if (thread == 0) {
        std::vector<std::byte> big(8 << 20);
        c.send(big.data(), big.size(), 1, 1);  // slow rendezvous
        slow_done = c.wtime();
      } else {
        for (int i = 0; i < 5; ++i) c.send_value(i, 1, 2);
        fast_done = c.wtime();
      }
    } else {
      if (thread == 0) {
        std::vector<std::byte> big(8 << 20);
        c.recv(big.data(), big.size(), 0, 1);
      } else {
        for (int i = 0; i < 5; ++i) EXPECT_EQ(c.recv_value<int>(0, 2), i);
      }
    }
  });
  EXPECT_GT(slow_done, 0.0);
  EXPECT_GT(fast_done, 0.0);
  EXPECT_LT(fast_done, slow_done);  // the fast thread was not serialized behind the slow one
}

TEST(ThreadMultiple, ThreadsShareCollectivesViaDistinctThreads) {
  // One thread per rank does a collective while the other computes.
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  mpi::Cluster cluster(cfg);
  cluster.run_threads(2, [](mpi::Comm& c, int thread) {
    if (thread == 0) {
      const double sum = c.allreduce_one(1.0, mpi::ReduceOp::Sum);
      EXPECT_DOUBLE_EQ(sum, c.size());
    } else {
      c.compute(10e-6);
    }
  });
}

}  // namespace
}  // namespace nmx
