// Chaos conformance tier: every fault kind the FaultPlan can inject — rail
// death mid-rendezvous, dropped / reordered CTS, duplicated RTS, silent
// bandwidth degradation, receiver restart — must leave the stack with
// exactly-once delivery, byte-intact payloads, bounded recovery time, and
// byte-identical artifacts across two same-seed runs. A chaos failure is a
// reproducible test case, never a flake: the fault schedule is part of the
// config, and the simulator's determinism promise extends to faulted runs.
//
// Layout: run_scenario() drives a rank0 -> rank1 transfer workload whose
// payload is a closed-form pattern, so the receiver can verify every byte
// without shipping a reference copy; each focused test runs its scenario
// twice (replay check) and then interrogates the recovery counters; the
// FaultMatrix smoke sweeps all kinds at a second seed with just the oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mpi/cluster.hpp"
#include "nmad/wire.hpp"
#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"

namespace nmx {
namespace {

constexpr int kCts = static_cast<int>(nmad::Entry::Kind::Cts);
constexpr int kRts = static_cast<int>(nmad::Entry::Kind::Rts);

// Every run must finish within this much virtual time — generous against the
// healthy baseline (a few ms), tight against a runaway retry/replay loop.
constexpr Time kRecoveryBound = 50e-3;

/// Deterministic payload byte: f(round, offset). Exactly-once + intactness
/// oracle — a dropped, duplicated, stale or misplaced chunk shows up as a
/// mismatch against this closed form.
std::byte pattern(int round, std::size_t i) {
  return static_cast<std::byte>((static_cast<std::size_t>(round) * 131 + i * 7 + 5) & 0xff);
}

struct Scenario {
  mpi::ClusterConfig cfg;
  int rounds = 3;
  std::size_t msg = 1_MiB;  // above the rendezvous threshold
  /// false: one send/recv at a time (clean per-round handshake timing).
  /// true: all sends posted as isends up front, so the strategy holds a real
  /// backlog when a timed fault fires mid-drain.
  bool concurrent = false;
};

struct Outcome {
  std::string metrics_csv;
  std::string trace_json;
  Time elapsed = 0;
  std::size_t bad_bytes = 0;   // payload bytes that missed the pattern
  std::uint64_t recvs = 0;     // completed receives (exactly-once: == rounds)
  std::map<std::pair<std::string, std::string>, std::uint64_t> counters;

  std::uint64_t counter(const std::string& name, const std::string& label = "") const {
    auto it = counters.find({name, label});
    return it == counters.end() ? 0 : it->second;
  }
};

Outcome run_scenario(const Scenario& s) {
  mpi::ClusterConfig cfg = s.cfg;
  cfg.trace = true;
  mpi::Cluster cluster(cfg);
  Outcome o;
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(s.rounds));
      std::vector<mpi::Request> reqs;
      for (int round = 0; round < s.rounds; ++round) {
        auto& buf = bufs[static_cast<std::size_t>(round)];
        buf.resize(s.msg);
        for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = pattern(round, i);
        if (s.concurrent) {
          reqs.push_back(c.isend(buf.data(), buf.size(), 1, round));
        } else {
          c.send(buf.data(), buf.size(), 1, round);
        }
      }
      if (s.concurrent) c.waitall(reqs);
    } else if (c.rank() == 1) {
      std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(s.rounds));
      std::vector<mpi::Request> reqs;
      for (int round = 0; round < s.rounds; ++round) {
        auto& buf = bufs[static_cast<std::size_t>(round)];
        buf.assign(s.msg, std::byte{0xee});
        if (s.concurrent) {
          reqs.push_back(c.irecv(buf.data(), buf.size(), 0, round));
        } else {
          c.recv(buf.data(), buf.size(), 0, round);
          ++o.recvs;
        }
      }
      if (s.concurrent) {
        c.waitall(reqs);
        o.recvs += static_cast<std::uint64_t>(s.rounds);
      }
      for (int round = 0; round < s.rounds; ++round) {
        const auto& buf = bufs[static_cast<std::size_t>(round)];
        for (std::size_t i = 0; i < buf.size(); ++i) {
          if (buf[i] != pattern(round, i)) ++o.bad_bytes;
        }
      }
    }
  });
  o.elapsed = cluster.now();
  obs::Recorder* rec = cluster.recorder();
  EXPECT_NE(rec, nullptr);
  std::ostringstream metrics, trace;
  rec->metrics().write_csv(metrics);
  obs::write_chrome_trace(*rec, trace);
  o.metrics_csv = metrics.str();
  o.trace_json = trace.str();
  for (const auto& [key, c] : rec->metrics().counters()) o.counters[key] = c.value();
  return o;
}

/// Delivery oracle + recovery bound + same-seed replay, shared by every
/// focused test: runs the scenario twice and hands back the first outcome.
Outcome run_checked(const Scenario& s) {
  const Outcome a = run_scenario(s);
  const Outcome b = run_scenario(s);
  std::cout << "virtual time to completion: " << a.elapsed * 1e3 << " ms\n";
  EXPECT_EQ(a.recvs, static_cast<std::uint64_t>(s.rounds)) << "lost or duplicated completion";
  EXPECT_EQ(a.bad_bytes, 0u) << "payload corrupted by fault recovery";
  EXPECT_LT(a.elapsed, kRecoveryBound) << "recovery exceeded the virtual-time bound";
  EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "same-seed faulted runs diverged (metrics)";
  EXPECT_EQ(a.trace_json, b.trace_json) << "same-seed faulted runs diverged (trace)";
  return a;
}

// ---------------------------------------------------------------------------
// Scenario builders (shared between the focused tests and the fault matrix)
// ---------------------------------------------------------------------------

mpi::ClusterConfig base_cfg() {
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;  // rank 0 on node 0, rank 1 on node 1: all traffic on the fabric
  cfg.rails = {net::ib_profile(), net::mx_profile()};
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  return cfg;
}

Scenario dropped_cts(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  s.cfg.rdv_retry_timeout = 200e-6;  // > grant latency (~60us incl. registration)
  s.cfg.faults.seed = seed;
  sim::FaultSpec::EntryFault f;
  f.kind = kCts;
  f.drop_p = 0.6;
  s.cfg.faults.entry_faults.push_back(f);
  s.rounds = 5;
  return s;
}

Scenario duplicated_rts(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  s.cfg.faults.seed = seed;
  sim::FaultSpec::EntryFault f;
  f.kind = kRts;
  f.dup_p = 1.0;  // every RTS lands twice
  s.cfg.faults.entry_faults.push_back(f);
  return s;
}

Scenario reordered_cts(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  // Delay every grant past the retry timeout: the sender retransmits, the
  // receiver re-grants, and two CTS for the same rendezvous race on the wire.
  s.cfg.rdv_retry_timeout = 200e-6;
  s.cfg.faults.seed = seed;
  sim::FaultSpec::EntryFault f;
  f.kind = kCts;
  f.delay_p = 1.0;
  f.delay = 400e-6;
  s.cfg.faults.entry_faults.push_back(f);
  return s;
}

Scenario rail_down_mid_rdv(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  // SplitBalance plans all per-rail chunks at grant time, so with 4
  // concurrent 2 MiB rendezvous in flight the dying rail's queue is
  // guaranteed non-empty at t = 1 ms (total egress is ~3 ms healthy).
  s.cfg.strategy = nmad::StrategyKind::SplitBalance;
  s.cfg.faults.seed = seed;
  s.cfg.faults.rail_down.push_back({1e-3, /*rail=*/1});
  s.rounds = 4;
  s.msg = 2_MiB;
  s.concurrent = true;
  return s;
}

Scenario silent_degradation(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  s.cfg.strategy = nmad::StrategyKind::CostModel;
  s.cfg.faults.seed = seed;
  // Rail 0 silently loses 70% of its bandwidth from the start: probes keep
  // reporting the healthy profile, so only the egress-occupancy feedback
  // (Sampling::observe_egress, always on) can pull the split back toward
  // reality.
  s.cfg.faults.degrade.push_back({0.0, /*rail=*/0, /*beta_factor=*/0.3});
  s.rounds = 8;
  s.msg = 2_MiB;
  return s;
}

Scenario receiver_restart(std::uint64_t seed) {
  Scenario s;
  s.cfg = base_cfg();
  s.cfg.strategy = nmad::StrategyKind::SplitBalance;
  s.cfg.faults.seed = seed;
  // One 8 MiB rendezvous: chunks egress until ~3.3 ms, so a restart at
  // 1.5 ms lands while the sender still owns the rendezvous (it can replay)
  // and the old-epoch chunks are still in flight (they land stale).
  s.cfg.faults.restart.push_back({1.5e-3, /*proc=*/1});
  s.rounds = 1;
  s.msg = 8_MiB;
  return s;
}

// ---------------------------------------------------------------------------
// Focused per-kind tests: oracle + replay + the recovery counters
// ---------------------------------------------------------------------------

TEST(Chaos, UnfaultedControlNeverRetries) {
  // Same workload and retry timer as the dropped-CTS run, zero faults: the
  // timeout must never fire on a healthy fabric, or every slow-but-correct
  // receiver would eat spurious retransmissions.
  Scenario s = dropped_cts(1);
  s.cfg.faults = sim::FaultSpec{};  // healthy: no FaultPlan is even built
  const Outcome o = run_checked(s);
  EXPECT_EQ(o.counter("nmad.rdv.retries"), 0u);
  EXPECT_EQ(o.counter("nmad.fault.dropped", "kind=Cts"), 0u);
}

TEST(Chaos, DroppedCtsRecoversViaTimeoutAndRetry) {
  const Outcome o = run_checked(dropped_cts(1));
  EXPECT_GT(o.counter("nmad.fault.dropped", "kind=Cts"), 0u) << "fault never injected";
  EXPECT_GT(o.counter("nmad.rdv.retries"), 0u) << "lost grants must trigger RTS retransmission";
  // Every retransmission that found the rendezvous still pending re-granted.
  EXPECT_GT(o.counter("nmad.rdv.regrants"), 0u);
}

TEST(Chaos, DuplicatedRtsIsRecognisedNotRematched) {
  const Outcome o = run_checked(duplicated_rts(1));
  EXPECT_GT(o.counter("nmad.fault.duplicated", "kind=Rts"), 0u);
  EXPECT_GT(o.counter("nmad.rdv.dup_rts"), 0u) << "wire duplicate must hit the dup path";
  // A plain wire duplicate (retry == 0) must not re-grant: the original's
  // CTS is already queued or in flight.
  EXPECT_EQ(o.counter("nmad.rdv.regrants"), 0u);
}

TEST(Chaos, ReorderedCtsRaceIsSettledByTheFirstGrant) {
  const Outcome o = run_checked(reordered_cts(1));
  EXPECT_GT(o.counter("nmad.fault.delayed", "kind=Cts"), 0u);
  // The delay outruns the retry timer every round: retransmit, re-grant,
  // then the loser of the two-CTS race is recognised as a duplicate.
  EXPECT_GT(o.counter("nmad.rdv.retries"), 0u);
  EXPECT_GT(o.counter("nmad.rdv.regrants"), 0u);
  EXPECT_GT(o.counter("nmad.rdv.dup_cts"), 0u);
}

TEST(Chaos, RailDownMidRendezvousReroutesOntoSurvivors) {
  const Outcome o = run_checked(rail_down_mid_rdv(1));
  EXPECT_GE(o.counter("nmad.fault.rail_down", "rail=1"), 1u);
  EXPECT_GT(o.counter("nmad.fault.rerouted_entries"), 0u)
      << "queued work on the dead rail was not displaced";
  EXPECT_GT(o.counter("nmad.fault.rerouted_bytes"), 0u);
  // Fail-stop at admission: nothing may be handed to a dead rail.
  EXPECT_EQ(o.counter("net.fault.tx_on_dead_rail"), 0u);
}

TEST(Chaos, SilentDegradationIsRelearnedFromEgressOccupancy) {
  const Outcome o = run_checked(silent_degradation(1));
  EXPECT_GT(o.counter("nmad.sched.beta_relearned", "rail=0"), 0u)
      << "cost model never adopted the measured bandwidth";
}

TEST(Chaos, ReceiverRestartForcesEpochedReplay) {
  const Outcome o = run_checked(receiver_restart(1));
  EXPECT_EQ(o.counter("nmad.fault.restarts"), 1u);
  EXPECT_EQ(o.counter("nmad.rdv.restart_grants"), 1u) << "pending rendezvous not re-granted";
  EXPECT_EQ(o.counter("nmad.rdv.restart_replays"), 1u) << "sender did not replay from byte 0";
  // The pre-restart chunks were in flight when the epoch bumped: they must
  // land stale (discarded), and their egress notes must not double-credit
  // the replayed transfer.
  EXPECT_GE(o.counter("nmad.rdv.stale_chunks"), 1u);
  EXPECT_GE(o.counter("nmad.rdv.stale_tx_notes"), 1u);
  // Sender retirement is gated on the receiver's RdvFin ack, so a restart
  // re-grant can never land on an already-retired rendezvous.
  EXPECT_GT(o.counter("nmad.rdv.fin_tx"), 0u) << "receiver never acked completion";
  EXPECT_EQ(o.counter("nmad.rdv.orphan_cts"), 0u) << "restart re-grant orphaned";
}

// The orphan window was widest right where the sender finished pushing bytes:
// before the RdvFin gate, egress completion retired the rendezvous, and a
// restart re-grant racing toward the sender found nothing to replay. Sweep
// restart times bracketing the 8 MiB transfer's egress completion (~3.3 ms)
// and demand zero orphans — and an intact payload — at every point.
class RestartSweep : public ::testing::TestWithParam<double> {};

TEST_P(RestartSweep, NoGrantIsOrphanedAtAnyRestartTime) {
  Scenario s = receiver_restart(1);
  s.cfg.faults.restart.clear();
  s.cfg.faults.restart.push_back({GetParam(), /*proc=*/1});
  const Outcome o = run_scenario(s);
  EXPECT_EQ(o.recvs, static_cast<std::uint64_t>(s.rounds));
  EXPECT_EQ(o.bad_bytes, 0u);
  EXPECT_LT(o.elapsed, kRecoveryBound);
  // No restarts==1 assertion: the latest sweep points may land after the
  // transfer fully retired (workload done, event never fires) — the property
  // under test is that wherever the restart lands, nothing is orphaned.
  EXPECT_EQ(o.counter("nmad.rdv.orphan_cts"), 0u)
      << "restart at t=" << GetParam() << " orphaned a re-grant";
}

INSTANTIATE_TEST_SUITE_P(AcrossEgressCompletion, RestartSweep,
                         ::testing::Values(0.5e-3, 1.5e-3, 2.5e-3, 3.1e-3, 3.3e-3, 3.5e-3),
                         [](const auto& info) {
                           std::string name = "t";
                           name += std::to_string(static_cast<int>(info.param * 1e4));
                           return name;
                         });

// ---------------------------------------------------------------------------
// Fault-matrix smoke: every kind x one more seed, oracle only
// ---------------------------------------------------------------------------

struct MatrixEntry {
  const char* name;
  Scenario (*build)(std::uint64_t seed);
};

constexpr MatrixEntry kMatrix[] = {
    {"dropped_cts", dropped_cts},       {"duplicated_rts", duplicated_rts},
    {"reordered_cts", reordered_cts},   {"rail_down", rail_down_mid_rdv},
    {"degradation", silent_degradation}, {"receiver_restart", receiver_restart},
};

class FaultMatrix : public ::testing::TestWithParam<MatrixEntry> {};

TEST_P(FaultMatrix, CompletesExactlyOnceWithIntactPayloads) {
  const Scenario s = GetParam().build(42);
  const Outcome o = run_scenario(s);
  EXPECT_EQ(o.recvs, static_cast<std::uint64_t>(s.rounds));
  EXPECT_EQ(o.bad_bytes, 0u);
  EXPECT_LT(o.elapsed, kRecoveryBound);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultMatrix, ::testing::ValuesIn(kMatrix),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace nmx
