// Wire-format accounting: every Entry kind's header cost must match the
// fields that kind actually carries. The CTS in particular is no longer a
// fixed 16 bytes — it grows by RailAd::kWireSize per advertised rail, and a
// hard-coded size here silently mis-charges every rendezvous handshake. The
// control-plane recovery fields (RTS retry counter, CTS/chunk grant epoch,
// rail-down notification) are wire-charged too: recovery traffic must not be
// free, or the chaos tier's recovery-time bounds measure fiction.
#include <gtest/gtest.h>

#include <vector>

#include "nmad/wire.hpp"

namespace {

using namespace nmx;
using nmad::Entry;
using nmad::RailAd;
using nmad::WireMsg;

TEST(WireFormat, EveryKindHeaderMatchesItsFieldLayout) {
  static_assert(Entry::kNumKinds == 6, "new Kind added: extend this test");
  // Eager packs its matching info (kind + dst + tag + seq) into 16 bytes.
  EXPECT_EQ(Entry::kEagerHeader, 16u);
  // RdvChunk is an Eager-style header plus the 4-byte grant epoch it answers
  // (the receiver discards chunks of a superseded grant by this stamp).
  EXPECT_EQ(Entry::kRdvChunkHeader, Entry::kEagerHeader + 4);
  // Rts adds rdv id (8), total size (8) and the retransmission counter (4) —
  // a retried RTS reuses seq/rdv_id, so the counter is the only thing that
  // distinguishes it on the wire.
  EXPECT_EQ(Entry::kRtsHeader, Entry::kEagerHeader + 8 + 8 + 4);
  // The CTS base grant is the legacy 16-byte grant plus the 4-byte epoch.
  EXPECT_EQ(Entry::kCtsHeaderBase, 16u + 4u);
  // RailDown carries kind + dst bookkeeping + the dead fabric rail in 16.
  EXPECT_EQ(Entry::kRailDownHeader, 16u);
  // RdvFin is the receiver's completion ack: rdv id (8) + landed-byte count
  // (8) + the grant epoch it confirms (4). Sender retirement gates on it.
  EXPECT_EQ(Entry::kRdvFinHeader, 8u + 8u + 4u);
  // RailAd: fabric rail (4) + busy delta (8) + backlog bytes (8).
  EXPECT_EQ(RailAd::kWireSize, 4u + 8u + 8u);
}

TEST(WireFormat, HeaderBytesDispatchesOnKind) {
  Entry e;
  e.kind = Entry::Kind::Eager;
  EXPECT_EQ(e.header_bytes(), Entry::kEagerHeader);
  e.kind = Entry::Kind::Rts;
  EXPECT_EQ(e.header_bytes(), Entry::kRtsHeader);
  e.kind = Entry::Kind::Cts;
  EXPECT_EQ(e.header_bytes(), Entry::kCtsHeaderBase);
  e.kind = Entry::Kind::RdvChunk;
  EXPECT_EQ(e.header_bytes(), Entry::kRdvChunkHeader);
  e.kind = Entry::Kind::RailDown;
  EXPECT_EQ(e.header_bytes(), Entry::kRailDownHeader);
  e.kind = Entry::Kind::RdvFin;
  EXPECT_EQ(e.header_bytes(), Entry::kRdvFinHeader);
}

TEST(WireFormat, FinCarriesNoPayload) {
  // RdvFin reuses rdv_total as the landed-byte ack and has no payload
  // vector, so the wire charge is exactly the header.
  Entry fin;
  fin.kind = Entry::Kind::RdvFin;
  fin.rdv_id = 9;
  fin.rdv_total = 1_MiB;  // landed-byte ack: header field, not payload
  fin.epoch = 2;
  EXPECT_EQ(fin.wire_bytes(), Entry::kRdvFinHeader);
}

TEST(WireFormat, CtsHeaderGrowsByWireSizePerRailAd) {
  Entry cts;
  cts.kind = Entry::Kind::Cts;
  // A no-advertisement grant costs exactly the base header.
  EXPECT_EQ(cts.header_bytes(), Entry::kCtsHeaderBase);
  for (std::size_t n = 1; n <= 3; ++n) {
    cts.rail_ads.push_back(RailAd{static_cast<int>(n) - 1, 1e-6, 4096});
    EXPECT_EQ(cts.header_bytes(), Entry::kCtsHeaderBase + n * RailAd::kWireSize);
    EXPECT_EQ(cts.wire_bytes(), cts.header_bytes());  // a CTS has no payload
  }
}

TEST(WireFormat, RecoveryFieldsAreHeaderChargedNotExtra) {
  // retry, epoch and down_rail are fixed header fields — always charged, so
  // stamping them must not change an entry's wire size (no hidden free or
  // double-charged recovery traffic).
  Entry rts;
  rts.kind = Entry::Kind::Rts;
  const std::size_t rts_base = rts.wire_bytes();
  rts.retry = 3;
  EXPECT_EQ(rts.wire_bytes(), rts_base);

  Entry cts;
  cts.kind = Entry::Kind::Cts;
  const std::size_t cts_base = cts.wire_bytes();
  cts.epoch = 7;
  EXPECT_EQ(cts.wire_bytes(), cts_base);

  Entry down;
  down.kind = Entry::Kind::RailDown;
  const std::size_t down_base = down.wire_bytes();
  down.down_rail = 1;
  EXPECT_EQ(down.wire_bytes(), down_base);
  EXPECT_EQ(down_base, Entry::kRailDownHeader);  // notification has no payload
}

TEST(WireFormat, DiagnosticFieldsAreNotWireCharged) {
  // span, sreq and pred_arrival are simulator bookkeeping that real hardware
  // would not serialize; stamping them must not change the charged size.
  const std::vector<std::byte> payload(1024);
  Entry e;
  e.kind = Entry::Kind::RdvChunk;
  e.chunk = payload;  // rendezvous data is a view of the sender's buffer
  const std::size_t base = e.wire_bytes();
  e.span = 42;
  e.pred_arrival = 1.5;
  EXPECT_EQ(e.wire_bytes(), base);
  EXPECT_EQ(base, Entry::kRdvChunkHeader + 1024);
}

TEST(WireFormat, WireMsgAggregatesEntryCosts) {
  WireMsg wm;
  Entry eager;
  eager.kind = Entry::Kind::Eager;
  eager.bytes.resize(100);
  Entry cts;
  cts.kind = Entry::Kind::Cts;
  cts.rail_ads.resize(2);
  const std::vector<std::byte> payload(2048);
  Entry chunk;
  chunk.kind = Entry::Kind::RdvChunk;
  chunk.chunk = payload;
  wm.entries = {eager, cts, chunk};
  EXPECT_EQ(wm.wire_bytes(), (Entry::kEagerHeader + 100) +
                                 (Entry::kCtsHeaderBase + 2 * RailAd::kWireSize) +
                                 (Entry::kRdvChunkHeader + 2048));
  EXPECT_EQ(wm.copied_bytes(), 100u);  // only the eager payload is memcpy'd
  EXPECT_EQ(wm.rdv_bytes(), 2048u);    // only the chunk needs registration
}

}  // namespace
