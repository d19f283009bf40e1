// NewMadeleine wire format: the protocol units ("entries") strategies queue,
// and the wire message (packet wrapper) a strategy builds for one NIC
// submission. A wire message may aggregate several entries for the same
// destination — that is the whole point of the uncoupled request submission
// described in §2.2: "when a network becomes idle, it has the possibility to
// apply optimizations on the accumulated communication requests".
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "nmad/types.hpp"

namespace nmx::nmad {

struct Gate;  // nmad::Core's per-peer connection state (core.hpp)

/// One rail's receiver-side load advertisement, carried in the CTS grant so
/// the sender's cost model can account for *both* ends of the transfer. The
/// receiver samples these at grant time: how long its ingress channel is
/// already booked past "now" on this rail, plus how many rendezvous bytes it
/// has granted to other senders that have not landed yet (attributed to
/// rails by the observed per-peer arrival mix).
struct RailAd {
  int fabric_rail = -1;            ///< fabric rail index (receiver and sender
                                   ///< may drive different local subsets)
  Time busy_delta = 0;             ///< ingress booked this far past grant time
  std::uint64_t backlog_bytes = 0; ///< granted inbound bytes expected here
  /// Serialized size: rail id (4) + busy delta (8) + backlog (8).
  static constexpr std::size_t kWireSize = 4 + 8 + 8;
};

// Wire-layout pins. The serialized ad is the three fields above, packed in
// declaration order with no padding; a field added or widened without
// re-deriving kWireSize (and the CTS header charging that uses it) is a
// build error, not a silent cross-version framing bug.
static_assert(RailAd::kWireSize == sizeof(std::int32_t) + sizeof(std::uint64_t) +
                                       sizeof(std::uint64_t),
              "RailAd::kWireSize must equal the packed size of (fabric_rail, busy_delta, "
              "backlog_bytes); update the constant and the CTS charging together");
static_assert(RailAd::kWireSize == 20, "RailAd wire size is pinned at 20 bytes "
              "(tests/wire_test.cpp and the CTS header math both assume it)");

/// One protocol unit queued toward a destination.
struct Entry {
  enum class Kind : std::uint8_t { Eager, Rts, Cts, RdvChunk, RailDown, RdvFin };
  static constexpr int kNumKinds = 6;

  /// Fixed header cost per kind, excluding variable-length payload fields.
  /// Eager/RdvChunk: kind + dst + tag + seq/offset bookkeeping packed in 16
  /// (RdvChunk adds the 4-byte grant epoch it answers).
  /// Rts: adds rdv id + total size + matching info (32) plus the 4-byte
  /// retransmission counter.
  /// Cts: base grant (rdv id + ack) + 4-byte grant epoch — the per-rail load
  /// vector is charged on top via header_bytes(), see RailAd::kWireSize.
  /// RailDown: kind + dst bookkeeping + the dead fabric rail (16).
  /// RdvFin: receiver->sender completion ack — rdv id (8) + landed-byte ack
  /// (8) + the grant epoch it confirms (4). Retirement of the sender-side
  /// rendezvous state is gated on it (closes the restart orphan window).
  static constexpr std::size_t kEagerHeader = 16;
  static constexpr std::size_t kRtsHeader = 36;
  static constexpr std::size_t kCtsHeaderBase = 20;
  static constexpr std::size_t kRdvChunkHeader = 20;
  static constexpr std::size_t kRailDownHeader = 16;
  static constexpr std::size_t kRdvFinHeader = 20;

  // Field order pairs the 4-byte fields (only `rail` is left unpaired) so the
  // struct carries one 4-byte hole: strategies move Entries by value on every
  // hop, and the eager hot path pays for every byte.
  Kind kind = Kind::Eager;
  int dst_proc = -1;
  Tag tag = 0;
  /// Per-(destination, tag) sequence number stamped on Eager and Rts so the
  /// receiver matches in MPI send order even across rails.
  std::uint32_t seq = 0;
  /// Rts: retransmission attempt (0 = original). A retransmitted RTS reuses
  /// the original seq/rdv_id so it either slots into the matching stream (the
  /// original was lost) or is recognised as a duplicate (only the CTS was).
  std::uint32_t retry = 0;
  std::uint64_t rdv_id = 0;     ///< Rts / Cts / RdvChunk
  std::size_t rdv_total = 0;    ///< Rts: full message size
  std::size_t offset = 0;       ///< RdvChunk: position in the message
  /// Cts / RdvChunk: the receiver's grant epoch. Bumped when the receiver
  /// restarts and re-grants; chunks answering a stale epoch are dropped by
  /// the receiver and not double-counted by the sender.
  std::uint32_t epoch = 0;
  /// RailDown: the fabric rail that died (receiver-to-sender notification so
  /// the sender re-plans in-flight rendezvous onto surviving rails).
  int down_rail = -1;
  int rail = 0;                 ///< local rail, assigned by the strategy
  /// Eager payload, copied at isend: an eager send completes at egress, and
  /// the sender may reuse its buffer from then on. Empty for every other
  /// kind.
  std::vector<std::byte> bytes;
  /// RdvChunk payload: a view of the sender's user buffer (sreq->sbuf +
  /// offset), never a copy — the zero-copy rendezvous of §2.1.3. The view
  /// stays valid until the receiver reads it: a rendezvous send retires only
  /// in Core::try_retire, which needs the receiver's RdvFin for the current
  /// epoch (sent after every byte landed), bytes_outstanding == 0 and
  /// inflight_notes == 0, and until then the MPI layer can neither release
  /// nor reuse the buffer. Chunks of a stale epoch are dropped before the
  /// receiver touches the view.
  std::span<const std::byte> chunk;
  /// Cts: the receiver's per-rail load advertisement (empty when the
  /// receiver does not advertise). Also rides the internal unplanned-RdvChunk
  /// hand-off from the core to chunk-planning strategies; never serialized
  /// for other kinds.
  std::vector<RailAd> rail_ads;
  Request* sreq = nullptr;      ///< sender request to progress at egress
  /// Eager / Rts: the receiver's gate toward the sender (the connection's
  /// far end), so the arrival path needs no gate lookup. Null when the
  /// sender has not resolved it, e.g. on a retransmitted RTS; the receiver
  /// then finds the gate by peer id. Not charged on the wire, like sreq.
  Gate* far = nullptr;
  std::uint64_t span = 0;       ///< message-lifecycle span this entry belongs to
  /// RdvChunk diagnostic (not charged on the wire, like span/sreq): the
  /// sender's predicted arrival time of this chunk at the receiver, from the
  /// two-ended estimator. The receiver compares it against the actual landing
  /// time (nmad.sched.remote_pred_error_us). 0 = not stamped.
  Time pred_arrival = 0;

  /// Header cost of this entry on the wire, derived from the fields the kind
  /// actually carries (tests/wire_test.cpp checks every kind against its
  /// field layout).
  std::size_t header_bytes() const {
    switch (kind) {
      case Kind::Eager: return kEagerHeader;
      case Kind::Rts: return kRtsHeader;
      case Kind::Cts: return kCtsHeaderBase + rail_ads.size() * RailAd::kWireSize;
      case Kind::RdvChunk: return kRdvChunkHeader;
      case Kind::RailDown: return kRailDownHeader;
      case Kind::RdvFin: return kRdvFinHeader;
    }
    return kEagerHeader;
  }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::Eager: return "Eager";
      case Kind::Rts: return "Rts";
      case Kind::Cts: return "Cts";
      case Kind::RdvChunk: return "RdvChunk";
      case Kind::RailDown: return "RailDown";
      case Kind::RdvFin: return "RdvFin";
    }
    return "?";
  }
  /// Payload bytes this entry carries: the rendezvous view for RdvChunk, the
  /// eager copy otherwise (empty for control kinds).
  std::size_t payload_size() const {
    return kind == Kind::RdvChunk ? chunk.size() : bytes.size();
  }
  std::size_t wire_bytes() const { return header_bytes() + payload_size(); }
};

// Entries are moved by value through every strategy queue; pin the layout so
// a new field is a deliberate size decision (LP64 only). 160 bytes: the far-
// end gate pointer saves the receiver a gate lookup on every Eager and Rts
// arrival, which costs more than 8 bytes per move. `int rail` has no 4-byte
// partner, which leaves the one 4-byte hole: a new 4-byte field fills it for
// free.
static_assert(sizeof(void*) != 8 || sizeof(Entry) == 160,
              "Entry grew past 160 bytes: fill the 4-byte hole after `rail`, or justify the "
              "growth");

// Fixed-header layout pins, derived from the field widths each kind carries
// (the same derivations tests/wire_test.cpp checks at runtime; here they are
// build errors). nmx_lint's wire-conformance pass closes the remaining gap:
// every Kind enumerator must be charged in header_bytes() and pinned in
// tests/wire_test.cpp, which a static_assert cannot express.
static_assert(Entry::kEagerHeader == 16,
              "eager header: kind + dst + tag + seq bookkeeping packed in 16");
static_assert(Entry::kRtsHeader == Entry::kEagerHeader + sizeof(std::uint64_t) +
                                       sizeof(std::uint64_t) + sizeof(std::uint32_t),
              "RTS header = eager bookkeeping + rdv id (8) + total size (8) + retry (4)");
static_assert(Entry::kCtsHeaderBase ==
                  sizeof(std::uint64_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t),
              "CTS base grant = rdv id (8) + ack (8) + grant epoch (4); "
              "per-rail ads are charged on top via RailAd::kWireSize");
static_assert(Entry::kRdvChunkHeader == Entry::kEagerHeader + sizeof(std::uint32_t),
              "rdv chunk header = eager bookkeeping + the grant epoch it answers (4)");
static_assert(Entry::kRailDownHeader == Entry::kEagerHeader,
              "rail-down notification: kind + dst bookkeeping + dead rail fit the 16-byte base");
static_assert(Entry::kRdvFinHeader ==
                  sizeof(std::uint64_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t),
              "rdv completion ack = rdv id (8) + landed-byte ack (8) + grant epoch (4)");

/// One NIC submission: entries aggregated for a single destination.
struct WireMsg {
  int src_proc = -1;
  int dst_proc = -1;
  std::vector<Entry> entries;

  std::size_t wire_bytes() const {
    return std::accumulate(entries.begin(), entries.end(), std::size_t{0},
                           [](std::size_t a, const Entry& e) { return a + e.wire_bytes(); });
  }
  /// Bytes that were memcpy'd into the packet wrapper (eager payloads) —
  /// charged at host copy bandwidth on submission.
  std::size_t copied_bytes() const {
    std::size_t n = 0;
    for (const Entry& e : entries)
      if (e.kind == Entry::Kind::Eager) n += e.bytes.size();
    return n;
  }
  /// Rendezvous payload bytes (zero-copy, but need registration on IB).
  std::size_t rdv_bytes() const {
    std::size_t n = 0;
    for (const Entry& e : entries)
      if (e.kind == Entry::Kind::RdvChunk) n += e.payload_size();
    return n;
  }
};

}  // namespace nmx::nmad
