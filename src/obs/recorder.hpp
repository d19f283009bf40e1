// The observability store: a flat, time-ordered stream of typed records
// (instants and span begin/end pairs) plus the metrics registry. Layers reach
// it through sim::Engine::recorder(); when none is attached, instrumentation
// costs one null check.
//
// Span model: a span is the lifetime of one protocol-level activity — an MPI
// request from post to completion, a rendezvous handshake from RTS to CTS, a
// NIC occupied from submission to egress, a wait or compute block. begin()
// allocates a process-global SpanId which upper layers thread down the stack
// (MpidRequest::span -> nmad::Request::span -> Entry::span) so every record a
// message touches can name the request that caused it. The Chrome trace-event
// exporter (obs/export_chrome.hpp) renders the stream for Perfetto, and
// Registry::write_csv dumps the metrics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace nmx::obs {

/// Record categories. Ids and to_string() names are part of the trace
/// format, so new categories append.
enum class Cat : std::uint8_t {
  MpiSend,      ///< MPI-level send posted
  MpiRecv,      ///< MPI-level receive posted
  MpiWait,      ///< blocking wait (span)
  MpiColl,      ///< collective operation
  NmadTx,       ///< NIC occupied by one wire message (span; arg = local rail)
  NmadRx,       ///< NewMadeleine wire message handled
  NmadRdv,      ///< rendezvous handshake, sender side RTS->CTS (span)
  ShmCell,      ///< Nemesis cell enqueued
  PiomanPass,   ///< PIOMan service pass
  Compute,      ///< application compute block (span)
  MsgSend,      ///< MPI send-request lifetime, post -> completion (span)
  MsgRecv,      ///< MPI recv-request lifetime, post -> completion (span)
  StratEnqueue, ///< protocol entry queued into the strategy
  RdvRts,       ///< RTS arrived at the receiver
  RdvCts,       ///< CTS granted by the receiver
  RdvData,      ///< rendezvous data chunk landed
  Unexpected,   ///< message arrived with no posted request
  Iter,         ///< one timed application iteration (span; arg = iter index)
  MsgMatch,     ///< recv completed: link record, span = receiver's MsgRecv
                ///< span, arg = sender's MsgSend span (0 when unknown)
  WireLand,     ///< last byte of a wire entry landed: link record, span =
                ///< sender's MsgSend span, arg = fabric rail index
  Coll,         ///< one collective phase on one rank (span; arg packs the
                ///< CollOp in bits 8+ and the coll::Algo in bits 0..7)
};

/// The collective ops a Cat::Coll span names. The coll layer emits them and
/// the critical-path report tiles by them; ids are part of the trace format,
/// so new ops append.
enum class CollOp : std::uint8_t {
  Barrier, Bcast, Allreduce, Alltoall, Reduce, Gather, Scatter, Allgather, Alltoallv, Scan,
};
inline constexpr std::size_t kNumCollOps = static_cast<std::size_t>(CollOp::Scan) + 1;
inline constexpr const char* kCollOpNames[kNumCollOps] = {
    "barrier", "bcast",   "allreduce", "alltoall",  "reduce",
    "gather",  "scatter", "allgather", "alltoallv", "scan",
};

const char* to_string(Cat cat);

enum class Ph : std::uint8_t { Instant, Begin, End };

/// 0 is never a valid span id.
using SpanId = std::uint64_t;

struct Record {
  Time t = 0;
  int rank = -1;  ///< -1: engine/background context
  Cat cat = Cat::MpiSend;
  Ph ph = Ph::Instant;
  SpanId span = 0;           ///< nonzero for Begin/End
  std::size_t bytes = 0;
  std::int64_t arg = 0;      ///< category-specific (peer, rail, tag, ...)
};

/// One point on a named counter track — the time series behind Perfetto's
/// "C"-phase line charts (queue depths, per-rail backlog). Kept separate from
/// the record stream: samples carry a value, not a span.
struct CounterSample {
  Time t = 0;
  int rank = -1;
  std::string track;
  double value = 0;
};

class Recorder {
 public:
  void instant(Time t, int rank, Cat cat, std::size_t bytes = 0, std::int64_t arg = 0) {
    push_record(Record{t, rank, cat, Ph::Instant, 0, bytes, arg});
  }

  /// Link record: an Instant that *references* an existing span instead of
  /// opening one (MsgMatch naming the receiver's span, WireLand naming the
  /// sender's). Kept out of begin/end accounting — the span field is a
  /// cross-reference, not a lifetime edge.
  void link(Time t, int rank, Cat cat, SpanId span, std::size_t bytes = 0, std::int64_t arg = 0) {
    push_record(Record{t, rank, cat, Ph::Instant, span, bytes, arg});
  }

  /// Open a span and return its id (never 0).
  SpanId begin(Time t, int rank, Cat cat, std::size_t bytes = 0, std::int64_t arg = 0) {
    const SpanId id = next_span_++;
    push_record(Record{t, rank, cat, Ph::Begin, id, bytes, arg});
    ++begun_;
    return id;
  }

  /// Close span `id`. No-op when `id` is 0 (span opened with no recorder
  /// attached), so callers may invoke it unconditionally.
  void end(Time t, int rank, Cat cat, SpanId id, std::size_t bytes = 0, std::int64_t arg = 0) {
    if (id == 0) return;
    push_record(Record{t, rank, cat, Ph::End, id, bytes, arg});
    ++ended_;
  }

  /// Append a point to counter track `track` (created on first use).
  void sample(Time t, int rank, std::string track, double value) {
    push_sample(CounterSample{t, rank, std::move(track), value});
  }

  // --- ring-buffer mode ----------------------------------------------------
  // Long NAS runs emit millions of records; bounding the store keeps tracing
  // usable without unbounded memory. Once full, the *oldest* record/sample is
  // overwritten (the interesting end of a trace is almost always the recent
  // one) and a dropped counter ticks so exporters can flag truncation.
  // Metrics (counters/gauges/histograms) are aggregates and are never
  // dropped; spans_begun/ended keep counting every event.

  /// Bound records *and* samples to `cap` entries each; 0 restores unbounded
  /// mode. Shrinking below the current size drops the oldest entries now.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const { return cap_; }
  /// Records / counter samples overwritten (or shed by set_capacity) so far.
  std::uint64_t dropped_records() const { return dropped_records_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  const std::vector<Record>& records() const {
    normalize(records_, rec_start_);
    return records_;
  }
  const std::vector<CounterSample>& samples() const {
    normalize(samples_, samp_start_);
    return samples_;
  }
  std::size_t size() const { return records_.size(); }

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }

  std::uint64_t spans_begun() const { return begun_; }
  std::uint64_t spans_ended() const { return ended_; }

  /// Span ids with a Begin but no matching End (or vice versa) — empty when
  /// every recorded span is properly paired.
  std::vector<SpanId> unbalanced_spans() const;

 private:
  void push_record(Record&& r) {
    if (cap_ == 0 || records_.size() < cap_) {
      records_.push_back(std::move(r));
      return;
    }
    records_[rec_start_] = std::move(r);  // overwrite the oldest
    rec_start_ = (rec_start_ + 1) % cap_;
    ++dropped_records_;
  }
  void push_sample(CounterSample&& s) {
    if (cap_ == 0 || samples_.size() < cap_) {
      samples_.push_back(std::move(s));
      return;
    }
    samples_[samp_start_] = std::move(s);
    samp_start_ = (samp_start_ + 1) % cap_;
    ++dropped_samples_;
  }
  /// Rotate the ring so index 0 is the oldest entry, letting the accessors
  /// keep returning plain time-ordered vectors. Amortized: reads between
  /// wraps pay nothing.
  template <typename T>
  static void normalize(std::vector<T>& v, std::size_t& start) {
    if (start == 0) return;
    std::rotate(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(start), v.end());
    start = 0;
  }

  // mutable: the ring is rotated into canonical order on const reads
  mutable std::vector<Record> records_;
  mutable std::vector<CounterSample> samples_;
  mutable std::size_t rec_start_ = 0;
  mutable std::size_t samp_start_ = 0;
  std::size_t cap_ = 0;  ///< 0: unbounded
  std::uint64_t dropped_records_ = 0;
  std::uint64_t dropped_samples_ = 0;
  Registry metrics_;
  SpanId next_span_ = 1;
  std::uint64_t begun_ = 0;
  std::uint64_t ended_ = 0;
};

}  // namespace nmx::obs
