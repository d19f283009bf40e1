// The ADI3 posted/unexpected queue pair (§3.1.1), for a transport that
// matches messages itself: CH3 for self, shared-memory and legacy netmod
// traffic, and the comparison stacks for all of theirs. Both queues are
// FIFO, so a match always takes the oldest candidate — MPI's non-overtaking
// rule — and this is the one place envelope matching happens.
//
// `Req` is a receive request with `peer`, `tag` and `context` (`peer` may be
// ANY_SOURCE and `tag` ANY_TAG); `Msg` is an arrival with `src`, `tag`,
// `context` and `len`, the byte count a probe reports. Header-only, like
// transport.hpp, so the transports use it without linking the mpi library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <list>
#include <optional>
#include <utility>

#include "mpi/transport.hpp"

namespace nmx::mpi {

/// MPI envelope matching: does a message from (src, tag, ctx) satisfy a
/// receive or probe for (want_src, want_tag, want_ctx)? `want_src` may be
/// ANY_SOURCE and `want_tag` ANY_TAG; contexts always match exactly.
constexpr bool envelope_matches(int want_src, int want_tag, int want_ctx, int src, int tag,
                                int ctx) {
  return want_ctx == ctx && (want_src == ANY_SOURCE || want_src == src) &&
         (want_tag == ANY_TAG || want_tag == tag);
}

template <class Req, class Msg>
class MatchQueues {
 public:
  void post(Req* req) { posted_.push_back(req); }

  /// Dequeue the oldest posted receive `msg` satisfies; null if none does.
  Req* take_posted(const Msg& msg) {
    auto it = std::find_if(posted_.begin(), posted_.end(), [&msg](const Req* r) {
      return envelope_matches(r->peer, r->tag, r->context, msg.src, msg.tag, msg.context);
    });
    if (it == posted_.end()) return nullptr;
    Req* req = *it;
    posted_.erase(it);
    return req;
  }

  /// Withdraw `req` if it is still posted; a no-op otherwise.
  void unpost(Req* req) { posted_.remove(req); }

  void park(Msg msg) { unexpected_.push_back(std::move(msg)); }

  /// Dequeue the oldest unexpected message `req` wants, if any.
  std::optional<Msg> take_unexpected(const Req& req) {
    auto it = first_unexpected(unexpected_, req.peer, req.tag, req.context);
    if (it == unexpected_.end()) return std::nullopt;
    std::optional<Msg> msg(std::move(*it));
    unexpected_.erase(it);
    return msg;
  }

  /// MPI_Iprobe over the unexpected queue: the oldest match, not consumed.
  std::optional<Status> probe(int src, int tag, int context) const {
    auto it = first_unexpected(unexpected_, src, tag, context);
    if (it == unexpected_.end()) return std::nullopt;
    return Status{it->src, it->tag, it->len};
  }

  std::size_t posted_count() const { return posted_.size(); }
  std::size_t unexpected_count() const { return unexpected_.size(); }

 private:
  template <class List>
  static auto first_unexpected(List& list, int src, int tag, int context) {
    return std::find_if(list.begin(), list.end(), [&](const Msg& m) {
      return envelope_matches(src, tag, context, m.src, m.tag, m.context);
    });
  }

  std::list<Req*> posted_;
  std::list<Msg> unexpected_;
};

}  // namespace nmx::mpi
