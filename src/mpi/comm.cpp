#include "mpi/comm.hpp"

#include <algorithm>
#include <tuple>

namespace nmx::mpi {

Comm Comm::split(int color, int key) {
  // Gather every member's (color, key): an allgather keeps this collective
  // deterministic, then each rank derives its group locally. A member's
  // parent rank is its block index.
  struct Rec {
    std::int32_t color, key;
  };
  const Rec mine{color, key};
  std::vector<Rec> all(static_cast<std::size_t>(size_));
  allgather(&mine, sizeof(Rec), all.data());

  struct Member {
    int key, parent_rank;
  };
  std::vector<Member> members;
  for (int p = 0; p < size_; ++p) {
    const Rec& r = all[static_cast<std::size_t>(p)];
    if (r.color == color) members.push_back(Member{r.key, p});
  }
  std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });

  Comm sub(actor_, tx_, eng_, 0, static_cast<int>(members.size()), local_ranks_);
  sub.coll_ = coll_;
  sub.group_.clear();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int world = global(members[i].parent_rank);
    sub.group_.push_back(world);
    if (members[i].parent_rank == rank_) sub.rank_ = static_cast<int>(i);
  }
  // Context allocation: every member executes the same split sequence, so
  // this counter agrees across the group. Distinct colors get distinct
  // blocks so sibling communicators cannot cross-match.
  NMX_ASSERT_MSG(color >= 0, "negative split colors are not supported");
  int max_color = 0;
  for (const Rec& r : all) max_color = std::max<int>(max_color, r.color);
  sub.ctx_base_ = ctx_base_ + next_split_ctx_ + color * 16;
  NMX_ASSERT_MSG(sub.ctx_base_ + 16 < 0x7ffffff0, "context space exhausted");
  next_split_ctx_ += 16 * (1 + max_color);
  sub.next_split_ctx_ = 16;
  return sub;
}

int Comm::waitany(std::span<Request> reqs, Status* st) {
  // Poll-free: wait on each in turn would serialize; instead register this
  // actor as a waiter on every active request and block until one fires.
  // Request spans are zeroed at completion, so capture them up front: the
  // MpiWait End arg names the request that unblocked the wait.
  std::vector<obs::SpanId> entry_spans(reqs.size(), 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].valid()) entry_spans[i] = reqs[i].req_->span;
  }
  const obs::SpanId sp = span_begin(obs::Cat::MpiWait);
  tx_.enter_progress();
  for (;;) {
    int active = -1;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid()) continue;
      active = static_cast<int>(i);
      if (reqs[i].req_->completed) {
        if (st != nullptr) *st = localized(reqs[i].req_->status);
        tx_.release(reqs[i].req_);
        reqs[i].req_ = nullptr;
        tx_.leave_progress();
        span_end(obs::Cat::MpiWait, sp, 0, static_cast<std::int64_t>(entry_spans[i]));
        return static_cast<int>(i);
      }
    }
    NMX_ASSERT_MSG(active >= 0, "waitany with no active requests");
    for (Request& r : reqs) {
      if (r.valid()) r.req_->set_waiter(actor_);
    }
    actor_.block();
    // Unregister from the requests that did not fire; a completed one
    // cleared its waiter already.
    for (Request& r : reqs) {
      if (r.valid()) r.req_->waiter = nullptr;
    }
  }
}

}  // namespace nmx::mpi
