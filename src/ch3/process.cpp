#include "ch3/process.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nmx::ch3 {

using nemesis::ShmHdr;

namespace {
// Reserved context ids for the legacy netmod channel (never visible to MPI).
constexpr int kLegacyCtlContext = 0x7ffffff0;
constexpr int kLegacyDataContext = 0x7ffffff1;
// Loopback (self) delivery latency: a queue push and pop in one process.
constexpr Time kSelfLatency = 0.1_us;
// Intra-node CH3 eager/rendezvous switch (Nemesis LMT).
constexpr std::size_t kShmRdvThreshold = 64_KiB;
// Legacy mode: netmod cell payload and the CH3 eager/rdv switch for the
// network path (single-cell eager keeps the cells fixed-size).
constexpr std::size_t kLegacyCellPayload = 32000;

std::vector<std::byte> serialize_ctl(const ShmHdr& hdr, const void* payload, std::size_t len) {
  std::vector<std::byte> buf(sizeof(ShmHdr) + len);
  std::memcpy(buf.data(), &hdr, sizeof(ShmHdr));
  if (len > 0) std::memcpy(buf.data() + sizeof(ShmHdr), payload, len);
  return buf;
}
}  // namespace

Ch3Process::Ch3Process(sim::Engine& eng, net::Fabric& fabric, net::Endpoints<nmad::Core>& cores,
                       nemesis::ShmNode* shm, int rank, int local_index, Config cfg)
    : eng_(eng), fabric_(fabric), shm_(shm), rank_(rank), local_index_(local_index), cfg_(cfg) {
  cfg_.nmad.pioman_sync = cfg_.pioman;
  // §4.1.1: the CH3/netmod glue adds ~300 ns on top of NewMadeleine's own
  // generic-layer cost (1.8µs -> 2.1µs one-way).
  cfg_.nmad.sw_send += calib::kCh3SwSend;
  cfg_.nmad.sw_recv += calib::kCh3SwRecv;
  core_ = std::make_unique<nmad::Core>(eng, fabric, cores, rank, cfg_.nmad);
  core_->set_on_complete([this](nmad::Request& r) { run_nmad_completion(r); });
  core_->set_on_unexpected([this](const nmad::ProbeInfo& info) {
    if (cfg_.bypass) {
      as_probe_all();
    } else {
      legacy_on_unexpected(info);
    }
  });

  if (shm_) {
    shm_->set_deliver(local_index_,
                      [this](nemesis::Message&& m) { handle_shm_message(std::move(m)); });
    shm_->set_activity_hook(local_index_, [this] {
      if (in_progress()) {
        shm_->poll(local_index_);
      } else if (pioman_) {
        pioman_->notify();
      }
      // else: cells wait for the next MPI call — no progress without PIOMan.
    });
  }

  if (cfg_.pioman) {
    // §3.3.1: one polling authority for both intra- and inter-node traffic.
    pioman::ManagerConfig pc;
    pc.rank = rank_;
    pioman_ = std::make_unique<pioman::Manager>(eng_, pc);
    pioman_->submit("nmad-progress", [this] {
      core_->service();
      if (cfg_.bypass) as_probe_all();
      return core_->has_gated_work();
    });
    if (shm_) {
      // §3.3.2: the shared-memory mailbox counter PIOMan watches.
      pioman_->submit("shm-mailbox", [this, last = std::uint64_t(0)]() mutable {
        const std::uint64_t mb = shm_->mailbox(local_index_);
        if (mb != last) {
          last = mb;
          shm_->poll(local_index_);
        }
        return false;
      });
    }
    core_->set_async_notifier([this] { pioman_->notify(); });
  }
}

Ch3Process::~Ch3Process() = default;

// ---------------------------------------------------------------------------
// pools and nmad plumbing
// ---------------------------------------------------------------------------

MpidRequest* Ch3Process::new_request(MpidRequest::Kind kind) {
  if (free_requests_.empty()) {
    requests_.emplace_back();
  } else {
    requests_.splice(requests_.end(), free_requests_, free_requests_.begin());
    requests_.back() = MpidRequest{};  // a reused node starts fresh
  }
  auto it = std::prev(requests_.end());
  it->self = it;
  it->kind = kind;
  return &*it;
}

Ch3Process::NmCtx* Ch3Process::new_ctx(std::function<void(nmad::Request&)> fn) {
  if (free_ctxs_.empty()) {
    nm_ctxs_.emplace_back();
  } else {
    nm_ctxs_.splice(nm_ctxs_.end(), free_ctxs_, free_ctxs_.begin());
  }
  auto it = std::prev(nm_ctxs_.end());
  it->self = it;
  it->fn = std::move(fn);
  return &*it;
}

void Ch3Process::run_nmad_completion(nmad::Request& r) {
  auto* ctx = static_cast<NmCtx*>(r.user_ctx);
  NMX_ASSERT_MSG(ctx != nullptr, "nmad request without completion context");
  auto fn = std::move(ctx->fn);
  free_ctxs_.splice(free_ctxs_.begin(), nm_ctxs_, ctx->self);
  fn(r);
}

nmad::Request* Ch3Process::nm_isend(int dst, nmad::Tag tag, const void* buf, std::size_t len,
                                    std::function<void(nmad::Request&)> done, obs::SpanId span) {
  return core_->isend(dst, tag, buf, len, new_ctx(std::move(done)), span);
}

nmad::Request* Ch3Process::nm_irecv(int src, nmad::Tag tag, void* buf, std::size_t len,
                                    std::function<void(nmad::Request&)> done, obs::SpanId span) {
  return core_->irecv(src, tag, buf, len, new_ctx(std::move(done)), span);
}

// ---------------------------------------------------------------------------
// completion helpers
// ---------------------------------------------------------------------------

void Ch3Process::finish(MpidRequest* req) {
  if (req->via_any_source) {
    // §4.1.1: the any-source management adds a constant ~300 ns.
    eng_.schedule_in_checked(calib::kAnySourceOverhead, [req] { req->complete_and_wake(); });
  } else {
    req->complete_and_wake();
  }
}

void Ch3Process::complete_recv(MpidRequest* req, int src, int tag, std::size_t count,
                               obs::SpanId sender_span) {
  req->status.source = src;
  req->status.tag = tag;
  req->status.count = count;
  if (obs::Recorder* rec = eng_.recorder()) {
    // Match link for the critical-path analyzer: receiver's span -> the
    // sender's span that satisfied it (0 when the path cannot know it).
    if (req->span != 0 && sender_span != 0) {
      rec->link(eng_.now(), rank_, obs::Cat::MsgMatch, req->span, count,
                static_cast<std::int64_t>(sender_span));
    }
    rec->end(eng_.now(), rank_, obs::Cat::MsgRecv, req->span, count, src);
    req->span = 0;
  }
  finish(req);
}

void Ch3Process::complete_send(MpidRequest* req) {
  req->status.count = req->len;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->end(eng_.now(), rank_, obs::Cat::MsgSend, req->span, req->len, req->peer);
    req->span = 0;
  }
  finish(req);
}

// ---------------------------------------------------------------------------
// CH3 queue pair
// ---------------------------------------------------------------------------

MpidRequest* Ch3Process::match_posted(int src, int tag, int context) {
  for (MpidRequest* r : posted_queue_) {
    if (mpi::envelope_matches(r->peer, r->tag, r->context, src, tag, context)) return r;
  }
  return nullptr;
}

void Ch3Process::push_posted(MpidRequest* req) {
  posted_queue_.push_back(req);
  req->posted_it = std::prev(posted_queue_.end());
  req->in_posted_queue = true;
}

void Ch3Process::remove_posted(MpidRequest* req) {
  if (!req->in_posted_queue) return;
  posted_queue_.erase(req->posted_it);
  req->in_posted_queue = false;
}

bool Ch3Process::match_unexpected(MpidRequest* req) {
  auto it = std::find_if(unexpected_.begin(), unexpected_.end(), [req](const UnexMsg& m) {
    return mpi::envelope_matches(req->peer, req->tag, req->context, m.src, m.tag, m.context);
  });
  if (it == unexpected_.end()) return false;
  UnexMsg msg = std::move(*it);
  unexpected_.erase(it);
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().gauge("ch3.unexpected.depth").set(static_cast<double>(unexpected_.size()));
  }
  accept(req, std::move(msg));
  return true;
}

void Ch3Process::deliver_local(UnexMsg msg) {
  MpidRequest* req = match_posted(msg.src, msg.tag, msg.context);
  if (req == nullptr) {
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->instant(eng_.now(), rank_, obs::Cat::Unexpected, msg.len, msg.src);
      rec->metrics()
          .gauge("ch3.unexpected.depth")
          .set(static_cast<double>(unexpected_.size() + 1));
    }
    unexpected_.push_back(std::move(msg));
    return;
  }
  remove_posted(req);
  if (req->peer == mpi::ANY_SOURCE && cfg_.bypass && !as_lists_.empty()) {
    // §3.2.2: an intra-node match removes the any-source entry and releases
    // the requests queued behind it.
    as_lists_.resolve(req, [this](MpidRequest* r) { release_deferred(r); });
  }
  accept(req, std::move(msg));
}

void Ch3Process::accept(MpidRequest* req, UnexMsg&& msg) {
  switch (msg.kind) {
    case UnexMsg::Kind::Eager:
      NMX_ASSERT_MSG(msg.payload.size() <= req->len, "message overflows receive buffer");
      if (!msg.payload.empty()) std::memcpy(req->rbuf, msg.payload.data(), msg.payload.size());
      complete_recv(req, msg.src, msg.tag, msg.payload.size(), msg.span);
      break;
    case UnexMsg::Kind::ShmRdv: {
      NMX_ASSERT(msg.len <= req->len);
      shm_rdv_in_.emplace(std::make_pair(msg.src, msg.rdv_id), req);
      nemesis::Message m;
      m.src_local = local_index_;
      m.header.kind = ShmHdr::Kind::Cts;
      m.header.src_rank = rank_;
      m.header.tag = msg.tag;
      m.header.context = msg.context;
      m.header.rdv_id = msg.rdv_id;
      shm_->send(fabric_.topology().local_index(msg.src), std::move(m));
      break;
    }
    case UnexMsg::Kind::NetRdv:
      legacy_grant(msg.src, msg.tag, msg.rdv_id, req);
      break;
  }
}

Ch3Process::UnexMsg Ch3Process::arrival(const ShmHdr& hdr, UnexMsg::Kind rdv,
                                        std::vector<std::byte> payload) {
  NMX_ASSERT(hdr.kind == ShmHdr::Kind::Eager || hdr.kind == ShmHdr::Kind::Rts);
  return UnexMsg{hdr.kind == ShmHdr::Kind::Eager ? UnexMsg::Kind::Eager : rdv,
                 hdr.src_rank, hdr.tag, hdr.context, hdr.rdv_id, hdr.len, hdr.span,
                 std::move(payload)};
}

// ---------------------------------------------------------------------------
// Transport: isend / irecv
// ---------------------------------------------------------------------------

mpi::TxRequest* Ch3Process::isend(int dst, int tag, int context, const void* buf,
                                  std::size_t len) {
  NMX_ASSERT(dst >= 0 && dst < fabric_.topology().num_procs());
  NMX_ASSERT(tag >= 0 && context >= 0 && context < kLegacyCtlContext);
  MpidRequest* req = new_request(MpidRequest::Kind::Send);
  req->peer = dst;
  req->tag = tag;
  req->context = context;
  req->len = len;
  if (obs::Recorder* rec = eng_.recorder()) {
    req->span = rec->begin(eng_.now(), rank_, obs::Cat::MsgSend, len, dst);
  }
  switch (route(dst)) {
    case Route::Self:
      send_self(req, buf, len);
      break;
    case Route::Shm:
      send_shm(req, buf, len);
      break;
    case Route::Nmad:
      // The paper's modification: MPID_Send on a remote VC goes straight to
      // nm_sr_isend, skipping Nemesis and the CH3 protocols.
      send_nmad_direct(req, buf, len);
      break;
    case Route::Legacy:
      send_legacy(req, buf, len);
      break;
  }
  return req;
}

mpi::TxRequest* Ch3Process::irecv(int src, int tag, int context, void* buf, std::size_t len) {
  MpidRequest* req = new_request(MpidRequest::Kind::Recv);
  req->peer = src;
  req->tag = tag;
  req->context = context;
  req->rbuf = static_cast<std::byte*>(buf);
  req->len = len;
  if (obs::Recorder* rec = eng_.recorder()) {
    req->span = rec->begin(eng_.now(), rank_, obs::Cat::MsgRecv, len, src);
  }

  const bool any_source = src == mpi::ANY_SOURCE;
  if (any_source || route(src) != Route::Nmad) {
    if (match_unexpected(req)) return req;
    push_posted(req);  // eligible for self / shared-memory / legacy matching
    if (any_source && cfg_.bypass) {
      as_lists_.add_any_source(req);
      as_probe_all();  // the message may already sit in nmad's buffers
    }
    return req;
  }

  if (tag == mpi::ANY_TAG) {
    // Known remote source but wildcard tag: NewMadeleine's exact matching
    // cannot serve it — park it in the wildcard lists like an any-source
    // request and create the NewMadeleine request once a message is known
    // to be there.
    if (match_unexpected(req)) return req;
    as_lists_.add_any_source(req);
    as_probe_all();
    return req;
  }

  // Known remote source on the bypass path: NewMadeleine does the matching —
  // unless an earlier wildcard request forces ordering (§3.2.2).
  if (as_lists_.blocks(context, tag)) {
    as_lists_.defer(req);
    return req;
  }
  post_remote_recv(req);
  return req;
}

Ch3Process::Route Ch3Process::route(int peer) const {
  if (peer == rank_) return Route::Self;
  if (fabric_.topology().same_node(rank_, peer)) return Route::Shm;
  return cfg_.bypass ? Route::Nmad : Route::Legacy;
}

void Ch3Process::post_remote_recv(MpidRequest* req) {
  req->nmad_req = nm_irecv(
      req->peer, pack_tag(req->context, req->tag), req->rbuf, req->len,
      [this, req](nmad::Request& nr) {
        complete_recv(req, nr.peer, unpack_user_tag(nr.tag), nr.received, nr.peer_span);
      },
      req->span);
}

void Ch3Process::release_deferred(MpidRequest* req) {
  if (as_lists_.blocks(req->context, req->tag)) {
    as_lists_.defer(req);  // still blocked (e.g. a wildcard-tag any-source)
    return;
  }
  post_remote_recv(req);
}

void Ch3Process::as_probe_all() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (MpidRequest* head : as_lists_.heads()) {
      const std::optional<int> src_filter =
          head->peer == mpi::ANY_SOURCE ? std::nullopt : std::optional<int>(head->peer);
      auto found = core_->probe(src_filter, selector_for(head->context, head->tag));
      if (found) {
        bind_any_source(head, *found);
        progressed = true;
        break;  // heads changed — restart the scan
      }
    }
  }
}

void Ch3Process::bind_any_source(MpidRequest* req, const nmad::ProbeInfo& found) {
  // The message sits in NewMadeleine's buffers: create the NewMadeleine
  // request dynamically; "it will be completed shortly after its creation".
  remove_posted(req);  // no longer eligible for shared-memory matching
  req->via_any_source = true;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().counter("ch3.anysource.binds").add(1);
  }
  req->nmad_req = nm_irecv(
      found.src, found.tag, req->rbuf, req->len,
      [this, req](nmad::Request& nr) {
        complete_recv(req, nr.peer, unpack_user_tag(nr.tag), nr.received, nr.peer_span);
      },
      req->span);
  // Now remove the entry and release the deferred requests behind it. Done
  // after binding so none of them can steal the probed message.
  as_lists_.resolve(req, [this](MpidRequest* r) { release_deferred(r); });
}

void Ch3Process::release(mpi::TxRequest* r) {
  auto* req = static_cast<MpidRequest*>(r);
  NMX_ASSERT_MSG(req->completed, "releasing an incomplete request");
  if (req->nmad_req != nullptr) {
    NMX_ASSERT(req->nmad_req->completed);
    core_->release(req->nmad_req);
  }
  free_requests_.splice(free_requests_.begin(), requests_, req->self);
}

// ---------------------------------------------------------------------------
// send paths
// ---------------------------------------------------------------------------

void Ch3Process::send_self(MpidRequest* req, const void* buf, std::size_t len) {
  const auto* bytes = static_cast<const std::byte*>(buf);
  UnexMsg msg{UnexMsg::Kind::Eager, rank_, req->tag, req->context, 0, len, req->span,
              {bytes, bytes + len}};
  eng_.schedule_in_checked(kSelfLatency, [this, msg = std::move(msg)]() mutable {
    deliver_local(std::move(msg));
  });
  complete_send(req);  // buffered
}

void Ch3Process::send_shm(MpidRequest* req, const void* buf, std::size_t len) {
  NMX_ASSERT_MSG(shm_ != nullptr, "same-node send without a shared-memory region");
  nemesis::Message m;
  m.src_local = local_index_;
  m.header.src_rank = rank_;
  m.header.tag = req->tag;
  m.header.context = req->context;
  m.header.len = len;
  m.header.span = req->span;
  const auto* bytes = static_cast<const std::byte*>(buf);
  const bool eager = len <= kShmRdvThreshold;
  if (eager) {
    m.header.kind = ShmHdr::Kind::Eager;
    m.payload.assign(bytes, bytes + len);
  } else {
    // CH3 shared-memory rendezvous (the left half of Figure 2).
    m.header.kind = ShmHdr::Kind::Rts;
    m.header.rdv_id = next_shm_rdv_++;
    shm_rdv_out_.emplace(m.header.rdv_id, ShmRdvOut{req, bytes, len, req->peer});
  }
  shm_->send(fabric_.topology().local_index(req->peer), std::move(m));
  if (eager) complete_send(req);  // copied into the message — buffer reusable
}

void Ch3Process::send_nmad_direct(MpidRequest* req, const void* buf, std::size_t len) {
  req->nmad_req = nm_isend(
      req->peer, pack_tag(req->context, req->tag), buf, len,
      [this, req](nmad::Request&) { complete_send(req); }, req->span);
}

// ---------------------------------------------------------------------------
// shared-memory channel
// ---------------------------------------------------------------------------

void Ch3Process::handle_shm_message(nemesis::Message&& m) {
  if (cfg_.pioman) {
    // §4.1.2: the thread-safe progression machinery costs ~450 ns per
    // shared-memory message.
    eng_.schedule_in_checked(calib::kPiomanShmOverhead,
                             [this, hdr = m.header, payload = std::move(m.payload)]() mutable {
                               process_shm(hdr, std::move(payload));
                             });
  } else {
    process_shm(m.header, std::move(m.payload));
  }
}

void Ch3Process::process_shm(const ShmHdr& hdr, std::vector<std::byte> payload) {
  switch (hdr.kind) {
    case ShmHdr::Kind::Eager:
    case ShmHdr::Kind::Rts:
      deliver_local(arrival(hdr, UnexMsg::Kind::ShmRdv, std::move(payload)));
      break;
    case ShmHdr::Kind::Cts: {
      auto it = shm_rdv_out_.find(hdr.rdv_id);
      NMX_ASSERT_MSG(it != shm_rdv_out_.end(), "shm CTS for unknown rendezvous");
      const ShmRdvOut out = it->second;
      shm_rdv_out_.erase(it);
      nemesis::Message m;
      m.src_local = local_index_;
      m.header.kind = ShmHdr::Kind::Data;
      m.header.src_rank = rank_;
      m.header.tag = out.req->tag;
      m.header.context = out.req->context;
      m.header.rdv_id = hdr.rdv_id;
      m.header.len = out.len;
      m.header.span = out.req->span;
      // The one sender-side copy, made while the send is still incomplete
      // (see ShmRdvOut); from here on the user may reuse the buffer.
      m.payload.assign(out.buf, out.buf + out.len);
      shm_->send(fabric_.topology().local_index(out.dst), std::move(m));
      complete_send(out.req);
      break;
    }
    case ShmHdr::Kind::Data: {
      auto it = shm_rdv_in_.find({hdr.src_rank, hdr.rdv_id});
      NMX_ASSERT_MSG(it != shm_rdv_in_.end(), "shm DATA without matching grant");
      MpidRequest* req = it->second;
      shm_rdv_in_.erase(it);
      NMX_ASSERT(payload.size() <= req->len);
      if (!payload.empty()) std::memcpy(req->rbuf, payload.data(), payload.size());
      complete_recv(req, hdr.src_rank, hdr.tag, payload.size(), hdr.span);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// legacy netmod path (bypass = false): CH3 protocols over NewMadeleine used
// as a dumb channel — copies through fixed cells, nested rendezvous.
// ---------------------------------------------------------------------------

void Ch3Process::send_legacy(MpidRequest* req, const void* buf, std::size_t len) {
  ShmHdr hdr;
  hdr.src_rank = rank_;
  hdr.tag = req->tag;
  hdr.context = req->context;
  hdr.len = len;
  hdr.span = req->span;
  if (len <= kLegacyCellPayload) {
    hdr.kind = ShmHdr::Kind::Eager;
    auto cell = serialize_ctl(hdr, buf, len);
    nm_isend(req->peer, pack_tag(kLegacyCtlContext, 0), cell.data(), cell.size(),
             [this, req](nmad::Request& nr) {
               complete_send(req);
               eng_.schedule_checked(eng_.now(), [this, pr = &nr] { core_->release(pr); });
             });
  } else {
    // CH3 network rendezvous — whose DATA message will trigger
    // NewMadeleine's own internal rendezvous: the nested handshake of Fig 2.
    hdr.kind = ShmHdr::Kind::Rts;
    hdr.rdv_id = next_net_rdv_++;
    net_rdv_out_.emplace(hdr.rdv_id, std::make_pair(req, buf));
    legacy_send_ctl(req->peer, hdr);
  }
}

void Ch3Process::legacy_on_unexpected(const nmad::ProbeInfo& info) {
  if (unpack_context(info.tag) == kLegacyCtlContext) legacy_fetch_ctl(info);
  // Data-context messages are never unexpected: the receive is posted
  // before the CH3 CTS that triggers them.
}

void Ch3Process::legacy_fetch_ctl(const nmad::ProbeInfo& info) {
  // Dequeue the cell: receive it into a bounce buffer, then parse. The
  // extra copy is the §2.1.3 "unnecessary copies in and from the queue
  // cells" penalty of the non-bypassed design.
  auto cell = std::make_shared<std::vector<std::byte>>(sizeof(ShmHdr) + kLegacyCellPayload);
  const int src = info.src;
  nm_irecv(src, info.tag, cell->data(), cell->size(),
           [this, cell, src](nmad::Request& nr) {
             const std::size_t got = nr.received;
             eng_.schedule_in_checked(calib::copy_cost(got), [this, cell, src, got] {
               legacy_process_ctl(src, std::move(*cell), got);
             });
             eng_.schedule_checked(eng_.now(), [this, pr = &nr] { core_->release(pr); });
           });
}

void Ch3Process::legacy_process_ctl(int src, std::vector<std::byte> cell, std::size_t len) {
  NMX_ASSERT(len >= sizeof(ShmHdr));
  ShmHdr hdr;
  std::memcpy(&hdr, cell.data(), sizeof(ShmHdr));
  switch (hdr.kind) {
    case ShmHdr::Kind::Eager:
    case ShmHdr::Kind::Rts:
      deliver_local(arrival(hdr, UnexMsg::Kind::NetRdv,
                            {cell.begin() + sizeof(ShmHdr),
                             cell.begin() + static_cast<std::ptrdiff_t>(len)}));
      break;
    case ShmHdr::Kind::Cts: {
      auto it = net_rdv_out_.find(hdr.rdv_id);
      NMX_ASSERT_MSG(it != net_rdv_out_.end(), "legacy CTS for unknown rendezvous");
      auto [req, buf] = it->second;
      net_rdv_out_.erase(it);
      nm_isend(src, pack_tag(kLegacyDataContext, static_cast<int>(hdr.rdv_id & 0x7fffffff)),
               buf, req->len,
               [this, req](nmad::Request&) { complete_send(req); });
      break;
    }
    case ShmHdr::Kind::Data:
      NMX_FAIL("legacy DATA must not arrive on the control channel");
  }
}

void Ch3Process::legacy_grant(int src, int tag, std::uint64_t rdv_id, MpidRequest* req) {
  // Post the data receive *before* granting, so the DATA message (and the
  // internal NewMadeleine rendezvous underneath it) finds it posted.
  nm_irecv(src, pack_tag(kLegacyDataContext, static_cast<int>(rdv_id & 0x7fffffff)), req->rbuf,
           req->len, [this, req, src, tag](nmad::Request& nr) {
             complete_recv(req, src, tag, nr.received, nr.peer_span);
             eng_.schedule_checked(eng_.now(), [this, pr = &nr] { core_->release(pr); });
           });
  ShmHdr cts;
  cts.kind = ShmHdr::Kind::Cts;
  cts.src_rank = rank_;
  cts.rdv_id = rdv_id;
  legacy_send_ctl(src, cts);
}

void Ch3Process::legacy_send_ctl(int dst, const ShmHdr& hdr) {
  auto cell = serialize_ctl(hdr, nullptr, 0);
  nm_isend(dst, pack_tag(kLegacyCtlContext, 0), cell.data(), cell.size(),
           [this](nmad::Request& nr) {
             eng_.schedule_checked(eng_.now(), [this, pr = &nr] { core_->release(pr); });
           });
}

// ---------------------------------------------------------------------------
// progress
// ---------------------------------------------------------------------------

std::optional<mpi::Status> Ch3Process::iprobe(int src, int tag, int context) {
  enter_progress();
  leave_progress();
  // CH3-matched traffic (shared memory, self, legacy network).
  for (const UnexMsg& m : unexpected_) {
    if (!mpi::envelope_matches(src, tag, context, m.src, m.tag, m.context)) continue;
    mpi::Status st;
    st.source = m.src;
    st.tag = m.tag;
    st.count = m.len;
    return st;
  }
  // NewMadeleine's buffers (bypass path).
  if (cfg_.bypass) {
    const std::optional<int> src_filter =
        src == mpi::ANY_SOURCE ? std::nullopt : std::optional<int>(src);
    if (auto found = core_->probe(src_filter, selector_for(context, tag))) {
      mpi::Status st;
      st.source = found->src;
      st.tag = unpack_user_tag(found->tag);
      st.count = found->len;
      return st;
    }
  }
  return std::nullopt;
}

void Ch3Process::enter_progress() {
  ++depth_;
  if (depth_ == 1) {
    core_->enter_progress();
  } else {
    core_->progress();
  }
  if (shm_) shm_->poll(local_index_);
  if (cfg_.bypass) as_probe_all();
}

void Ch3Process::leave_progress() {
  NMX_ASSERT(depth_ > 0);
  if (--depth_ == 0) core_->leave_progress();
}

}  // namespace nmx::ch3
