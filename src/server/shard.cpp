#include "server/shard.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace tka::server {
namespace {

/// Most queued topk reads drained into one coalesced batch.
constexpr std::size_t kCoalesceMax = 16;

/// A retaining session (what_if and any-k answers stay available) over
/// `snap`'s design.
std::unique_ptr<session::AnalysisSession> session_over(
    const session::DesignSnapshot& snap) {
  return std::make_unique<session::AnalysisSession>(
      net::Netlist(snap.netlist()), layout::Parasitics(snap.parasitics()),
      snap.model_options(), session::SessionOptions{.retain_candidates = true});
}

}  // namespace

Shard::Shard(std::string name, std::unique_ptr<net::Netlist> nl,
             layout::Parasitics par, const sta::DelayModelOptions& model_opt,
             const topk::TopkOptions& base_opt, const ShardOptions& opt)
    : name_(std::move(name)),
      base_opt_(base_opt),
      opt_(opt),
      head_(session::DesignSnapshot::make_base(std::move(*nl), std::move(par),
                                               model_opt)),
      num_couplings_(head_->parasitics().num_couplings()) {
  const int n = opt_.workers < 1 ? 1 : opt_.workers;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Shard::~Shard() { join(); }

bool Shard::submit(Request req, Respond respond) {
  if (static_cast<std::size_t>(req.k) > num_couplings_) {
    obs::registry().counter("server.responses_error").add();
    respond(make_error_response(
        req.id, ErrorCode::kBadRequest,
        str::format("'k' = %d exceeds the design's %zu couplings", req.k,
                    num_couplings_)));
    return true;
  }
  const std::int64_t now = obs::now_ns();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!accepting_ || queue_.size() >= opt_.queue_cap) return false;
    queue_.push_back(Job{std::move(req), std::move(respond), now});
    depth = queue_.size();
  }
  obs::registry().gauge("server.queue_depth." + name_)
      .set(static_cast<double>(depth));
  queue_cv_.notify_one();
  return true;
}

void Shard::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    accepting_ = false;
  }
  queue_cv_.notify_all();
}

void Shard::join() {
  begin_drain();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Drop the mode sessions so a drained shard holds only its head snapshot.
  for (ModeSession& ms : sessions_) {
    std::lock_guard<std::mutex> lock(ms.mu);
    ms.session.reset();
  }
  session::DesignSnapshot::publish_gauges();
}

std::uint64_t Shard::epoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return head_->epoch();
}

std::size_t Shard::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void Shard::worker_loop() {
  std::vector<Job> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // draining and drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (batch.front().req.op != "what_if") {
        // Coalesce the queued reads of the same mode, any k. Stop at the
        // first what_if so committed edits keep their admission-order
        // position; reads of the other mode stay queued for another
        // worker. The mode is copied out: push_back may reallocate the
        // batch under a reference.
        const topk::Mode mode = batch.front().req.mode;
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < kCoalesceMax;) {
          if (it->req.op == "what_if") break;
          if (it->req.mode != mode) {
            ++it;
            continue;
          }
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        }
      }
      obs::registry().gauge("server.queue_depth." + name_)
          .set(static_cast<double>(queue_.size()));
    }
    if (batch.size() > 1) {
      obs::registry().counter("server.coalesced_batches").add();
      obs::registry().counter("server.coalesced_reads").add(batch.size() - 1);
    }
    serve_batch(batch);
  }
}

void Shard::serve_batch(std::vector<Job>& batch) {
  const std::int64_t start = obs::now_ns();
  obs::Histogram& queue_wait = obs::registry().histogram("server.queue_wait_s");
  for (const Job& job : batch) {
    queue_wait.observe(obs::ns_to_seconds(start - job.enqueued_ns));
  }

  const bool is_what_if = batch.front().req.op == "what_if";
  std::vector<std::string> responses(batch.size());
  try {
    if (is_what_if) {
      responses.front() = serve_what_if(batch.front().req);
    } else {
      serve_reads(batch, &responses);
    }
  } catch (const std::exception& e) {
    for (Job& job : batch) {
      obs::registry().counter("server.responses_error").add();
      job.respond(
          make_error_response(job.req.id, ErrorCode::kInternal, e.what()));
    }
    return;
  }

  obs::Histogram& latency = obs::registry().histogram(
      is_what_if ? "server.latency.whatif_s" : "server.latency.topk_s");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool ok = responses[i].find("\"ok\": true") != std::string::npos;
    obs::registry()
        .counter(ok ? "server.responses_ok" : "server.responses_error")
        .add();
    latency.observe(obs::ns_to_seconds(obs::now_ns() - start));
    batch[i].respond(std::move(responses[i]));
  }
}

void Shard::serve_reads(const std::vector<Job>& batch,
                        std::vector<std::string>* responses) {
  const topk::Mode mode = batch.front().req.mode;
  std::vector<int> ks;
  for (const Job& job : batch) ks.push_back(job.req.k);
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  std::vector<std::uint64_t> epochs(ks.size());
  std::vector<std::string> extras(ks.size());
  obs::Counter& hits = obs::registry().counter("server.result_cache_hits");
  obs::Counter& misses = obs::registry().counter("server.result_cache_misses");

  // The render cache first, without the session lock: a read it answers
  // never waits behind a query running on the mode's session.
  std::vector<std::size_t> todo;
  const std::uint64_t seen = epoch();
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (cache_lookup(seen, ks[i], mode, &extras[i])) {
      hits.add();
      epochs[i] = seen;
    } else {
      todo.push_back(i);
    }
  }
  if (!todo.empty()) {
    ModeSession& ms = mode_session(mode);
    std::lock_guard<std::mutex> lock(ms.mu);
    // The head may have moved while this worker waited for the lock, and
    // another worker may have answered at it meanwhile.
    std::vector<session::WhatIfEdit> tail;
    const std::shared_ptr<const session::DesignSnapshot> head =
        pin_head(ms, &tail);
    for (std::size_t i : todo) {
      epochs[i] = head->epoch();
      if (cache_lookup(epochs[i], ks[i], mode, &extras[i])) {
        hits.add();
        continue;
      }
      misses.add();
      const topk::TopkResult result =
          advance(ms, *head, std::move(tail), nullptr, ks[i], mode);
      tail.clear();  // the session is at the head now
      extras[i] = "\"result\": " +
                  render_topk_result(ms.session->netlist(),
                                     ms.session->parasitics(), result, ks[i]);
      cache_insert(epochs[i], ks[i], mode, extras[i]);
    }
  }

  for (std::size_t j = 0; j < batch.size(); ++j) {
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(ks.begin(), ks.end(), batch[j].req.k) - ks.begin());
    (*responses)[j] = make_ok_response(batch[j].req.id, epochs[i], extras[i]);
  }
}

std::string Shard::serve_what_if(const Request& req) {
  ModeSession& ms = mode_session(req.mode);
  std::scoped_lock lock(commit_mu_, ms.mu);
  std::vector<session::WhatIfEdit> tail;
  const std::shared_ptr<const session::DesignSnapshot> snap =
      pin_head(ms, &tail);
  // A refused edit never reaches a session: ids, sizes and cells are
  // checked against the head, whose design the session reaches first.
  std::string bad;
  if (!session::check_edit(snap->netlist(), snap->parasitics(), req.edit,
                           &bad)) {
    return make_error_response(req.id, ErrorCode::kBadRequest, bad);
  }
  const topk::TopkResult result =
      advance(ms, *snap, std::move(tail), &req.edit, req.k, req.mode);
  std::uint64_t new_epoch = 0;
  {
    // Commit: publish the COW successor snapshot. It becomes visible to
    // readers only after the session applied the edit successfully, and
    // only commits (serialized on commit_mu_) move the head, so it is
    // snap's successor.
    std::lock_guard<std::mutex> state_lock(state_mu_);
    edit_log_.push_back(req.edit);
    head_ = head_->apply(req.edit);
    new_epoch = head_->epoch();
  }
  ms.epoch = new_epoch;
  obs::registry().counter("server.snapshot_publishes").add();
  return make_ok_response(
      req.id, new_epoch,
      "\"result\": " + render_topk_result(ms.session->netlist(),
                                          ms.session->parasitics(), result,
                                          req.k));
}

Shard::ModeSession& Shard::mode_session(topk::Mode mode) {
  return sessions_[mode == topk::Mode::kAddition ? 1 : 0];
}

std::shared_ptr<const session::DesignSnapshot> Shard::pin_head(
    const ModeSession& ms, std::vector<session::WhatIfEdit>* tail) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (ms.session != nullptr) {
    tail->assign(edit_log_.begin() + static_cast<std::ptrdiff_t>(ms.epoch),
                 edit_log_.end());
  }
  return head_;
}

topk::TopkResult Shard::advance(ModeSession& ms,
                                const session::DesignSnapshot& head,
                                std::vector<session::WhatIfEdit> tail,
                                const session::WhatIfEdit* edit, int k,
                                topk::Mode mode) {
  obs::MetricsRegistry& reg = obs::registry();
  try {
    if (ms.session == nullptr) {
      reg.counter("server.session_rebuilds").add();
      topk::TopkOptions opt = base_opt_;
      opt.k = k;
      opt.mode = mode;
      opt.threads = opt_.query_threads;
      ms.session = session_over(head);
      ms.epoch = head.epoch();
      topk::TopkResult primed = ms.session->run(opt);
      if (edit == nullptr) return primed;
    } else if (!tail.empty()) {
      reg.counter("server.session_rebases").add();
      reg.counter("server.replayed_edits").add(tail.size());
    }
    if (edit != nullptr) tail.push_back(*edit);
    topk::TopkResult result = ms.session->what_if(tail, k);
    ms.epoch = head.epoch();
    return result;
  } catch (...) {
    // The session may hold a half-applied batch: its next use re-primes.
    ms.session.reset();
    throw;
  }
}

bool Shard::cache_lookup(std::uint64_t epoch, int k, topk::Mode mode,
                         std::string* extra) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const CacheEntry& e : result_cache_) {
    if (e.epoch == epoch && e.k == k && e.mode == mode) {
      *extra = e.extra;
      return true;
    }
  }
  return false;
}

void Shard::cache_insert(std::uint64_t epoch, int k, topk::Mode mode,
                         std::string extra) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const CacheEntry& e : result_cache_) {
    if (e.epoch == epoch && e.k == k && e.mode == mode) return;  // racer won
  }
  result_cache_.push_back(CacheEntry{epoch, k, mode, std::move(extra)});
  while (result_cache_.size() > opt_.result_cache_cap) {
    result_cache_.pop_front();
  }
}

}  // namespace tka::server
