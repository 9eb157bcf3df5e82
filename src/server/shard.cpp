#include "server/shard.hpp"

#include <exception>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace tka::server {
namespace {

/// Longest edit-log tail a warm worker session catches up by what_if
/// replay; beyond it the session is rebuilt from the head.
constexpr std::size_t kMaxReplayEdits = 16;
/// Most queued topk reads drained into one coalesced batch.
constexpr std::size_t kCoalesceMax = 16;

/// A retaining session (what_if replay stays available) over `snap`'s design.
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
                                               model_opt)) {
  const int n = opt_.workers < 1 ? 1 : opt_.workers;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Shard::~Shard() { join(); }

bool Shard::submit(Request req, Respond respond) {
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
  // Workers released their sessions on exit; drop the warm writer too so a
  // drained shard holds only its head snapshot.
  {
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    writer_.reset();
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

std::shared_ptr<const session::DesignSnapshot> Shard::head() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return head_;
}

void Shard::worker_loop() {
  WorkerState ws;
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
        // Coalesce the run of compatible reads queued behind this one.
        // Stop at the first what_if (or incompatible read) so committed
        // edits keep their admission-order position. k and mode are copied
        // out: push_back may reallocate the batch under a reference.
        const int k = batch.front().req.k;
        const topk::Mode mode = batch.front().req.mode;
        while (!queue_.empty() && batch.size() < kCoalesceMax) {
          const Request& next = queue_.front().req;
          if (next.op == "what_if" || next.k != k || next.mode != mode) {
            break;
          }
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      obs::registry().gauge("server.queue_depth." + name_)
          .set(static_cast<double>(queue_.size()));
    }
    if (batch.size() > 1) {
      obs::registry().counter("server.coalesced_batches").add();
      obs::registry().counter("server.coalesced_reads").add(batch.size() - 1);
    }
    serve_batch(ws, batch);
  }
}

void Shard::serve_batch(WorkerState& ws, std::vector<Job>& batch) {
  const std::int64_t start = obs::now_ns();
  obs::Histogram& queue_wait = obs::registry().histogram("server.queue_wait_s");
  for (const Job& job : batch) {
    queue_wait.observe(obs::ns_to_seconds(start - job.enqueued_ns));
  }

  const bool is_what_if = batch.front().req.op == "what_if";
  std::uint64_t epoch = 0;
  std::string extra;   // shared "result": {...} fragment for topk batches
  std::string error;   // whole response (what_if / failure), single job
  try {
    if (is_what_if) {
      error = serve_what_if(batch.front().req, &epoch);
    } else {
      extra = topk_result_extra(ws, batch.front().req.k,
                                batch.front().req.mode, &epoch);
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
  for (Job& job : batch) {
    std::string response = is_what_if
                               ? std::move(error)
                               : make_ok_response(job.req.id, epoch, extra);
    const bool ok = response.find("\"ok\": true") != std::string::npos;
    obs::registry()
        .counter(ok ? "server.responses_ok" : "server.responses_error")
        .add();
    latency.observe(obs::ns_to_seconds(obs::now_ns() - start));
    job.respond(std::move(response));
  }
}

std::string Shard::topk_result_extra(WorkerState& ws, int k, topk::Mode mode,
                                     std::uint64_t* epoch_out) {
  // Pin the head and copy the log tail the warm session has not applied.
  std::shared_ptr<const session::DesignSnapshot> head;
  std::vector<session::WhatIfEdit> pending;
  const bool warm = ws.session != nullptr && ws.k == k && ws.mode == mode;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    head = head_;
    if (warm && ws.epoch < head_->epoch()) {
      pending.assign(
          edit_log_.begin() + static_cast<std::ptrdiff_t>(ws.epoch),
          edit_log_.end());
    }
  }
  const std::uint64_t epoch = head->epoch();
  *epoch_out = epoch;

  std::string extra;
  if (cache_lookup(epoch, k, mode, &extra)) {
    obs::registry().counter("server.result_cache_hits").add();
    return extra;
  }
  obs::registry().counter("server.result_cache_misses").add();

  topk::TopkOptions opt = base_opt_;
  opt.k = k;
  opt.mode = mode;
  opt.threads = opt_.query_threads;

  topk::TopkResult result;
  if (warm && ws.epoch == epoch) {
    // Current design, same options, cache evicted: recompute on the warm
    // session (run() is a cold query but reuses the session's storage).
    result = ws.session->run(opt);
  } else if (warm && !pending.empty() &&
             pending.size() <= kMaxReplayEdits) {
    // Warm rebase: replay the committed tail through what_if. Each replay
    // is bit-identical to a cold run at that epoch (the session contract),
    // so the final replay's result *is* the answer at the head epoch.
    obs::registry().counter("server.session_rebases").add();
    obs::registry().counter("server.replayed_edits").add(pending.size());
    for (const session::WhatIfEdit& edit : pending) {
      result = ws.session->what_if(edit);
    }
    ws.epoch = epoch;
  } else {
    // No session, k/mode change, or a tail too long to replay: rebuild
    // from the pinned head.
    obs::registry().counter("server.session_rebuilds").add();
    ws.session = session_over(*head);
    result = ws.session->run(opt);
    ws.epoch = epoch;
    ws.k = k;
    ws.mode = mode;
  }

  extra = "\"result\": " + render_topk_result(ws.session->netlist(),
                                              ws.session->parasitics(), result,
                                              k);
  cache_insert(epoch, k, mode, extra);
  return extra;
}

std::string Shard::serve_what_if(const Request& req,
                                 std::uint64_t* epoch_out) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  // A refused edit never reaches the writer: sizes and cells are checked
  // against the head, which equals the writer's design.
  const std::shared_ptr<const session::DesignSnapshot> snap = head();
  std::string bad;
  if (!session::check_edit(snap->netlist(), snap->parasitics(), req.edit,
                           &bad)) {
    *epoch_out = snap->epoch();
    return make_error_response(req.id, ErrorCode::kBadRequest, bad);
  }
  if (writer_ == nullptr || writer_k_ != req.k || writer_mode_ != req.mode) {
    // (Re)base the warm writer on the head snapshot. Only the writer
    // advances the head and only under writer_mu_, so its design equals
    // the committed state by construction.
    writer_ = session_over(*snap);
    topk::TopkOptions opt = base_opt_;
    opt.k = req.k;
    opt.mode = req.mode;
    opt.threads = opt_.query_threads;
    writer_->run(opt);  // priming query; what_if reuses these options
    writer_k_ = req.k;
    writer_mode_ = req.mode;
  }
  const topk::TopkResult result = writer_->what_if(req.edit);
  std::uint64_t new_epoch = 0;
  {
    // Commit: publish the COW successor snapshot. It becomes visible to
    // readers only after the writer applied the edit successfully.
    std::lock_guard<std::mutex> lock(state_mu_);
    edit_log_.push_back(req.edit);
    head_ = head_->apply(req.edit);
    new_epoch = head_->epoch();
  }
  obs::registry().counter("server.snapshot_publishes").add();
  *epoch_out = new_epoch;
  return make_ok_response(
      req.id, new_epoch,
      "\"result\": " + render_topk_result(writer_->netlist(),
                                          writer_->parasitics(), result,
                                          req.k));
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
