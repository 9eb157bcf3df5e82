// One design's serving state inside `tka serve`: a bounded query queue, a
// small worker pool, and the snapshot chain that keeps concurrent queries
// consistent with committed what-if edits (docs/SERVER.md).
//
// Consistency model. The design's committed state is an epoch-stamped
// chain of immutable, refcounted DesignSnapshots plus the append-only edit
// log that produced it; epoch E means "the base with the first E edits
// applied". The shard publishes the newest snapshot as `head_`; a worker
// pins the head (a shared_ptr copy) for the duration of a job. A what_if
// commit produces the next snapshot by copy-on-write — only the storage
// chunks the edit touches are cloned, the rest is structurally shared —
// so the chain costs O(design + edits) memory no matter how many workers
// serve it.
//
// Worker sessions are warm: a session whose last query matched the
// request's k/mode catches up to the head by replaying the pending edit-
// log tail through AnalysisSession::what_if (bit-identical to a cold run
// by the session contract), keeping every cache it built. Only a k/mode
// change or a long tail falls back to rebuilding from COW copies of the
// pinned head — O(chunk table). The copies hold their chunks themselves,
// so an idle session keeps no snapshot alive.
//
// Read coalescing. When a worker pops a topk job it also drains the
// compatible run of queued topk jobs behind it (same k and mode, stopping
// at the first what_if to preserve admission order); the batch is answered
// with one session catch-up and one sweep-graph drain, then each job gets
// its own response. A small per-shard render cache keyed (epoch, k, mode)
// short-circuits repeats that were not queued at the same instant. Both
// are safe under the bit-identity contract: a rendered result is a
// deterministic function of (epoch, k, mode).
//
// Admission control. submit() enqueues or refuses: a full queue is the
// typed `overloaded` error, cheap to produce and immediate, so a saturated
// server sheds load at the door instead of growing an unbounded backlog.
// Draining flips accepting_ off; queued work still completes, then workers
// exit and join() returns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "session/analysis_session.hpp"
#include "session/design_snapshot.hpp"

namespace tka::server {

struct ShardOptions {
  /// Worker threads serving queries for this design.
  int workers = 1;
  /// Bounded queue capacity; a submit() beyond it is refused (overloaded).
  std::size_t queue_cap = 32;
  /// TopkOptions::threads inside each served query (1 = serial query;
  /// concurrency comes from workers and shards, not intra-query threads).
  int query_threads = 1;
  /// Rendered results cached per shard, keyed (epoch, k, mode).
  std::size_t result_cache_cap = 8;
};

class Shard {
 public:
  /// Takes ownership of the design. `base_opt` is the options template for
  /// every query (beam caps, tolerances...); requests override k and mode.
  /// The cell library referenced by `nl` must outlive the shard.
  Shard(std::string name, std::unique_ptr<net::Netlist> nl,
        layout::Parasitics par, const sta::DelayModelOptions& model_opt,
        const topk::TopkOptions& base_opt, const ShardOptions& opt);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Delivers the complete response payload (JSON text, unframed).
  using Respond = std::function<void(std::string)>;

  /// Enqueues a parsed topk/what_if request. Returns false when the queue
  /// is full or the shard is draining — the caller renders the typed
  /// rejection itself (it knows whether the server is draining).
  bool submit(Request req, Respond respond);

  /// Stops admission. Queued queries still run to completion.
  void begin_drain();
  /// Joins the workers after the queue runs dry, then releases the warm
  /// writer so only the head snapshot stays held. Implies begin_drain().
  void join();

  const std::string& name() const { return name_; }
  std::uint64_t epoch() const;
  std::size_t queue_depth() const;
  /// The current head snapshot (pins it for the caller).
  std::shared_ptr<const session::DesignSnapshot> head() const;

 private:
  struct Job {
    Request req;
    Respond respond;
    std::int64_t enqueued_ns = 0;
  };

  /// A worker's warm session state. The session holds COW copies of the
  /// design it was built from and advances past it via what_if replay;
  /// `epoch`/`k`/`mode` describe the design state and options of its last
  /// completed query.
  struct WorkerState {
    std::unique_ptr<session::AnalysisSession> session;
    std::uint64_t epoch = 0;
    int k = 0;
    topk::Mode mode = topk::Mode::kElimination;
  };

  void worker_loop();
  /// Serves a coalesced batch of topk jobs (size 1 for what_if).
  void serve_batch(WorkerState& ws, std::vector<Job>& batch);
  /// Computes (or fetches from the render cache) the `"result": {...}`
  /// payload fragment for a topk read at the current head epoch.
  std::string topk_result_extra(WorkerState& ws, int k, topk::Mode mode,
                                std::uint64_t* epoch_out);
  std::string serve_what_if(const Request& req, std::uint64_t* epoch_out);

  bool cache_lookup(std::uint64_t epoch, int k, topk::Mode mode,
                    std::string* extra);
  void cache_insert(std::uint64_t epoch, int k, topk::Mode mode,
                    std::string extra);

  const std::string name_;
  const topk::TopkOptions base_opt_;
  const ShardOptions opt_;

  // Committed state: the snapshot chain head plus the edit log that
  // produced it (head_->epoch() == edit_log_.size(), both under state_mu_;
  // appends may reallocate the log vector).
  mutable std::mutex state_mu_;
  std::shared_ptr<const session::DesignSnapshot> head_;
  std::vector<session::WhatIfEdit> edit_log_;

  // The warm incremental writer; all what_if commits serialize on it. Its
  // design always equals the head (every commit goes through it).
  std::mutex writer_mu_;
  std::unique_ptr<session::AnalysisSession> writer_;
  int writer_k_ = 0;
  topk::Mode writer_mode_ = topk::Mode::kElimination;

  // Rendered-result cache, keyed (epoch, k, mode); FIFO-bounded.
  struct CacheEntry {
    std::uint64_t epoch = 0;
    int k = 0;
    topk::Mode mode = topk::Mode::kElimination;
    std::string extra;
  };
  std::mutex cache_mu_;
  std::deque<CacheEntry> result_cache_;

  // Bounded queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool accepting_ = true;

  std::vector<std::thread> workers_;
};

}  // namespace tka::server
