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
// Mode sessions. The shard keeps one warm, retaining AnalysisSession per
// mode, each under its own mutex and shared by every worker. A session
// holds COW copies of the design at its own epoch and answers any k there
// (AnalysisSession keeps every cardinality up to the largest k it
// answered); to serve at the head it first catches up with one batched
// what_if over the edit-log tail it has not applied, bit-identical to a
// cold run by the session contract. A mode's first use primes its session
// from COW copies of the pinned head — O(chunk table) — and so does the
// next use after a session call throws, which drops the session. The
// copies hold their chunks themselves, so a session keeps no snapshot
// alive. Commits go through their mode's session too: under the shard's
// commit mutex it applies its pending tail plus the new edit, and the head
// advances only once that succeeded.
//
// Read coalescing. When a worker pops a topk job it also drains the queued
// topk jobs of the same mode behind it, any k, stopping at the first
// what_if to preserve admission order; the batch is answered with one
// session catch-up and one answer per distinct k, then each job gets its
// own response. A small per-shard render cache keyed (epoch, k, mode) is
// checked before a read takes its mode's session lock, so repeats that
// were not queued at the same instant never wait behind a running query.
// Both are safe under the bit-identity contract: a rendered result is a
// deterministic function of (epoch, k, mode).
//
// Admission control. submit() enqueues, refuses or answers at once. A
// request whose k exceeds the design's coupling count is a typed
// `bad_request` before any session sees it: a k-set cannot hold more
// distinct couplings than the design has, and a session grown to a larger
// k would hold that memory for every later read. A full queue is the typed
// `overloaded` error, cheap to produce and immediate, so a saturated
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

  /// Enqueues a parsed topk/what_if request, or answers a k beyond the
  /// design's coupling count with bad_request at once. Returns false when
  /// the queue is full or the shard is draining — the caller renders the
  /// typed rejection itself (it knows whether the server is draining).
  bool submit(Request req, Respond respond);

  /// Stops admission. Queued queries still run to completion.
  void begin_drain();
  /// Joins the workers after the queue runs dry, then releases the mode
  /// sessions so only the head snapshot stays held. Implies begin_drain().
  void join();

  const std::string& name() const { return name_; }
  std::uint64_t epoch() const;
  std::size_t queue_depth() const;

 private:
  struct Job {
    Request req;
    Respond respond;
    std::int64_t enqueued_ns = 0;
  };

  /// One mode's warm session and the epoch of the design it holds. Every
  /// call on the session, and every read or write of either field, holds
  /// `mu`.
  struct ModeSession {
    std::mutex mu;
    std::unique_ptr<session::AnalysisSession> session;
    std::uint64_t epoch = 0;
  };

  void worker_loop();
  /// Serves a coalesced batch: topk jobs of one mode, or one what_if.
  void serve_batch(std::vector<Job>& batch);
  /// Renders the responses of a batch of topk jobs of one mode: one answer
  /// per distinct k, each from the render cache when it holds the head's,
  /// else from the mode's session caught up to the head.
  void serve_reads(const std::vector<Job>& batch,
                   std::vector<std::string>* responses);
  std::string serve_what_if(const Request& req);

  ModeSession& mode_session(topk::Mode mode);
  /// Pins the head and copies the edit-log tail `ms` has not applied (none
  /// when it has no session). Requires ms.mu.
  std::shared_ptr<const session::DesignSnapshot> pin_head(
      const ModeSession& ms, std::vector<session::WhatIfEdit>* tail) const;
  /// Brings `ms` to `head` plus `edit` (a commit's; nullptr for a read) and
  /// answers at k there. A session-less `ms` primes from the head (its
  /// `tail` is empty); any other applies `tail`, the log edits it has not,
  /// then `edit`, in one batched what_if. A throwing session call drops the
  /// session. Requires ms.mu.
  topk::TopkResult advance(ModeSession& ms,
                           const session::DesignSnapshot& head,
                           std::vector<session::WhatIfEdit> tail,
                           const session::WhatIfEdit* edit, int k,
                           topk::Mode mode);

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
  /// The design's coupling count: no k-set is larger. Edits keep it.
  const std::size_t num_couplings_;

  // Commits serialize here, then take their mode's session lock; only a
  // commit advances the head. Reads take a mode session lock alone.
  std::mutex commit_mu_;
  ModeSession sessions_[2];  // [elimination, addition]

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
