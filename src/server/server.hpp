// The `tka serve` daemon core: listeners, connection handling, dispatch
// (docs/SERVER.md).
//
// Designs load once into a registry of per-design Shards (each a worker
// pool over a copy-on-write snapshot chain); queries from any number of
// connections fan into the shards' bounded queues. The server owns only
// transport and routing — consistency and admission live in Shard.
//
// Connections are thread-per-connection (the expensive part of a request is
// the analysis, not the socket), frames are length-prefixed JSON
// (server/frame.hpp), and responses may interleave across a connection in
// completion order — clients match on the echoed request id.
//
// Shutdown: request_shutdown() (idempotent, signal-safe caller side) stops
// the listeners, flips every new query to the typed `draining` error,
// drains the shard queues, then unblocks and joins the connection threads.
// In-flight queries always get their response before the socket closes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/shard.hpp"
#include "server/socket_util.hpp"

namespace tka::server {

struct ServerOptions {
  /// TCP listener on 127.0.0.1 (0 = ephemeral, -1 = no TCP listener).
  int tcp_port = -1;
  /// Unix-domain socket path ("" = no unix listener).
  std::string unix_path;
  /// Shard shape for designs loaded over the wire (`load` op); add_design
  /// callers pass their own.
  ShardOptions default_shard;
  /// Options template for `load`-ed designs' queries.
  topk::TopkOptions default_topk;
  sta::DelayModelOptions model;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a design before or after start(). Fails (returns false with
  /// *error) on a duplicate name.
  bool add_design(const std::string& name, std::unique_ptr<net::Netlist> nl,
                  layout::Parasitics par, const ShardOptions& shard_opt,
                  const topk::TopkOptions& base_opt, std::string* error);

  /// Loads a design from disk (same loaders and synthesized-parasitics
  /// fallback as the CLI) under the server's default options.
  bool load_design(const std::string& name, const std::string& netlist_path,
                   const std::string& spef_path, std::string* error);

  /// Binds the configured listeners and starts accepting. Returns false
  /// with *error when a bind fails.
  bool start(std::string* error);

  /// The bound TCP port (after start(); useful with tcp_port = 0).
  int tcp_port() const { return tcp_port_; }

  /// Graceful drain; safe to call from any thread, more than once. Returns
  /// immediately — wait() observes completion.
  void request_shutdown();

  /// Blocks until request_shutdown() was called and the drain finished.
  void wait();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    Fd fd;
    std::mutex write_mu;  ///< frames must not interleave mid-write
  };

  void accept_loop(int listen_fd);
  void connection_loop(std::shared_ptr<Connection> conn, std::uint64_t id);
  /// Parses and dispatches one frame payload. Responses go out through
  /// `conn` (possibly from a shard worker thread, later).
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void send_payload(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  std::shared_ptr<Shard> find_shard(const std::string& name);
  std::string handle_list();

  ServerOptions opt_;
  int tcp_port_ = -1;

  Fd tcp_listen_;
  Fd unix_listen_;
  std::vector<std::thread> accept_threads_;

  std::mutex designs_mu_;
  std::map<std::string, std::shared_ptr<Shard>> designs_;

  std::mutex conns_mu_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;
  std::uint64_t next_conn_id_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;
  std::condition_variable shutdown_cv_;
};

}  // namespace tka::server
