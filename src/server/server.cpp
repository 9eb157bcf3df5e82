#include "server/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <exception>
#include <utility>

#include "io/design_loader.hpp"
#include "obs/metrics.hpp"
#include "server/frame.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace tka::server {

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {}

Server::~Server() {
  request_shutdown();
  wait();
}

bool Server::add_design(const std::string& name,
                        std::unique_ptr<net::Netlist> nl,
                        layout::Parasitics par, const ShardOptions& shard_opt,
                        const topk::TopkOptions& base_opt,
                        std::string* error) {
  auto shard = std::make_shared<Shard>(name, std::move(nl), std::move(par),
                                       opt_.model, base_opt, shard_opt);
  std::lock_guard<std::mutex> lock(designs_mu_);
  if (!designs_.emplace(name, std::move(shard)).second) {
    if (error != nullptr) *error = "design '" + name + "' already loaded";
    return false;
  }
  return true;
}

bool Server::load_design(const std::string& name,
                         const std::string& netlist_path,
                         const std::string& spef_path, std::string* error) {
  try {
    io::LoadedDesign d = io::load_design(netlist_path, spef_path);
    return add_design(name, std::move(d.netlist), std::move(d.parasitics),
                      opt_.default_shard, opt_.default_topk, error);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

bool Server::start(std::string* error) {
  if (opt_.tcp_port >= 0) {
    tcp_listen_ = listen_tcp(opt_.tcp_port, &tcp_port_, error);
    if (!tcp_listen_.valid()) return false;
  }
  if (!opt_.unix_path.empty()) {
    unix_listen_ = listen_unix(opt_.unix_path, error);
    if (!unix_listen_.valid()) return false;
  }
  if (!tcp_listen_.valid() && !unix_listen_.valid()) {
    if (error != nullptr) *error = "no listener configured (tcp or unix)";
    return false;
  }
  started_.store(true, std::memory_order_release);
  if (tcp_listen_.valid()) {
    accept_threads_.emplace_back(
        [this, fd = tcp_listen_.get()] { accept_loop(fd); });
  }
  if (unix_listen_.valid()) {
    accept_threads_.emplace_back(
        [this, fd = unix_listen_.get()] { accept_loop(fd); });
  }
  return true;
}

void Server::accept_loop(int listen_fd) {
  while (!draining()) {
    const int raw = ::accept(listen_fd, nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (drain) or fatal
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = Fd(raw);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (draining()) return;  // raced request_shutdown; drop the socket
    const std::uint64_t id = next_conn_id_++;
    conns_.emplace(id, conn);
    conn_threads_.emplace_back(
        [this, conn, id] { connection_loop(conn, id); });
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn,
                             std::uint64_t id) {
  obs::Gauge& connections = obs::registry().gauge("server.connections");
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    connections.set(static_cast<double>(conns_.size()));
  }
  FrameDecoder decoder;
  std::string payload;
  char buf[65536];
  bool eof = false;
  while (!eof) {
    const long n = read_some(conn->fd.get(), buf, sizeof(buf));
    if (n <= 0) {
      eof = true;
      if (n == 0 && decoder.finish() == FrameDecoder::Status::kError) {
        send_payload(conn, make_error_response(0, ErrorCode::kParseError,
                                               decoder.error()));
      }
      break;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
    FrameDecoder::Status st;
    while ((st = decoder.next(&payload)) == FrameDecoder::Status::kFrame) {
      handle_frame(conn, payload);
    }
    if (st == FrameDecoder::Status::kError) {
      // Framing is unrecoverable: report once, then hang up.
      send_payload(conn, make_error_response(0, ErrorCode::kParseError,
                                             decoder.error()));
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(id);
  connections.set(static_cast<double>(conns_.size()));
}

void Server::send_payload(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  const std::string frame = encode_frame(payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed write means the client hung up; queries already in flight for
  // this connection complete and discard their responses the same way.
  (void)write_all(conn->fd.get(), frame.data(), frame.size());
}

std::shared_ptr<Shard> Server::find_shard(const std::string& name) {
  std::lock_guard<std::mutex> lock(designs_mu_);
  if (name.empty() && designs_.size() == 1) return designs_.begin()->second;
  auto it = designs_.find(name);
  return it == designs_.end() ? nullptr : it->second;
}

std::string Server::handle_list() {
  std::string out = "\"designs\": [";
  std::lock_guard<std::mutex> lock(designs_mu_);
  bool first = true;
  for (const auto& [name, shard] : designs_) {
    out += str::format(
        "%s{\"name\": \"%s\", \"epoch\": %llu, \"queue_depth\": %zu}",
        first ? "" : ", ", util::json::escape(name).c_str(),
        static_cast<unsigned long long>(shard->epoch()),
        shard->queue_depth());
    first = false;
  }
  out += "]";
  const session::DesignSnapshot::Stats snaps =
      session::DesignSnapshot::stats();
  out += str::format(
      ", \"snapshots\": {\"live\": %zu, \"bytes_logical\": %zu, "
      "\"bytes_resident\": %zu, \"bytes_shared\": %zu}",
      snaps.live, snaps.logical_bytes, snaps.resident_bytes,
      snaps.shared_bytes());
  return out;
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.counter("server.requests_total").add();

  const auto send_error = [&](std::uint64_t id, ErrorCode code,
                              const std::string& message) {
    reg.counter("server.responses_error").add();
    if (code == ErrorCode::kOverloaded) {
      reg.counter("server.overload_rejects").add();
    }
    send_payload(conn, make_error_response(id, code, message));
  };
  const auto send_ok = [&](std::uint64_t id, std::uint64_t epoch,
                           const std::string& extra) {
    reg.counter("server.responses_ok").add();
    send_payload(conn, make_ok_response(id, epoch, extra));
  };

  Request req;
  ErrorCode code;
  std::string message;
  if (!parse_request(payload, &req, &code, &message)) {
    send_error(req.id, code, message);
    return;
  }

  if (req.op == "ping") {
    send_ok(req.id, 0, "\"pong\": true");
    return;
  }
  if (req.op == "list") {
    send_ok(req.id, 0, handle_list());
    return;
  }
  if (req.op == "load") {
    if (draining()) {
      send_error(req.id, ErrorCode::kDraining, "server is draining");
      return;
    }
    const std::string name =
        req.design.empty() ? req.netlist_path : req.design;
    std::string error;
    if (!load_design(name, req.netlist_path, req.spef_path, &error)) {
      send_error(req.id, ErrorCode::kLoadFailed, error);
      return;
    }
    log::info() << "serve: loaded design '" << name << "' from "
                << req.netlist_path;
    send_ok(req.id, 0,
            str::format("\"design\": \"%s\"",
                        util::json::escape(name).c_str()));
    return;
  }
  if (req.op != "topk" && req.op != "what_if") {
    send_error(req.id, ErrorCode::kUnknownOp, "unknown op '" + req.op + "'");
    return;
  }

  std::shared_ptr<Shard> shard = find_shard(req.design);
  if (shard == nullptr) {
    send_error(req.id, ErrorCode::kUnknownDesign,
               req.design.empty()
                   ? "no 'design' given and more than one design is loaded"
                   : "no design named '" + req.design + "'");
    return;
  }
  if (draining()) {
    send_error(req.id, ErrorCode::kDraining, "server is draining");
    return;
  }
  const std::uint64_t id = req.id;
  const bool admitted = shard->submit(
      std::move(req), [this, conn](std::string response) {
        // Runs on a shard worker thread; ok/error counting happened in the
        // shard, which rendered the response.
        send_payload(conn, response);
      });
  if (!admitted) {
    if (draining()) {
      send_error(id, ErrorCode::kDraining, "server is draining");
    } else {
      send_error(id, ErrorCode::kOverloaded,
                 "query queue is full; retry later");
    }
  }
}

void Server::request_shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;  // already draining
  }
  // Wake the accept loops; the sockets close during wait().
  if (tcp_listen_.valid()) ::shutdown(tcp_listen_.get(), SHUT_RDWR);
  if (unix_listen_.valid()) ::shutdown(unix_listen_.get(), SHUT_RDWR);
  shutdown_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return draining(); });
  if (shutdown_done_) return;
  if (!started_.load(std::memory_order_acquire)) {
    shutdown_done_ = true;
    shutdown_cv_.notify_all();
    return;
  }
  // First waiter performs the drain; shutdown_mu_ stays held, so others
  // block until shutdown_done_ flips.
  for (std::thread& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  // Queued queries complete and deliver their responses...
  {
    std::lock_guard<std::mutex> dlock(designs_mu_);
    for (auto& [name, shard] : designs_) shard->begin_drain();
    for (auto& [name, shard] : designs_) shard->join();
  }
  // ...then the idle connections unblock and hang up.
  {
    std::lock_guard<std::mutex> clock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  tcp_listen_.reset();
  unix_listen_.reset();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  shutdown_done_ = true;
  shutdown_cv_.notify_all();
}

}  // namespace tka::server
