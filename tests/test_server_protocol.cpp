// Tests for the `tka serve` wire layer and serving semantics: frame codec
// round-trips, malformed-frame rejection (including a deterministic fuzz
// sweep), request parsing and typed errors, admission control, graceful
// drain, and the bit-identity contract — N parallel clients must receive
// byte-identical responses to a serial one-shot run of the same queries.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "server/client.hpp"
#include "server/frame.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "session/analysis_session.hpp"
#include "topk/topk_engine.hpp"

namespace tka::server {
namespace {

using test::Fixture;

// ---------------------------------------------------------------- framing

TEST(Frame, RoundTripSingle) {
  const std::string payload = "{\"id\": 1, \"op\": \"ping\"}";
  const std::string framed = encode_frame(payload);
  ASSERT_EQ(framed.size(), payload.size() + 4);

  FrameDecoder dec;
  dec.feed(framed.data(), framed.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.finish(), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, RoundTripManyAndEmpty) {
  const std::vector<std::string> payloads = {"", "a", std::string(4096, 'x'),
                                             "{\"k\": 1}"};
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  for (const std::string& p : payloads) {
    std::string out;
    ASSERT_EQ(dec.next(&out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, p);
  }
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, ByteAtATimeDelivery) {
  const std::string payload = "{\"op\": \"list\"}";
  const std::string framed = encode_frame(payload);
  FrameDecoder dec;
  std::string out;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    dec.feed(framed.data() + i, 1);
    if (i + 1 < framed.size()) {
      EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kNeedMore);
    }
  }
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
}

TEST(Frame, OversizedPrefixIsError) {
  // Length prefix far beyond the configured maximum.
  const unsigned char bytes[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameDecoder dec(1024);
  dec.feed(bytes, 4);
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("oversized"), std::string::npos);
  // Once broken, stays broken.
  const std::string ok = encode_frame("x");
  dec.feed(ok.data(), ok.size());
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kError);
}

TEST(Frame, TruncatedPayloadAtEofIsError) {
  const std::string framed = encode_frame("hello world");
  FrameDecoder dec;
  dec.feed(framed.data(), framed.size() - 3);  // cut mid-payload
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.finish(), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("truncated"), std::string::npos);
}

TEST(Frame, TruncatedPrefixAtEofIsError) {
  const std::string framed = encode_frame("x");
  FrameDecoder dec;
  dec.feed(framed.data(), 2);  // half the length prefix
  EXPECT_EQ(dec.finish(), FrameDecoder::Status::kError);
}

// Deterministic fuzz: random byte streams, random chunking, and corrupted
// valid frames must never crash or hand out a frame that was not sent; the
// decoder must land in kNeedMore (plausible prefix of a huge frame) or
// kError, never an invented payload.
TEST(Frame, FuzzedStreamsNeverCrash) {
  std::mt19937 rng(20260807);
  for (int iter = 0; iter < 500; ++iter) {
    std::string stream;
    const bool start_valid = (rng() % 2) == 0;
    std::string sent;
    if (start_valid) {
      sent.assign(rng() % 64, static_cast<char>('a' + rng() % 26));
      stream = encode_frame(sent);
    }
    const std::size_t junk = rng() % 32;
    for (std::size_t i = 0; i < junk; ++i) {
      stream.push_back(static_cast<char>(rng() % 256));
    }
    FrameDecoder dec(4096);
    std::size_t off = 0;
    std::vector<std::string> got;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng() % 7, stream.size() - off);
      dec.feed(stream.data() + off, n);
      off += n;
      std::string out;
      while (dec.next(&out) == FrameDecoder::Status::kFrame) {
        got.push_back(out);
      }
    }
    dec.finish();
    // The only guaranteed-decodable frame is the valid one at the start.
    if (start_valid) {
      ASSERT_GE(got.size(), 1u) << "iter " << iter;
      EXPECT_EQ(got.front(), sent) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------- parsing

TEST(Protocol, ParseRejectsInvalidJson) {
  Request req;
  ErrorCode code;
  std::string msg;
  EXPECT_FALSE(parse_request("not json at all {", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kParseError);
  EXPECT_FALSE(parse_request("", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kParseError);
}

TEST(Protocol, ParseRejectsBadShapes) {
  Request req;
  ErrorCode code;
  std::string msg;
  // Valid JSON, missing/invalid op.
  EXPECT_FALSE(parse_request("{\"id\": 1}", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(parse_request("{\"op\": 7}", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Bad k.
  EXPECT_FALSE(parse_request("{\"op\": \"topk\", \"k\": -2}", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(
      parse_request("{\"op\": \"topk\", \"k\": \"five\"}", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Bad mode.
  EXPECT_FALSE(parse_request("{\"op\": \"topk\", \"mode\": \"sideways\"}", &req,
                             &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // what_if with no edit.
  EXPECT_FALSE(parse_request("{\"op\": \"what_if\"}", &req, &code, &msg));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Ids that are fractional, negative or too large for their type would
  // alias a real id (or overflow the cast): each is refused.
  for (const char* bad : {
           "{\"op\": \"what_if\", \"zero\": [4294967296]}",
           "{\"op\": \"what_if\", \"zero\": [1e20]}",
           "{\"op\": \"what_if\", \"shield\": [1.5]}",
           "{\"op\": \"what_if\", \"resize\": [{\"gate\": 4294967296, "
           "\"cell\": 0}]}",
           "{\"op\": \"what_if\", \"resize\": [{\"gate\": 1.5, \"cell\": 0}]}",
           "{\"op\": \"what_if\", \"resize\": [{\"gate\": 0, \"cell\": 1e20}]}",
           "{\"op\": \"what_if\", \"resize\": [{\"gate\": 0, \"cell\": -1}]}",
           "{\"id\": 1e20, \"op\": \"ping\"}",
           "{\"id\": 2.5, \"op\": \"ping\"}"}) {
    SCOPED_TRACE(bad);
    Request r;
    EXPECT_FALSE(parse_request(bad, &r, &code, &msg));
    EXPECT_EQ(code, ErrorCode::kBadRequest);
  }
  // The largest id of each type still parses.
  Request r;
  ASSERT_TRUE(parse_request(
      "{\"id\": 18446744073709549568, \"op\": \"what_if\", "
      "\"zero\": [4294967295]}",
      &r, &code, &msg))
      << msg;
  EXPECT_EQ(r.id, 18446744073709549568u);
  EXPECT_EQ(r.edit.zero_couplings, std::vector<layout::CapId>{4294967295u});
}

TEST(Protocol, ParseAcceptsFullWhatIf) {
  Request req;
  ErrorCode code;
  std::string msg;
  ASSERT_TRUE(parse_request(
      "{\"id\": 42, \"op\": \"what_if\", \"design\": \"d\", \"k\": 7, "
      "\"mode\": \"add\", \"zero\": [1, 2], \"shield\": [3], "
      "\"resize\": [{\"gate\": 0, \"cell\": 1}]}",
      &req, &code, &msg))
      << msg;
  EXPECT_EQ(req.id, 42u);
  EXPECT_EQ(req.op, "what_if");
  EXPECT_EQ(req.design, "d");
  EXPECT_EQ(req.k, 7);
  EXPECT_EQ(req.mode, topk::Mode::kAddition);
  ASSERT_EQ(req.edit.zero_couplings.size(), 2u);
  ASSERT_EQ(req.edit.shield_couplings.size(), 1u);
  ASSERT_EQ(req.edit.resizes.size(), 1u);
  EXPECT_EQ(req.edit.resizes[0].cell_index, 1u);
}

TEST(Protocol, ResponseShapes) {
  const std::string err =
      make_error_response(9, ErrorCode::kOverloaded, "queue full");
  EXPECT_NE(err.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(err.find("\"overloaded\""), std::string::npos);
  const std::string ok = make_ok_response(9, 3, "\"pong\": true");
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(ok.find("\"epoch\": 3"), std::string::npos);
}

// ---------------------------------------------------- serving end to end

Fixture server_fixture() {
  Fixture fx = test::make_parallel_chains(4, 4);
  test::couple(fx, "c0_n1", "c1_n1", 0.012);
  test::couple(fx, "c0_n2", "c2_n2", 0.006);
  test::couple(fx, "c0_n3", "c3_n3", 0.003);
  test::couple(fx, "c2_n1", "c3_n1", 0.004);
  test::set_arrival(fx, "c1_in", 0.02, 0.02);
  return fx;
}

topk::TopkOptions fixture_options(const Fixture& fx, int k) {
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = topk::Mode::kElimination;
  opt.iterative.sta = fx.sta_options();
  return opt;
}

struct LiveServer {
  std::unique_ptr<Server> server;
  int port = 0;
};

LiveServer start_server(const Fixture& fx, const ShardOptions& shard_opt,
                        int k) {
  LiveServer ls;
  ServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  ls.server = std::make_unique<Server>(opt);
  std::string error;
  EXPECT_TRUE(ls.server->add_design(
      "fx", std::make_unique<net::Netlist>(*fx.netlist),
      layout::Parasitics(fx.parasitics), shard_opt, fixture_options(fx, k),
      &error))
      << error;
  EXPECT_TRUE(ls.server->start(&error)) << error;
  ls.port = ls.server->tcp_port();
  return ls;
}

TEST(Serve, PingListAndUnknownOp) {
  const Fixture fx = server_fixture();
  LiveServer ls = start_server(fx, ShardOptions{}, 3);
  Client c;
  std::string error, resp;
  ASSERT_TRUE(c.connect_tcp("127.0.0.1", ls.port, &error)) << error;

  ASSERT_TRUE(c.call("{\"id\": 1, \"op\": \"ping\"}", &resp, &error)) << error;
  EXPECT_EQ(resp, make_ok_response(1, 0, "\"pong\": true"));

  ASSERT_TRUE(c.call("{\"id\": 2, \"op\": \"list\"}", &resp, &error)) << error;
  EXPECT_NE(resp.find("\"fx\""), std::string::npos);

  ASSERT_TRUE(c.call("{\"id\": 3, \"op\": \"frobnicate\"}", &resp, &error));
  EXPECT_NE(resp.find("\"unknown_op\""), std::string::npos);

  ASSERT_TRUE(c.call("{\"id\": 4, \"op\": \"topk\", \"design\": \"nope\"}",
                     &resp, &error));
  EXPECT_NE(resp.find("\"unknown_design\""), std::string::npos);

  ASSERT_TRUE(c.call("this is not json", &resp, &error));
  EXPECT_NE(resp.find("\"parse_error\""), std::string::npos);
}

// N parallel clients, mixed k — every response must be byte-identical to
// the expected payload computed serially from a local session through the
// same renderer. This is the server's core contract.
TEST(Serve, ParallelClientsBitIdenticalToOneShot) {
  const Fixture fx = server_fixture();
  const std::vector<int> ks = {2, 3};

  std::map<int, std::string> rendered;
  for (int k : ks) {
    session::AnalysisSession local(
        *fx.netlist, fx.parasitics, {},
        session::SessionOptions{.retain_candidates = false});
    topk::TopkOptions opt = fixture_options(fx, k);
    opt.threads = 1;
    const topk::TopkResult res = local.run(opt);
    rendered[k] = render_topk_result(local.netlist(), local.parasitics(), res, k);
  }

  ShardOptions shard_opt;
  shard_opt.workers = 2;
  shard_opt.queue_cap = 64;
  LiveServer ls = start_server(fx, shard_opt, ks[0]);

  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string error, resp;
      if (!client.connect_tcp("127.0.0.1", ls.port, &error)) {
        ++failures[c];
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int seq = c * kPerClient + i;
        const int k = ks[static_cast<std::size_t>(seq) % ks.size()];
        const std::string req =
            "{\"id\": " + std::to_string(seq) +
            ", \"op\": \"topk\", \"k\": " + std::to_string(k) +
            ", \"mode\": \"elim\"}";
        if (!client.call(req, &resp, &error) ||
            resp != make_ok_response(static_cast<std::uint64_t>(seq), 0,
                                     "\"result\": " + rendered[k])) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

// what_if commits advance the epoch and must match a local warm session
// driven with the same edits; a later read observes the committed state.
TEST(Serve, WhatIfCommitMatchesLocalSession) {
  const Fixture fx = server_fixture();
  const int k = 3;
  LiveServer ls = start_server(fx, ShardOptions{}, k);

  session::AnalysisSession writer(
      *fx.netlist, fx.parasitics, {},
      session::SessionOptions{.retain_candidates = true});
  topk::TopkOptions opt = fixture_options(fx, k);
  opt.threads = 1;
  writer.run(opt);

  Client c;
  std::string error, resp;
  ASSERT_TRUE(c.connect_tcp("127.0.0.1", ls.port, &error)) << error;

  session::WhatIfEdit edit;
  edit.zero_couplings = {0};
  const topk::TopkResult want = writer.what_if(edit);
  ASSERT_TRUE(c.call(
      "{\"id\": 5, \"op\": \"what_if\", \"zero\": [0], \"k\": 3, "
      "\"mode\": \"elim\"}",
      &resp, &error))
      << error;
  EXPECT_EQ(resp, make_ok_response(
                      5, 1,
                      "\"result\": " + render_topk_result(writer.netlist(),
                                                          writer.parasitics(),
                                                          want, k)));

  // A read after the commit serves epoch 1.
  ASSERT_TRUE(c.call("{\"id\": 6, \"op\": \"topk\", \"k\": 3}", &resp, &error));
  EXPECT_NE(resp.find("\"epoch\": 1"), std::string::npos);
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);

  // Out-of-range edit ids are a typed bad_request, not an engine crash,
  // and do not advance the epoch.
  ASSERT_TRUE(c.call(
      "{\"id\": 7, \"op\": \"what_if\", \"zero\": [99999]}", &resp, &error));
  EXPECT_NE(resp.find("\"bad_request\""), std::string::npos);
  ASSERT_TRUE(c.call("{\"id\": 8, \"op\": \"topk\", \"k\": 3}", &resp, &error));
  EXPECT_NE(resp.find("\"epoch\": 1"), std::string::npos);

  // A resize to a cell that is not a drive variant refuses the whole edit
  // with bad_request: its zero edit must not reach the writer either, so
  // the next commit still equals the local session's answer.
  const std::size_t nand2 = fx.netlist->library().index_of("NAND2X1");
  ASSERT_TRUE(c.call(
      "{\"id\": 9, \"op\": \"what_if\", \"zero\": [1], \"resize\": "
      "[{\"gate\": 0, \"cell\": " + std::to_string(nand2) +
          "}], \"k\": 3, \"mode\": \"elim\"}",
      &resp, &error));
  EXPECT_NE(resp.find("\"bad_request\""), std::string::npos) << resp;
  edit.zero_couplings = {2};
  const topk::TopkResult want2 = writer.what_if(edit);
  ASSERT_TRUE(c.call(
      "{\"id\": 10, \"op\": \"what_if\", \"zero\": [2], \"k\": 3, "
      "\"mode\": \"elim\"}",
      &resp, &error))
      << error;
  EXPECT_EQ(resp, make_ok_response(
                      10, 2,
                      "\"result\": " + render_topk_result(writer.netlist(),
                                                          writer.parasitics(),
                                                          want2, k)));
}

// queue_cap = 0 refuses every enqueue: the server must answer with the
// typed `overloaded` error rather than hanging or dropping the frame.
TEST(Serve, OverloadedIsTypedError) {
  const Fixture fx = server_fixture();
  ShardOptions shard_opt;
  shard_opt.queue_cap = 0;
  LiveServer ls = start_server(fx, shard_opt, 2);
  Client c;
  std::string error, resp;
  ASSERT_TRUE(c.connect_tcp("127.0.0.1", ls.port, &error)) << error;
  ASSERT_TRUE(c.call("{\"id\": 1, \"op\": \"topk\", \"k\": 2}", &resp, &error));
  EXPECT_NE(resp.find("\"overloaded\""), std::string::npos);
  EXPECT_NE(resp.find("\"ok\": false"), std::string::npos);
}

// Graceful drain: shutdown completes with clients connected, is idempotent,
// and the listeners stop accepting afterwards.
TEST(Serve, GracefulDrain) {
  const Fixture fx = server_fixture();
  LiveServer ls = start_server(fx, ShardOptions{}, 2);
  Client c;
  std::string error, resp;
  ASSERT_TRUE(c.connect_tcp("127.0.0.1", ls.port, &error)) << error;
  ASSERT_TRUE(c.call("{\"id\": 1, \"op\": \"topk\", \"k\": 2}", &resp, &error));
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);

  ls.server->request_shutdown();
  ls.server->request_shutdown();  // idempotent
  ls.server->wait();
  EXPECT_TRUE(ls.server->draining());

  Client late;
  EXPECT_FALSE(late.connect_tcp("127.0.0.1", ls.port, &error));
}

}  // namespace
}  // namespace tka::server
