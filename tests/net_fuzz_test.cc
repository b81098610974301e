// Deterministic mutational fuzzer for the wire tier. Seeded corpus: every
// frame the full-coverage script produces (requests, responses, error
// replies). Mutations: bit flips, truncation, length-lying headers,
// duplicated frames, spliced garbage — both with a stale CRC (must be
// caught by framing) and with the CRC recomputed over the damage (must be
// caught by the payload decoders' bounds checks).
//
// Three targets, one contract each:
//  - the pure decoders (TryDecodeFrame / DecodeRequestPayload /
//    DecodeResponsePayload) return a typed Status — they never crash,
//    never over-read, never claim to consume more bytes than given;
//  - a live multi-reactor server fed mutated streams answers with typed
//    error frames or hangs up the offending connection — and keeps serving
//    healthy clients bit-exactly throughout;
//  - net::Client fed mutated *reply* streams by a hostile server surfaces
//    a typed transport error — it never crashes or hangs.
//
// Everything is seeded (no wall-clock, no entropy): a failure reproduces
// with the iteration number in the assert message. The ASan/UBSan CI job
// runs this binary to turn silent over-reads into loud failures.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/requests.h"
#include "api/service.h"
#include "common/crc32.h"
#include "common/socket.h"
#include "itag/sharded_system.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "net_test_scenario.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace itag::net {
namespace {

core::ShardedSystemOptions ShardOpts(size_t shards, size_t pool_threads) {
  core::ShardedSystemOptions opts;
  opts.num_shards = shards;
  opts.pool_threads = pool_threads;
  return opts;
}

// ------------------------------------------------------------------ corpus

/// Every frame kind the protocol can produce, all from the full-coverage
/// script: request frames, their response frames, and a few error replies.
std::vector<std::string> BuildCorpus() {
  std::vector<std::string> corpus;
  api::Service scratch(ShardOpts(1, 1));
  [[maybe_unused]] Status init = scratch.Init();
  assert(init.ok());
  std::vector<api::AnyRequest> script =
      nettest::BuildFullCoverageScript(scratch);

  // Replay against a second service for the response frames (the scratch
  // already consumed the script once while learning ids).
  api::Service replay(ShardOpts(1, 1));
  init = replay.Init();
  assert(init.ok());
  uint64_t correlation = 1;
  for (const api::AnyRequest& req : script) {
    corpus.push_back(EncodeRequestFrame(correlation, req));
    corpus.push_back(
        EncodeResponseFrame(correlation, replay.Dispatch(req)));
    ++correlation;
  }
  corpus.push_back(EncodeErrorFrame(
      correlation, Status::ResourceExhausted("server overloaded"), 9));
  corpus.push_back(EncodeErrorFrame(
      correlation + 1, Status::InvalidArgument("malformed payload"), 7));

  // The script's TraceQuery reply is deterministic-by-emptiness; hand the
  // mutator a *populated* one too, so the nested TraceRecord → SpanRecord →
  // annotation vectors (the deepest payload in the protocol) get fuzzed.
  api::TraceQueryResponse deep;
  deep.status = Status::OK();
  for (uint64_t t = 1; t <= 3; ++t) {
    obs::TraceRecord trace;
    trace.trace_id = 0x1000 + t;
    trace.sampled = t % 2 == 0;
    trace.duration_ns = 250000 * t;
    trace.endpoint = "BatchSubmitTags";
    for (uint64_t s = 1; s <= 4; ++s) {
      obs::SpanRecord span;
      span.span_id = t * 100 + s;
      span.parent_span_id = s == 1 ? 0 : t * 100 + 1;
      span.name = s == 1 ? "net.request" : "core.shard";
      span.start_ns = s * 1000;
      span.end_ns = s * 1000 + 500;
      span.annotations.push_back({"shard", std::to_string(s)});
      span.annotations.push_back({"note", "tags with \"quotes\"\nand NULs"});
      trace.spans.push_back(std::move(span));
    }
    deep.traces.push_back(std::move(trace));
  }
  corpus.push_back(
      EncodeResponseFrame(correlation + 2, api::AnyResponse{deep}));

  // The v5 replication frames (kinds 3-5), so stream-message mutations hit
  // the repl payload decoders and the server's repl routing too.
  ReplSubscribe sub;
  sub.num_dbs = 3;
  sub.num_shards = 2;
  sub.seed = 2014;
  sub.from_lsns = {41, 7, 0};
  corpus.push_back(EncodeReplSubscribeFrame(correlation + 3, sub));

  ReplBatch batch;
  batch.db_index = 1;
  batch.head_lsn = 42;
  batch.head_bytes = 4096;
  storage::WalRecord rec;
  rec.op = storage::WalOp::kInsert;
  rec.lsn = 42;
  rec.table = "projects";
  rec.row_id = 7;
  rec.payload = std::string("row bytes with \0 NULs", 21);
  batch.record = storage::EncodeWalRecord(rec);
  corpus.push_back(EncodeReplBatchFrame(correlation + 4, batch));

  ReplAck ack;
  ack.applied_lsns = {41, 42, 0};
  corpus.push_back(EncodeReplAckFrame(correlation + 5, ack));
  return corpus;
}

// ---------------------------------------------------------------- mutation

/// Restamps the CRC field so the damage travels *past* the framing layer
/// into the payload decoders. Only valid while buf still starts with a
/// whole header + payload (payload_size in agreement).
void FixCrc(std::string* buf) {
  if (buf->size() < kHeaderSize) return;
  uint32_t crc = Crc32(buf->data(), 24);
  crc = Crc32Extend(crc, buf->data() + kHeaderSize, buf->size() - kHeaderSize);
  (*buf)[24] = static_cast<char>(crc & 0xff);
  (*buf)[25] = static_cast<char>((crc >> 8) & 0xff);
  (*buf)[26] = static_cast<char>((crc >> 16) & 0xff);
  (*buf)[27] = static_cast<char>((crc >> 24) & 0xff);
}

/// One mutated buffer, possibly several frames long. `rng` is the only
/// entropy source, so a given (seed, iteration) always yields the same
/// bytes.
std::string Mutate(const std::vector<std::string>& corpus,
                   std::mt19937& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  std::string buf = corpus[pick(corpus.size())];
  switch (rng() % 8) {
    case 0: {  // bit flip, CRC stale → framing must catch it
      buf[pick(buf.size())] ^= static_cast<char>(1u << (rng() % 8));
      break;
    }
    case 1: {  // bit flip with CRC recomputed → decoders must catch it
      size_t pos = pick(buf.size());
      if (pos >= 24 && pos < kHeaderSize) pos = 0;  // keep CRC field honest
      buf[pos] ^= static_cast<char>(1u << (rng() % 8));
      FixCrc(&buf);
      break;
    }
    case 2: {  // truncation: any prefix, header-only cuts included
      buf.resize(pick(buf.size()));
      break;
    }
    case 3: {  // length-lying header: payload_size says more or less
      if (buf.size() >= 24) {
        uint32_t lie = static_cast<uint32_t>(rng() % (64u << 20));
        buf[20] = static_cast<char>(lie & 0xff);
        buf[21] = static_cast<char>((lie >> 8) & 0xff);
        buf[22] = static_cast<char>((lie >> 16) & 0xff);
        buf[23] = static_cast<char>((lie >> 24) & 0xff);
        if (rng() % 2 == 0) FixCrc(&buf);  // even a "valid" lie must die
      }
      break;
    }
    case 4: {  // duplicated frame: same bytes twice back to back
      buf += buf;
      break;
    }
    case 5: {  // splice: valid frame, then garbage
      size_t n = 1 + pick(256);
      for (size_t i = 0; i < n; ++i) {
        buf.push_back(static_cast<char>(rng() % 256));
      }
      break;
    }
    case 6: {  // pure garbage, no corpus ancestry
      buf.clear();
      size_t n = 1 + pick(512);
      for (size_t i = 0; i < n; ++i) {
        buf.push_back(static_cast<char>(rng() % 256));
      }
      break;
    }
    case 7: {  // type/kind/version scramble with honest CRC: the frame
               // parses, the decoded payload cannot — typed error, not UB
      if (buf.size() >= kHeaderSize) {
        switch (rng() % 3) {
          case 0: buf[8] = static_cast<char>(rng() % 7); break;    // kind
                  // (% 7: the repl kinds 3-5 and one invalid value, so a
                  // scrambled frame can become a stream message mid-request)
          case 1: buf[10] = static_cast<char>(rng() % 32); break;  // type
          case 2: buf[4] = static_cast<char>(rng() % 8); break;    // version
        }
        FixCrc(&buf);
      }
      break;
    }
  }
  return buf;
}

// ------------------------------------------------- target 1: pure decoders

TEST(NetFuzzTest, DecodersNeverCrashNorOverconsume) {
  const std::vector<std::string> corpus = BuildCorpus();
  std::mt19937 rng(0xC0FFEE);
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string buf = Mutate(corpus, rng);
    // Drive the same incremental parse loop the server and client run,
    // over the whole buffer.
    size_t parsed = 0;
    for (;;) {
      Frame frame;
      size_t consumed = 0;
      Status s = TryDecodeFrame(std::string_view(buf).substr(parsed), &frame,
                                &consumed, kDefaultMaxFrameBytes);
      if (!s.ok()) {
        // Unrecoverable stream: must be a *typed* rejection.
        EXPECT_TRUE(s.IsCorruption() || s.IsInvalidArgument())
            << s.ToString();
        break;
      }
      if (consumed == 0) break;  // incomplete tail — wait for more
      ASSERT_LE(consumed, buf.size() - parsed);
      parsed += consumed;
      ASSERT_LE(frame.payload.size(), kDefaultMaxFrameBytes);
      // Whatever framed must decode to a typed result, crash-free, under
      // both payload schemas.
      api::AnyRequest req;
      Status rs = DecodeRequestPayload(frame.type, frame.payload, &req);
      EXPECT_TRUE(rs.ok() || rs.IsInvalidArgument() || rs.IsUnimplemented())
          << rs.ToString();
      api::AnyResponse resp;
      Status ps = DecodeResponsePayload(frame.type, frame.payload, &resp);
      EXPECT_TRUE(ps.ok() || ps.IsInvalidArgument() || ps.IsUnimplemented())
          << ps.ToString();
      // The repl payload decoders get the same treatment — any framed bytes
      // must yield OK or a typed InvalidArgument, never UB.
      ReplSubscribe sub;
      Status ss = DecodeReplSubscribe(frame, &sub);
      EXPECT_TRUE(ss.ok() || ss.IsInvalidArgument()) << ss.ToString();
      ReplBatch batch;
      Status bs = DecodeReplBatch(frame, &batch);
      EXPECT_TRUE(bs.ok() || bs.IsInvalidArgument()) << bs.ToString();
      ReplAck ack;
      Status as = DecodeReplAck(frame, &ack);
      EXPECT_TRUE(as.ok() || as.IsInvalidArgument()) << as.ToString();
    }
  }
}

// ---------------------------------------------- target 2: the live server

TEST(NetFuzzTest, ServerSurvivesMutatedStreamsAndKeepsServing) {
  const std::vector<std::string> corpus = BuildCorpus();
  api::Service served(ShardOpts(2, 2));
  ASSERT_TRUE(served.Init().ok());
  ServerOptions opts;
  opts.workers = 2;
  opts.reactors = 2;  // mutated conns land on both reactors round-robin
  Server server(&served, opts);
  ASSERT_TRUE(server.Start().ok());

  std::mt19937 rng(0xFEEDFACE);
  constexpr int kStreams = 200;
  for (int iter = 0; iter < kStreams; ++iter) {
    SCOPED_TRACE("stream " + std::to_string(iter));
    Result<Socket> raw = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    std::string stream;
    // 1-3 mutated buffers per connection, sometimes preceded by a fully
    // valid frame so damage arrives on a connection with work in flight.
    if (rng() % 2 == 0) stream += corpus[rng() % corpus.size()];
    size_t bufs = 1 + rng() % 3;
    for (size_t b = 0; b < bufs; ++b) stream += Mutate(corpus, rng);
    // The server may hang up mid-write (EPIPE) — that is a *pass*: the
    // contract is typed error or clean disconnect, never a crash.
    (void)raw->WriteAll(stream.data(), stream.size(), /*timeout_ms=*/2000);
    // Drain whatever the server answered without blocking forever.
    (void)raw->SetNonBlocking(true);
    char sink[4096];
    (void)raw->ReadSome(sink, sizeof(sink));
  }

  // The real proof of life: a healthy client is still served. (Bit-equality
  // against a fresh oracle would be wrong here — benign mutations like
  // duplicated valid frames legitimately executed against the backend. The
  // contract is transport health: every well-formed request still round
  // trips to a response of the right alternative.)
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript(2);
  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("post-fuzz request #" + std::to_string(i));
    Result<api::AnyResponse> got = healthy.Dispatch(script[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().index(), script[i].index());
  }
  // The fuzz streams were noticed, not silently swallowed.
  ServerStats stats = server.stats();
  EXPECT_GT(stats.protocol_errors + stats.errors_sent, 0u);
  server.Stop();
}

// --------------------------------------------- target 3: the client reply path

/// A hostile server: accepts one connection, reads (and discards) the
/// client's request bytes, answers with an arbitrary buffer, then closes.
void ServeOneMutatedReply(Socket* listener, std::string reply) {
  Result<Socket> conn = listener->Accept();
  if (!conn.ok()) return;
  char sink[4096];
  (void)conn->ReadSome(sink, sizeof(sink));  // the request frame (ignored)
  (void)conn->WriteAll(reply.data(), reply.size(), /*timeout_ms=*/2000);
  // Closing makes every outcome terminate: a length-lying reply leaves the
  // client waiting for more bytes, and EOF turns that into a typed IOError.
}

TEST(NetFuzzTest, ClientSurvivesMutatedReplies) {
  const std::vector<std::string> corpus = BuildCorpus();
  std::mt19937 rng(0xDEADBEEF);
  for (int iter = 0; iter < 80; ++iter) {
    SCOPED_TRACE("reply " + std::to_string(iter));
    Result<Socket> listener = Socket::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    Result<uint16_t> port = listener->LocalPort();
    ASSERT_TRUE(port.ok());

    std::string reply = Mutate(corpus, rng);
    std::thread hostile(ServeOneMutatedReply, &listener.value(),
                        std::move(reply));
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port.value()).ok());
    Result<api::AnyResponse> r =
        client.Dispatch(api::AnyRequest{api::StepRequest{0}});
    // Any *typed* outcome is legal (a benign mutation can even leave a
    // parseable reply whose correlation happens to match); what is not
    // legal is a crash or a hang — both would fail the test harness.
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty()) << r.status().ToString();
    }
    hostile.join();
  }
}

}  // namespace
}  // namespace itag::net
