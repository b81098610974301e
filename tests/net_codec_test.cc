// Wire-codec coverage: Status fidelity (code AND message survive the
// trip), frame framing (magic / version / kind / correlation / CRC),
// malformed-input rejection, the project-id peek, committed golden bytes
// of every message, and — via the shared full-coverage script —
// payload round-trips for every AnyRequest/AnyResponse alternative, using
// Service::Dispatch as the oracle: a request that crossed the codec must
// produce a byte-identical response to the original request.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/requests.h"
#include "api/service.h"
#include "net_test_scenario.h"

namespace itag::net {
namespace {

// ----------------------------------------------------------------- Status

TEST(WireStatusTest, EveryCodeRoundTripsLosslessly) {
  const std::vector<Status> cases = {
      Status::OK(),
      Status::NotFound("project 42"),
      Status::InvalidArgument("resource uri must be non-empty"),
      Status::AlreadyExists("dup"),
      Status::FailedPrecondition("project is not running"),
      Status::OutOfRange("k"),
      Status::ResourceExhausted("budget exhausted"),
      Status::IOError("disk"),
      Status::Corruption("bits"),
      Status::Unimplemented("later"),
      Status::Aborted("race"),
      Status::Internal("bug"),
      // Message edge cases: empty, embedded NUL, UTF-8, long.
      Status::NotFound(""),
      Status::Internal(std::string("nul\0inside", 10)),
      Status::InvalidArgument("tag \"plage\" déjà vu — ☃"),
      Status::NotFound(std::string(100000, 'x')),
  };
  for (const Status& original : cases) {
    ByteWriter w;
    EncodeStatus(w, original);
    ByteReader r(w.buffer());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(r, &decoded));
    EXPECT_TRUE(r.AtEnd());
    // Status::operator== compares code and full message: lossless.
    EXPECT_EQ(decoded, original);
  }
}

TEST(WireStatusTest, RejectsUnknownCodeAndTruncation) {
  ByteWriter w;
  w.U8(200);  // far beyond kInternal
  w.Str("whatever");
  ByteReader bad_code(w.buffer());
  Status s;
  EXPECT_FALSE(DecodeStatus(bad_code, &s));

  ByteWriter w2;
  EncodeStatus(w2, Status::NotFound("hello"));
  std::string truncated = w2.buffer().substr(0, w2.buffer().size() - 2);
  ByteReader r(truncated);
  EXPECT_FALSE(DecodeStatus(r, &s));
}

// ----------------------------------------------------------------- frames

TEST(WireFrameTest, RequestFrameRoundTrips) {
  api::AnyRequest req = api::RegisterProviderRequest{"alice"};
  std::string bytes = EncodeRequestFrame(/*correlation=*/77, req);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.kind, FrameKind::kRequest);
  EXPECT_EQ(frame.version, api::kApiVersion);
  EXPECT_EQ(frame.type, TypeTagOf(req));
  EXPECT_EQ(frame.correlation, 77u);
  api::AnyRequest decoded;
  ASSERT_TRUE(DecodeRequestPayload(frame.type, frame.payload, &decoded).ok());
  EXPECT_EQ(std::get<api::RegisterProviderRequest>(decoded).name, "alice");
}

TEST(WireFrameTest, PartialBufferAsksForMoreBytes) {
  std::string bytes =
      EncodeRequestFrame(1, api::AnyRequest{api::StepRequest{5}});
  for (size_t cut : {size_t{0}, size_t{5}, kHeaderSize - 1, kHeaderSize,
                     bytes.size() - 1}) {
    Frame frame;
    size_t consumed = 99;
    ASSERT_TRUE(
        TryDecodeFrame(std::string_view(bytes).substr(0, cut), &frame,
                       &consumed)
            .ok())
        << "cut=" << cut;
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(WireFrameTest, DetectsCorruptionEverywhere) {
  std::string good =
      EncodeRequestFrame(9, api::AnyRequest{api::RegisterTaggerRequest{"b"}});
  // Bad magic.
  {
    std::string bad = good;
    bad[0] ^= 0xFF;
    Frame f;
    size_t consumed;
    EXPECT_TRUE(TryDecodeFrame(bad, &f, &consumed).IsCorruption());
  }
  // A flipped bit in any header or payload byte past the magic must trip
  // the CRC (or a stricter structural check), never decode silently.
  for (size_t i = 4; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x01;
    Frame f;
    size_t consumed = 0;
    Status s = TryDecodeFrame(bad, &f, &consumed);
    bool rejected = !s.ok();
    // Flipping a payload_size bit may turn the frame into a partial read
    // (consumed == 0) — also not a silent wrong decode.
    EXPECT_TRUE(rejected || consumed == 0) << "offset " << i;
  }
}

TEST(WireFrameTest, OversizedPayloadIsRejectedNotBuffered) {
  std::string good =
      EncodeRequestFrame(1, api::AnyRequest{api::StepRequest{1}});
  Frame f;
  size_t consumed;
  // Recoded cap smaller than this payload → InvalidArgument immediately,
  // even though the full body never arrived.
  Status s = TryDecodeFrame(good.substr(0, kHeaderSize), &f, &consumed,
                            /*max_frame_bytes=*/2);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(WireFrameTest, VersionIsStampedVerbatim) {
  std::string bytes = EncodeRequestFrame(
      3, api::AnyRequest{api::StepRequest{0}}, api::kApiVersion + 7);
  Frame frame;
  size_t consumed;
  ASSERT_TRUE(TryDecodeFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.version, api::kApiVersion + 7);
}

TEST(WireFrameTest, ErrorFrameCarriesStatus) {
  Status error = Status::ResourceExhausted("server overloaded: 256 in flight");
  std::string bytes = EncodeErrorFrame(41, error, /*type=*/6);
  Frame frame;
  size_t consumed;
  ASSERT_TRUE(TryDecodeFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.type, 6u);
  ByteReader r(frame.payload);
  Status decoded;
  ASSERT_TRUE(DecodeStatus(r, &decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded, error);
}

TEST(WireFrameTest, PipelinedFramesParseInSequence) {
  std::string stream;
  for (uint64_t c = 1; c <= 5; ++c) {
    stream += EncodeRequestFrame(
        c, api::AnyRequest{api::StepRequest{static_cast<Tick>(c)}});
  }
  size_t offset = 0;
  for (uint64_t c = 1; c <= 5; ++c) {
    Frame frame;
    size_t consumed = 0;
    ASSERT_TRUE(TryDecodeFrame(std::string_view(stream).substr(offset),
                               &frame, &consumed)
                    .ok());
    ASSERT_GT(consumed, 0u);
    EXPECT_EQ(frame.correlation, c);
    offset += consumed;
  }
  EXPECT_EQ(offset, stream.size());
}

// ------------------------------------------------------ payload round-trip

std::string Payload(const api::AnyRequest& m) {
  return EncodeRequestPayload(m);
}
std::string Payload(const api::AnyResponse& m) {
  return EncodeResponsePayload(m);
}
Status Decode(uint16_t type, std::string_view payload, api::AnyRequest* out) {
  return DecodeRequestPayload(type, payload, out);
}
Status Decode(uint16_t type, std::string_view payload, api::AnyResponse* out) {
  return DecodeResponsePayload(type, payload, out);
}

/// Checks the one-byte field of `msg` that `set` writes. Its payload byte
/// is the one that differs between set(0) and set(1); that byte must
/// decode at `max` and be InvalidArgument at `max + 1`.
template <typename Any, typename Msg, typename Set>
void ExpectLargestByteOnly(Msg msg, Set set, uint8_t max) {
  set(msg, 0);
  const std::string zero = Payload(Any{msg});
  set(msg, 1);
  std::string payload = Payload(Any{msg});
  ASSERT_EQ(zero.size(), payload.size());
  const size_t at =
      std::mismatch(zero.begin(), zero.end(), payload.begin()).first -
      zero.begin();
  ASSERT_LT(at, payload.size());
  const uint16_t type = TypeTagOf(Any{msg});
  Any out;
  payload[at] = static_cast<char>(max);
  EXPECT_TRUE(Decode(type, payload, &out).ok())
      << "type " << type << " byte " << at << " = " << int{max};
  payload[at] = static_cast<char>(max + 1);
  EXPECT_TRUE(Decode(type, payload, &out).IsInvalidArgument())
      << "type " << type << " byte " << at << " = " << max + 1;
}

TEST(WirePayloadTest, MalformedPayloadsAreInvalidNotCrashy) {
  api::AnyRequest out;
  // Unknown type tag.
  EXPECT_TRUE(DecodeRequestPayload(999, "", &out).IsUnimplemented());
  // Truncated body.
  std::string upload = EncodeRequestPayload(api::AnyRequest{
      api::BatchUploadResourcesRequest{
          7, {{tagging::ResourceKind::kImage, "u", "d", {"t"}}}}});
  for (size_t cut = 0; cut < upload.size(); ++cut) {
    EXPECT_TRUE(DecodeRequestPayload(
                    3, std::string_view(upload).substr(0, cut), &out)
                    .IsInvalidArgument())
        << "cut=" << cut;
  }
  // Trailing garbage.
  EXPECT_TRUE(DecodeRequestPayload(3, upload + "x", &out).IsInvalidArgument());
  // A count field lying about the element total allocates nothing and
  // fails cleanly.
  std::string huge_count;
  {
    ByteWriter w;
    w.U64(7);                // project
    w.U32(0xFFFFFFFFu);      // items: 4 billion, says the attacker
    huge_count = w.buffer();
  }
  EXPECT_TRUE(DecodeRequestPayload(3, huge_count, &out).IsInvalidArgument());

  // Each one-byte field accepts its largest value and rejects the next:
  // the six wire enums, and a bool byte of 2.
  ExpectLargestByteOnly<api::AnyRequest>(
      api::CreateProjectRequest{},
      [](auto& m, uint8_t v) {
        m.spec.kind = static_cast<tagging::ResourceKind>(v);
      },
      static_cast<uint8_t>(tagging::ResourceKind::kScientificPaper));
  ExpectLargestByteOnly<api::AnyRequest>(
      api::CreateProjectRequest{},
      [](auto& m, uint8_t v) {
        m.spec.platform = static_cast<core::PlatformChoice>(v);
      },
      static_cast<uint8_t>(core::PlatformChoice::kAudience));
  ExpectLargestByteOnly<api::AnyRequest>(
      api::CreateProjectRequest{},
      [](auto& m, uint8_t v) {
        m.spec.strategy = static_cast<strategy::StrategyKind>(v);
      },
      static_cast<uint8_t>(strategy::StrategyKind::kEstimatedGain));
  ExpectLargestByteOnly<api::AnyResponse>(
      api::ProjectQueryResponse{},
      [](auto& m, uint8_t v) {
        m.info.state = static_cast<core::ProjectState>(v);
      },
      static_cast<uint8_t>(core::ProjectState::kStopped));
  ExpectLargestByteOnly<api::AnyRequest>(
      api::BatchControlRequest{7, {api::ControlItem{}}},
      [](auto& m, uint8_t v) {
        m.items[0].action = static_cast<api::ControlAction>(v);
      },
      static_cast<uint8_t>(api::ControlAction::kSwitchStrategy));
  ExpectLargestByteOnly<api::AnyResponse>(
      api::MetricsQueryResponse{Status::OK(), {obs::MetricSample{}}},
      [](auto& m, uint8_t v) {
        m.metrics[0].kind = static_cast<obs::MetricKind>(v);
      },
      static_cast<uint8_t>(obs::MetricKind::kHistogram));
  ExpectLargestByteOnly<api::AnyRequest>(
      api::ProjectQueryRequest{},
      [](auto& m, uint8_t v) { m.include_feed = v != 0; }, 1);
}

// The reactor routes a request to its shard by the project id it peeks out
// of the still-encoded payload.
TEST(WirePayloadTest, PeekProjectIdReadsTheRoutedRequests) {
  const core::ProjectId project = 0x0102030405060708;
  const std::vector<std::pair<api::AnyRequest, size_t>> routed = {
      // Each request, and the payload length that ends its project id.
      {api::BatchUploadResourcesRequest{project, {{}}}, 8},
      {api::BatchControlRequest{project, {{}}}, 8},
      {api::ProjectQueryRequest{project, true, {1}}, 8},
      {api::BatchAcceptTasksRequest{/*tagger=*/99, project, 4}, 16},
  };
  for (const auto& [req, id_end] : routed) {
    SCOPED_TRACE(api::RequestTypeName(req.index()));
    const std::string payload = EncodeRequestPayload(req);
    EXPECT_EQ(PeekProjectId(TypeTagOf(req), payload).value_or(0), project);
    for (size_t cut = 0; cut < id_end; ++cut) {
      EXPECT_FALSE(
          PeekProjectId(TypeTagOf(req), payload.substr(0, cut)).has_value())
          << "cut=" << cut;
    }
  }
  // Every other type tag, known or not, has no project id to peek.
  const std::string payload(16, '\x01');
  for (uint16_t type = 0; type <= api::kRequestTypeCount; ++type) {
    if (type == api::kRequestTypeIndex<api::BatchUploadResourcesRequest> ||
        type == api::kRequestTypeIndex<api::BatchControlRequest> ||
        type == api::kRequestTypeIndex<api::ProjectQueryRequest> ||
        type == api::kRequestTypeIndex<api::BatchAcceptTasksRequest>) {
      continue;
    }
    EXPECT_FALSE(PeekProjectId(type, payload).has_value()) << "type " << type;
  }
}

/// Encodes whatever AnyResponse holds (used for bit-equality checks).
std::string ResponseBytes(const api::AnyResponse& resp) {
  return EncodeResponsePayload(resp);
}

// The tentpole property: replay the full-coverage script on two fresh
// identical backends — one fed the original requests, one fed requests
// that crossed the codec — and require byte-identical responses, which in
// turn must round-trip through the response codec unchanged.
TEST(WirePayloadTest, DispatchOracleOverEveryRequestVariant) {
  std::vector<api::AnyRequest> script = nettest::FullCoverageScript();

  core::ShardedSystemOptions one_shard;
  one_shard.num_shards = 1;
  api::Service direct(one_shard);
  api::Service via_codec(one_shard);
  ASSERT_TRUE(direct.Init().ok());
  ASSERT_TRUE(via_codec.Init().ok());

  std::vector<bool> variant_seen(api::kRequestTypeCount, false);
  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("request #" + std::to_string(i) + " (" +
                 api::RequestTypeName(script[i].index()) + ")");
    variant_seen[script[i].index()] = true;

    // Request side: encode, decode, and require a re-encode to be
    // byte-identical (canonical encoding).
    std::string req_bytes = EncodeRequestPayload(script[i]);
    api::AnyRequest decoded_req;
    ASSERT_TRUE(DecodeRequestPayload(TypeTagOf(script[i]), req_bytes,
                                     &decoded_req)
                    .ok());
    ASSERT_EQ(decoded_req.index(), script[i].index());
    EXPECT_EQ(EncodeRequestPayload(decoded_req), req_bytes);

    // Oracle: the decoded request must drive the service exactly like the
    // original did.
    api::AnyResponse want = direct.Dispatch(script[i]);
    api::AnyResponse got = via_codec.Dispatch(decoded_req);
    ASSERT_EQ(got.index(), want.index());
    EXPECT_EQ(ResponseBytes(got), ResponseBytes(want));

    // Response side: decode + re-encode is the identity on bytes.
    std::string resp_bytes = ResponseBytes(want);
    api::AnyResponse decoded_resp;
    ASSERT_TRUE(DecodeResponsePayload(TypeTagOf(want), resp_bytes,
                                      &decoded_resp)
                    .ok());
    EXPECT_EQ(ResponseBytes(decoded_resp), resp_bytes);
  }
  for (size_t v = 0; v < variant_seen.size(); ++v) {
    EXPECT_TRUE(variant_seen[v])
        << "script never exercised " << api::RequestTypeName(v);
  }
}

// Spot-check that rich response content — nested details, feeds, statuses
// with messages, doubles — survives a decode into *struct* form, not just
// canonical bytes.
TEST(WirePayloadTest, RichProjectQueryDecodesFieldByField) {
  api::ProjectQueryResponse resp;
  resp.status = Status::OK();
  resp.info.id = 12;
  resp.info.provider = 3;
  resp.info.spec.name = "n";
  resp.info.spec.budget = 99;
  resp.info.state = core::ProjectState::kRunning;
  resp.info.budget_remaining = 41;
  resp.info.tasks_completed = 58;
  resp.info.num_resources = 6;
  resp.info.quality = 0.123456789012345;
  resp.info.projected_gain = -0.25;
  resp.feed = {{10, 0.5, 7}, {20, 0.625, 9}};
  core::QualityManager::ResourceDetail d;
  d.resource = 4;
  d.posts = 17;
  d.quality = 0.75;
  d.projected_gain_next_task = 0.0625;
  d.stopped = true;
  d.top_tags = {{"beach", 9}, {"sand", 4}};
  resp.details.push_back(d);
  resp.detail_outcome.statuses = {Status::OK(),
                                  Status::NotFound("resource 424242")};
  resp.detail_outcome.ok_count = 1;

  std::string bytes = EncodeResponsePayload(api::AnyResponse{resp});
  api::AnyResponse any;
  ASSERT_TRUE(DecodeResponsePayload(5, bytes, &any).ok());
  const auto& got = std::get<api::ProjectQueryResponse>(any);
  EXPECT_EQ(got.info.id, 12u);
  EXPECT_EQ(got.info.spec.budget, 99u);
  EXPECT_EQ(got.info.state, core::ProjectState::kRunning);
  EXPECT_EQ(got.info.quality, 0.123456789012345);  // bit-exact, no EQ-near
  EXPECT_EQ(got.info.projected_gain, -0.25);
  ASSERT_EQ(got.feed.size(), 2u);
  EXPECT_EQ(got.feed[1].tasks, 20u);
  EXPECT_EQ(got.feed[1].quality, 0.625);
  EXPECT_EQ(got.feed[1].time, 9);
  ASSERT_EQ(got.details.size(), 1u);
  EXPECT_TRUE(got.details[0].stopped);
  ASSERT_EQ(got.details[0].top_tags.size(), 2u);
  EXPECT_EQ(got.details[0].top_tags[0].tag, "beach");
  EXPECT_EQ(got.details[0].top_tags[0].count, 9u);
  ASSERT_EQ(got.detail_outcome.statuses.size(), 2u);
  EXPECT_EQ(got.detail_outcome.statuses[1],
            Status::NotFound("resource 424242"));
  EXPECT_EQ(got.detail_outcome.ok_count, 1u);
}

// ----------------------------------------------------------- golden bytes
//
// One hand-built instance of every message, compared with committed hex:
// a field-order change made in both the encoder and the decoder keeps the
// round trips above green but fails here. Every field is non-default,
// each enum (and the Status code) holds its largest value, and one string
// carries an embedded NUL.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

core::ProjectSpec GoldenSpec() {
  core::ProjectSpec spec;
  spec.name = "spec";
  spec.kind = tagging::ResourceKind::kScientificPaper;
  spec.description = "desc";
  spec.budget = 0x01020304;
  spec.pay_cents = 7;
  spec.platform = core::PlatformChoice::kAudience;
  spec.strategy = strategy::StrategyKind::kEstimatedGain;
  return spec;
}

api::BatchOutcome GoldenOutcome() {
  return api::BatchOutcome{{Status::OK(), Status::Internal("bad")}, 1};
}

api::ProjectQueryResponse GoldenProjectQuery() {
  api::ProjectQueryResponse m;
  m.status = Status::Internal("q");
  m.info.id = 0x0102030405060708;
  m.info.provider = 9;
  m.info.spec = GoldenSpec();
  m.info.state = core::ProjectState::kStopped;
  m.info.budget_remaining = 10;
  m.info.tasks_completed = 11;
  m.info.num_resources = 12;
  m.info.quality = 0.5;
  m.info.projected_gain = -0.25;
  m.feed = {{13, 0.75, -14}};
  core::QualityManager::ResourceDetail d;
  d.resource = 15;
  d.posts = 16;
  d.quality = 1.5;
  d.projected_gain_next_task = 2.0;
  d.stopped = true;
  d.top_tags = {{"tag", 17}};
  m.details = {d};
  m.detail_outcome = GoldenOutcome();
  return m;
}

api::MetricsQueryResponse GoldenMetrics() {
  obs::MetricSample sample;
  sample.name = "api.x";
  sample.kind = obs::MetricKind::kHistogram;
  sample.count = 18;
  sample.gauge = -19;
  sample.sum = 20;
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    sample.buckets.push_back(i);
  }
  return api::MetricsQueryResponse{Status::Internal("m"), {sample}};
}

api::TraceQueryResponse GoldenTraces() {
  obs::SpanRecord span;
  span.span_id = 21;
  span.parent_span_id = 22;
  span.name = "net.request";
  span.start_ns = 23;
  span.end_ns = 24;
  span.annotations = {{"k", "v"}};
  obs::TraceRecord trace;
  trace.trace_id = 25;
  trace.sampled = true;
  trace.duration_ns = 26;
  trace.endpoint = "Step";
  trace.spans = {span};
  return api::TraceQueryResponse{Status::Internal("t"), {trace}};
}

TEST(WireGoldenTest, EveryRequestPayload) {
  const std::vector<std::pair<api::AnyRequest, std::string>> cases = {
      {api::RegisterProviderRequest{"prov"},
       "0400000070726f76"},
      {api::RegisterTaggerRequest{std::string("ta\0g", 4)},
       "0400000074610067"},
      {api::CreateProjectRequest{3, GoldenSpec()},
       "0300000000000000040000007370656304040000006465736304030201070000"
       "000206"},
      {api::BatchUploadResourcesRequest{
           0x0102030405060708,
           {{tagging::ResourceKind::kScientificPaper, "u", "d", {"x", "y"}}}},
       "0807060504030201010000000401000000750100000064020000000100000078"
       "0100000079"},
      {api::BatchControlRequest{
           4,
           {{api::ControlAction::kSwitchStrategy, 5, 6,
             strategy::StrategyKind::kEstimatedGain}}},
       "04000000000000000100000007050000000600000006"},
      {api::ProjectQueryRequest{7, true, {8, 9}},
       "070000000000000001020000000800000009000000"},
      {api::BatchAcceptTasksRequest{10, 11, 12},
       "0a000000000000000b000000000000000c00000000000000"},
      {api::BatchSubmitTagsRequest{{{13, 14, {"a", "b"}}}},
       "010000000d000000000000000e00000000000000020000000100000061010000"
       "0062"},
      {api::BatchDecideRequest{15, {{16, false}}},
       "0f0000000000000001000000100000000000000000"},
      {api::StepRequest{-2},
       "feffffffffffffff"},
      {api::CheckpointRequest{},
       ""},
      {api::MetricsQueryRequest{"api."},
       "040000006170692e"},
      {api::TraceQueryRequest{17, "Step", 18},
       "1100000000000000040000005374657012000000"},
      {api::PromoteRequest{},
       ""},
  };
  ASSERT_EQ(cases.size(), api::kRequestTypeCount);
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(api::RequestTypeName(i));
    const auto& [msg, hex] = cases[i];
    ASSERT_EQ(msg.index(), i);
    const std::string bytes = EncodeRequestPayload(msg);
    EXPECT_EQ(Hex(bytes), hex);
    api::AnyRequest decoded;
    ASSERT_TRUE(DecodeRequestPayload(TypeTagOf(msg), bytes, &decoded).ok());
    EXPECT_EQ(EncodeRequestPayload(decoded), bytes);
  }
}

TEST(WireGoldenTest, EveryResponsePayload) {
  const std::vector<std::pair<api::AnyResponse, std::string>> cases = {
      {api::RegisterProviderResponse{Status::Internal("e"), 30},
       "0b01000000651e00000000000000"},
      {api::RegisterTaggerResponse{Status::Internal("e"), 31},
       "0b01000000651f00000000000000"},
      {api::CreateProjectResponse{Status::Internal("e"), 32},
       "0b01000000652000000000000000"},
      {api::BatchUploadResourcesResponse{GoldenOutcome(),
                                         {33, tagging::kInvalidResource}},
       "0200000000000000000b03000000626164010000000000000002000000210000"
       "00ffffffff"},
      {api::BatchControlResponse{GoldenOutcome()},
       "0200000000000000000b030000006261640100000000000000"},
      {GoldenProjectQuery(),
       "0b01000000710807060504030201090000000000000004000000737065630404"
       "0000006465736304030201070000000206030a0000000b0000000c0000000000"
       "0000000000000000e03f000000000000d0bf010000000d000000000000000000"
       "e83ff2ffffffffffffff010000000f00000010000000000000000000f83f0000"
       "000000000040010100000003000000746167110000000200000000000000000b"
       "030000006261640100000000000000"},
      {api::BatchAcceptTasksResponse{Status::Internal("e"),
                                     {{34, 35, 36, "uri", 37}}},
       "0b01000000650100000022000000000000002300000000000000240000000300"
       "000075726925000000"},
      {api::BatchSubmitTagsResponse{GoldenOutcome()},
       "0200000000000000000b030000006261640100000000000000"},
      {api::BatchDecideResponse{GoldenOutcome()},
       "0200000000000000000b030000006261640100000000000000"},
      {api::StepResponse{Status::Internal("e"), -38},
       "0b0100000065daffffffffffffff"},
      {api::CheckpointResponse{Status::Internal("e"), true, 39, 40},
       "0b01000000650127000000000000002800000000000000"},
      {GoldenMetrics(),
       "0b010000006d01000000050000006170692e78021200000000000000edffffff"
       "ffffffff14000000000000001c00000000000000000000000100000000000000"
       "0200000000000000030000000000000004000000000000000500000000000000"
       "0600000000000000070000000000000008000000000000000900000000000000"
       "0a000000000000000b000000000000000c000000000000000d00000000000000"
       "0e000000000000000f0000000000000010000000000000001100000000000000"
       "1200000000000000130000000000000014000000000000001500000000000000"
       "1600000000000000170000000000000018000000000000001900000000000000"
       "1a000000000000001b00000000000000"},
      {GoldenTraces(),
       "0b0100000074010000001900000000000000011a000000000000000400000053"
       "74657001000000150000000000000016000000000000000b0000006e65742e72"
       "6571756573741700000000000000180000000000000001000000010000006b01"
       "00000076"},
      {api::PromoteResponse{Status::Internal("e"), true},
       "0b010000006501"},
  };
  ASSERT_EQ(cases.size(), api::kRequestTypeCount);
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(api::RequestTypeName(i));
    const auto& [msg, hex] = cases[i];
    ASSERT_EQ(msg.index(), i);
    const std::string bytes = EncodeResponsePayload(msg);
    EXPECT_EQ(Hex(bytes), hex);
    api::AnyResponse decoded;
    ASSERT_TRUE(DecodeResponsePayload(TypeTagOf(msg), bytes, &decoded).ok());
    EXPECT_EQ(EncodeResponsePayload(decoded), bytes);
  }
}

TEST(WireGoldenTest, ReplicationAndErrorFrames) {
  const ReplSubscribe subscribe{5, 4, 0x0102030405060708, {41, 42}};
  const ReplBatch batch{3, 43, 44, std::string("rec\0rd", 6)};
  const ReplAck ack{{45, 46}};
  const std::string subscribe_bytes = EncodeReplSubscribeFrame(1, subscribe);
  const std::string batch_bytes = EncodeReplBatchFrame(2, batch);
  const std::string ack_bytes = EncodeReplAckFrame(3, ack);
  const std::string error_bytes =
      EncodeErrorFrame(4, Status::ResourceExhausted("busy"), /*type=*/9);
  EXPECT_EQ(Hex(subscribe_bytes),
            "695461670500000003000000010000000000000024000000541e1add05000000"
            "0400000008070605040302010200000029000000000000002a00000000000000");
  EXPECT_EQ(Hex(batch_bytes),
            "69546167050000000400000002000000000000001e00000015aafb5703000000"
            "2b000000000000002c0000000000000006000000726563007264");
  EXPECT_EQ(Hex(ack_bytes),
            "69546167050000000500000003000000000000001400000092e9e34a02000000"
            "2d000000000000002e00000000000000");
  EXPECT_EQ(Hex(error_bytes),
            "6954616705000000020009000400000000000000090000004f379b7906040000"
            "0062757379");

  // The decoders read back what the encoders wrote.
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(subscribe_bytes, &frame, &consumed).ok());
  ReplSubscribe subscribe_out;
  ASSERT_TRUE(DecodeReplSubscribe(frame, &subscribe_out).ok());
  EXPECT_EQ(EncodeReplSubscribeFrame(1, subscribe_out), subscribe_bytes);
  ASSERT_TRUE(TryDecodeFrame(batch_bytes, &frame, &consumed).ok());
  ReplBatch batch_out;
  ASSERT_TRUE(DecodeReplBatch(frame, &batch_out).ok());
  EXPECT_EQ(EncodeReplBatchFrame(2, batch_out), batch_bytes);
  ASSERT_TRUE(TryDecodeFrame(ack_bytes, &frame, &consumed).ok());
  ReplAck ack_out;
  ASSERT_TRUE(DecodeReplAck(frame, &ack_out).ok());
  EXPECT_EQ(EncodeReplAckFrame(3, ack_out), ack_bytes);
}

}  // namespace
}  // namespace itag::net
