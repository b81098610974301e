#include "net/wire.h"

#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/crc32.h"

namespace itag::net {

namespace {

// ------------------------------------------------------------ field lists

/// The payload layout: the data members of every wire struct, in wire
/// order. Put and Get below walk this one list in both directions, so the
/// encoder and the decoder cannot disagree on a struct's layout.
template <typename T>
constexpr auto FieldsOf() {
  // ---- shared core structs
  if constexpr (std::is_same_v<T, core::ProjectSpec>) {
    return std::make_tuple(&T::name, &T::kind, &T::description, &T::budget,
                           &T::pay_cents, &T::platform, &T::strategy);
  } else if constexpr (std::is_same_v<T, core::ProjectInfo>) {
    return std::make_tuple(&T::id, &T::provider, &T::spec, &T::state,
                           &T::budget_remaining, &T::tasks_completed,
                           &T::num_resources, &T::quality, &T::projected_gain);
  } else if constexpr (std::is_same_v<T, core::QualityPoint>) {
    return std::make_tuple(&T::tasks, &T::quality, &T::time);
  } else if constexpr (std::is_same_v<T, core::TagFrequency>) {
    return std::make_tuple(&T::tag, &T::count);
  } else if constexpr (std::is_same_v<T,
                                      core::QualityManager::ResourceDetail>) {
    return std::make_tuple(&T::resource, &T::posts, &T::quality,
                           &T::projected_gain_next_task, &T::stopped,
                           &T::top_tags);
  } else if constexpr (std::is_same_v<T, core::AcceptedTask>) {
    return std::make_tuple(&T::handle, &T::project, &T::resource, &T::uri,
                           &T::pay_cents);
  } else if constexpr (std::is_same_v<T, api::BatchOutcome>) {
    return std::make_tuple(&T::statuses, &T::ok_count);

    // ---- request structs
  } else if constexpr (std::is_same_v<T, api::RegisterProviderRequest>) {
    return std::make_tuple(&T::name);
  } else if constexpr (std::is_same_v<T, api::RegisterTaggerRequest>) {
    return std::make_tuple(&T::name);
  } else if constexpr (std::is_same_v<T, api::CreateProjectRequest>) {
    return std::make_tuple(&T::provider, &T::spec);
  } else if constexpr (std::is_same_v<T, api::UploadResourceItem>) {
    return std::make_tuple(&T::kind, &T::uri, &T::description,
                           &T::initial_tags);
  } else if constexpr (std::is_same_v<T, api::BatchUploadResourcesRequest>) {
    return std::make_tuple(&T::project, &T::items);
  } else if constexpr (std::is_same_v<T, api::ControlItem>) {
    return std::make_tuple(&T::action, &T::resource, &T::budget_tasks,
                           &T::strategy);
  } else if constexpr (std::is_same_v<T, api::BatchControlRequest>) {
    return std::make_tuple(&T::project, &T::items);
  } else if constexpr (std::is_same_v<T, api::ProjectQueryRequest>) {
    return std::make_tuple(&T::project, &T::include_feed,
                           &T::detail_resources);
  } else if constexpr (std::is_same_v<T, api::BatchAcceptTasksRequest>) {
    return std::make_tuple(&T::tagger, &T::project, &T::count);
  } else if constexpr (std::is_same_v<T, api::SubmitTagsItem>) {
    return std::make_tuple(&T::tagger, &T::handle, &T::tags);
  } else if constexpr (std::is_same_v<T, api::BatchSubmitTagsRequest>) {
    return std::make_tuple(&T::items);
  } else if constexpr (std::is_same_v<T, api::DecideItem>) {
    return std::make_tuple(&T::handle, &T::approve);
  } else if constexpr (std::is_same_v<T, api::BatchDecideRequest>) {
    return std::make_tuple(&T::provider, &T::items);
  } else if constexpr (std::is_same_v<T, api::StepRequest>) {
    return std::make_tuple(&T::ticks);
  } else if constexpr (std::is_same_v<T, api::CheckpointRequest>) {
    return std::make_tuple();
  } else if constexpr (std::is_same_v<T, api::MetricsQueryRequest>) {
    return std::make_tuple(&T::prefix);
  } else if constexpr (std::is_same_v<T, api::TraceQueryRequest>) {
    return std::make_tuple(&T::min_duration_us, &T::endpoint,
                           &T::max_traces);
  } else if constexpr (std::is_same_v<T, api::PromoteRequest>) {
    return std::make_tuple();

    // ---- response structs
  } else if constexpr (std::is_same_v<T, api::RegisterProviderResponse>) {
    return std::make_tuple(&T::status, &T::provider);
  } else if constexpr (std::is_same_v<T, api::RegisterTaggerResponse>) {
    return std::make_tuple(&T::status, &T::tagger);
  } else if constexpr (std::is_same_v<T, api::CreateProjectResponse>) {
    return std::make_tuple(&T::status, &T::project);
  } else if constexpr (std::is_same_v<T, api::BatchUploadResourcesResponse>) {
    return std::make_tuple(&T::outcome, &T::resources);
  } else if constexpr (std::is_same_v<T, api::BatchControlResponse>) {
    return std::make_tuple(&T::outcome);
  } else if constexpr (std::is_same_v<T, api::ProjectQueryResponse>) {
    return std::make_tuple(&T::status, &T::info, &T::feed, &T::details,
                           &T::detail_outcome);
  } else if constexpr (std::is_same_v<T, api::BatchAcceptTasksResponse>) {
    return std::make_tuple(&T::status, &T::tasks);
  } else if constexpr (std::is_same_v<T, api::BatchSubmitTagsResponse>) {
    return std::make_tuple(&T::outcome);
  } else if constexpr (std::is_same_v<T, api::BatchDecideResponse>) {
    return std::make_tuple(&T::outcome);
  } else if constexpr (std::is_same_v<T, api::StepResponse>) {
    return std::make_tuple(&T::status, &T::now);
  } else if constexpr (std::is_same_v<T, api::CheckpointResponse>) {
    return std::make_tuple(&T::status, &T::durable, &T::tables, &T::rows);
  } else if constexpr (std::is_same_v<T, api::MetricsQueryResponse>) {
    return std::make_tuple(&T::status, &T::metrics);
  } else if constexpr (std::is_same_v<T, api::TraceQueryResponse>) {
    return std::make_tuple(&T::status, &T::traces);
  } else if constexpr (std::is_same_v<T, api::PromoteResponse>) {
    return std::make_tuple(&T::status, &T::was_replica);

    // ---- observability structs (v3 MetricsQuery, v4 TraceQuery)
  } else if constexpr (std::is_same_v<T, obs::MetricSample>) {
    return std::make_tuple(&T::name, &T::kind, &T::count, &T::gauge, &T::sum,
                           &T::buckets);
  } else if constexpr (std::is_same_v<T, obs::SpanAnnotation>) {
    return std::make_tuple(&T::key, &T::value);
  } else if constexpr (std::is_same_v<T, obs::SpanRecord>) {
    return std::make_tuple(&T::span_id, &T::parent_span_id, &T::name,
                           &T::start_ns, &T::end_ns, &T::annotations);
  } else if constexpr (std::is_same_v<T, obs::TraceRecord>) {
    return std::make_tuple(&T::trace_id, &T::sampled, &T::duration_ns,
                           &T::endpoint, &T::spans);

    // ---- replication stream (v5 frame kinds 3-5)
  } else if constexpr (std::is_same_v<T, ReplSubscribe>) {
    return std::make_tuple(&T::num_dbs, &T::num_shards, &T::seed,
                           &T::from_lsns);
  } else if constexpr (std::is_same_v<T, ReplBatch>) {
    return std::make_tuple(&T::db_index, &T::head_lsn, &T::head_bytes,
                           &T::record);
  } else if constexpr (std::is_same_v<T, ReplAck>) {
    return std::make_tuple(&T::applied_lsns);
  } else {
    static_assert(sizeof(T) == 0, "not a wire struct: give it a field list");
  }
}

/// The largest valid value of each one-byte wire type. A decoded byte above
/// it fails the parse, so a corrupt or future-version value never smuggles
/// an out-of-range enum into the core.
constexpr auto kLargest = std::make_tuple(
    true, tagging::ResourceKind::kScientificPaper,
    core::PlatformChoice::kAudience, strategy::StrategyKind::kEstimatedGain,
    core::ProjectState::kStopped, api::ControlAction::kSwitchStrategy,
    obs::MetricKind::kHistogram);

/// Invariants a decoded struct must hold beyond its fields' own checks.
template <typename T>
bool Valid(const T&) {
  return true;
}
bool Valid(const obs::MetricSample& m) {
  // The bucket model is fixed (kHistogramBuckets for histograms, empty
  // otherwise); any other length is a malformed sample, not something
  // ApproxQuantile/RenderText should be handed.
  return m.buckets.empty() || m.buckets.size() == obs::kHistogramBuckets;
}
bool Valid(const obs::SpanRecord& m) {
  // A span that ends before it starts (or a zero id) cannot have been
  // produced by the tracer; reject it as malformed rather than letting
  // renderers underflow the duration.
  return m.span_id != 0 && m.end_ns >= m.start_ns;
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

// ------------------------------------------- the generic encoder / decoder

/// Appends `v`: bools and enums as one byte, uint32_t as four, the other
/// integers and doubles as eight, strings and vectors u32-count-prefixed,
/// Status via EncodeStatus, and wire structs field by field.
template <typename T>
void Put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    w.U8(static_cast<uint8_t>(v));
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    w.U32(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) == 8, "wire integers are uint32_t or 64-bit");
    w.U64(static_cast<uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.F64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.Str(v);
  } else if constexpr (std::is_same_v<T, Status>) {
    EncodeStatus(w, v);
  } else if constexpr (kIsVector<T>) {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) Put(w, e);
  } else {
    std::apply([&](auto... field) { (Put(w, v.*field), ...); }, FieldsOf<T>());
  }
}

/// Reads what Put<T> wrote. False on truncation, an out-of-range byte, or
/// a struct that breaks its Valid() invariant.
template <typename T>
bool Get(ByteReader& r, T* v) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    uint8_t b = 0;
    if (!r.U8(&b) || b > static_cast<uint8_t>(std::get<T>(kLargest))) {
      return false;
    }
    *v = static_cast<T>(b);
    return true;
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return r.U32(v);
  } else if constexpr (std::is_integral_v<T>) {
    uint64_t u = 0;
    if (!r.U64(&u)) return false;
    *v = static_cast<T>(u);
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    return r.F64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r.Str(v);
  } else if constexpr (std::is_same_v<T, Status>) {
    return DecodeStatus(r, v);
  } else if constexpr (kIsVector<T>) {
    uint32_t n = 0;
    if (!r.U32(&n)) return false;
    v->clear();
    // No reserve(n): every element consumes >= 1 byte, so a lying count
    // fails fast on read instead of pre-allocating gigabytes.
    for (uint32_t i = 0; i < n; ++i) {
      typename T::value_type e{};
      if (!Get(r, &e)) return false;
      v->push_back(std::move(e));
    }
    return true;
  } else {
    return std::apply(
               [&](auto... field) { return (Get(r, &(v->*field)) && ...); },
               FieldsOf<T>()) &&
           Valid(*v);
  }
}

template <typename T>
std::string Encode(const T& msg) {
  ByteWriter w;
  Put(w, msg);
  return w.Take();
}

/// Parses `payload` as a T, rejecting trailing bytes, and stores it into
/// `*out` (a T, or a variant with a T alternative).
template <typename T, typename Out>
Status DecodeAs(std::string_view payload, Out* out, const char* name) {
  ByteReader r(payload);
  T msg{};
  if (!Get(r, &msg) || !r.AtEnd()) {
    return Status::InvalidArgument(std::string("malformed ") + name +
                                   " payload");
  }
  *out = std::move(msg);
  return Status::OK();
}

/// Decodes the `Variant` alternative whose index is the type tag `type`.
template <typename Variant, size_t... I>
Status DecodeAlternative(const char* side, uint16_t type,
                         std::string_view payload, Variant* out,
                         std::index_sequence<I...>) {
  if (type >= sizeof...(I)) {
    return Status::Unimplemented(std::string("unknown ") + side +
                                 " type tag " + std::to_string(type));
  }
  using Decoder = Status (*)(std::string_view, Variant*, const char*);
  static constexpr Decoder kDecoders[] = {
      &DecodeAs<std::variant_alternative_t<I, Variant>, Variant>...};
  return kDecoders[type](payload, out, api::RequestTypeName(type));
}

}  // namespace

// ----------------------------------------------------------------- Status

void EncodeStatus(ByteWriter& w, const Status& status) {
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
}

bool DecodeStatus(ByteReader& r, Status* out) {
  uint8_t code = 0;
  std::string message;
  if (!r.U8(&code) || code > static_cast<uint8_t>(StatusCode::kInternal) ||
      !r.Str(&message)) {
    return false;
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

// ----------------------------------------------------------------- frames

namespace {

std::string EncodeFrame(FrameKind kind, uint16_t type, uint64_t correlation,
                        uint32_t version, const std::string& payload) {
  ByteWriter w;
  w.U32(kMagic);
  w.U32(version);
  w.U8(static_cast<uint8_t>(kind));
  w.U8(0);  // reserved
  w.U16(type);
  w.U64(correlation);
  w.U32(static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32(w.buffer().data(), w.buffer().size());
  crc = Crc32Extend(crc, payload.data(), payload.size());
  w.U32(crc);
  w.Raw(payload);
  return w.Take();
}

}  // namespace

std::string EncodeRequestFrame(uint64_t correlation,
                               const api::AnyRequest& request,
                               uint32_t version) {
  return EncodeFrame(FrameKind::kRequest, TypeTagOf(request), correlation,
                     version, EncodeRequestPayload(request));
}

std::string EncodeResponseFrame(uint64_t correlation,
                                const api::AnyResponse& response) {
  return EncodeFrame(FrameKind::kResponse, TypeTagOf(response), correlation,
                     api::kApiVersion, EncodeResponsePayload(response));
}

std::string EncodeErrorFrame(uint64_t correlation, const Status& error,
                             uint16_t type) {
  return EncodeFrame(FrameKind::kError, type, correlation, api::kApiVersion,
                     Encode(error));
}

Status TryDecodeFrame(std::string_view buf, Frame* out, size_t* consumed,
                      size_t max_frame_bytes) {
  *consumed = 0;
  if (buf.size() < kHeaderSize) return Status::OK();
  ByteReader r(buf.substr(0, kHeaderSize));
  uint32_t magic = 0, version = 0, payload_size = 0, crc = 0;
  uint8_t kind = 0, reserved = 0;
  uint16_t type = 0;
  uint64_t correlation = 0;
  r.U32(&magic);
  r.U32(&version);
  r.U8(&kind);
  r.U8(&reserved);
  r.U16(&type);
  r.U64(&correlation);
  r.U32(&payload_size);
  r.U32(&crc);
  if (magic != kMagic) return Status::Corruption("bad frame magic");
  if (kind > static_cast<uint8_t>(FrameKind::kReplAck)) {
    return Status::Corruption("bad frame kind " + std::to_string(kind));
  }
  if (reserved != 0) {
    return Status::Corruption("nonzero reserved header byte");
  }
  if (payload_size > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload_size) +
        " bytes exceeds cap of " + std::to_string(max_frame_bytes));
  }
  if (buf.size() - kHeaderSize < payload_size) return Status::OK();
  uint32_t expected = Crc32(buf.data(), kHeaderSize - sizeof(uint32_t));
  expected = Crc32Extend(expected, buf.data() + kHeaderSize, payload_size);
  if (expected != crc) return Status::Corruption("frame crc mismatch");
  out->kind = static_cast<FrameKind>(kind);
  out->version = version;
  out->type = type;
  out->correlation = correlation;
  out->payload.assign(buf.data() + kHeaderSize, payload_size);
  *consumed = kHeaderSize + payload_size;
  return Status::OK();
}

// --------------------------------------------------------------- payloads

uint16_t TypeTagOf(const api::AnyRequest& request) {
  return static_cast<uint16_t>(request.index());
}

uint16_t TypeTagOf(const api::AnyResponse& response) {
  return static_cast<uint16_t>(response.index());
}

std::string EncodeRequestPayload(const api::AnyRequest& request) {
  return std::visit([](const auto& m) { return Encode(m); }, request);
}

std::string EncodeResponsePayload(const api::AnyResponse& response) {
  return std::visit([](const auto& m) { return Encode(m); }, response);
}

Status DecodeRequestPayload(uint16_t type, std::string_view payload,
                            api::AnyRequest* out) {
  return DecodeAlternative(
      "request", type, payload, out,
      std::make_index_sequence<std::variant_size_v<api::AnyRequest>>());
}

Status DecodeResponsePayload(uint16_t type, std::string_view payload,
                             api::AnyResponse* out) {
  return DecodeAlternative(
      "response", type, payload, out,
      std::make_index_sequence<std::variant_size_v<api::AnyResponse>>());
}

std::optional<core::ProjectId> PeekProjectId(uint16_t type,
                                             std::string_view payload) {
  // The project id leads the field lists of the first three; in
  // BatchAcceptTasks it follows the u64 tagger id.
  size_t offset = 0;
  switch (type) {
    case api::kRequestTypeIndex<api::BatchUploadResourcesRequest>:
    case api::kRequestTypeIndex<api::BatchControlRequest>:
    case api::kRequestTypeIndex<api::ProjectQueryRequest>:
      break;
    case api::kRequestTypeIndex<api::BatchAcceptTasksRequest>:
      offset = 8;
      break;
    default:
      return std::nullopt;
  }
  core::ProjectId project = 0;
  if (payload.size() < offset ||
      !ByteReader(payload.substr(offset)).U64(&project)) {
    return std::nullopt;
  }
  return project;
}

bool IsViewOnlyQuery(uint16_t type, std::string_view payload) {
  if (type != api::kRequestTypeIndex<api::ProjectQueryRequest>) return false;
  // The field list: project (u64), include_feed (u8), then the u32 count
  // of detail_resources.
  ByteReader r(payload);
  uint64_t project = 0;
  uint8_t include_feed = 0;
  uint32_t details = 0;
  return r.U64(&project) && r.U8(&include_feed) && r.U32(&details) &&
         details == 0;
}

// ------------------------------------------------------------- replication

std::string EncodeReplSubscribeFrame(uint64_t correlation,
                                     const ReplSubscribe& msg,
                                     uint32_t version) {
  return EncodeFrame(FrameKind::kReplSubscribe, 0, correlation, version,
                     Encode(msg));
}

std::string EncodeReplBatchFrame(uint64_t correlation, const ReplBatch& msg) {
  return EncodeFrame(FrameKind::kReplBatch, 0, correlation, api::kApiVersion,
                     Encode(msg));
}

std::string EncodeReplAckFrame(uint64_t correlation, const ReplAck& msg) {
  return EncodeFrame(FrameKind::kReplAck, 0, correlation, api::kApiVersion,
                     Encode(msg));
}

Status DecodeReplSubscribe(const Frame& frame, ReplSubscribe* out) {
  return DecodeAs<ReplSubscribe>(frame.payload, out, "ReplSubscribe");
}

Status DecodeReplBatch(const Frame& frame, ReplBatch* out) {
  return DecodeAs<ReplBatch>(frame.payload, out, "ReplBatch");
}

Status DecodeReplAck(const Frame& frame, ReplAck* out) {
  return DecodeAs<ReplAck>(frame.payload, out, "ReplAck");
}

}  // namespace itag::net
