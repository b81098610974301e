#ifndef ITAG_NET_WIRE_H_
#define ITAG_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/requests.h"
#include "common/binio.h"
#include "common/status.h"

namespace itag::net {

// ---------------------------------------------------------------- framing
//
// Every message on an iTag connection is one length-prefixed frame:
//
//   offset  size  field
//        0     4  magic        0x67615469 ("iTag" as little-endian bytes)
//        4     4  version      api::kApiVersion of the sender
//        8     1  kind         0 request / 1 response / 2 error reply
//        9     1  reserved     must be 0
//       10     2  type         AnyRequest/AnyResponse variant index
//       12     8  correlation  echoed verbatim on the reply
//       20     4  payload_size bytes following the header
//       24     4  crc          CRC-32 over header[0..24) + payload
//       28     …  payload      body, laid out by the field lists in wire.cc
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern, so responses round-trip bit-exactly. The CRC (the WAL's
// common/crc32.h) covers the header *and* payload: a flipped bit anywhere
// is Corruption, not a silently wrong reply.

inline constexpr uint32_t kMagic = 0x67615469;  // "iTag"
inline constexpr size_t kHeaderSize = 28;
/// Default cap on payload_size; a header announcing more is malformed
/// (protects the server from one rogue frame allocating gigabytes).
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameKind : uint8_t {
  kRequest = 0,
  kResponse = 1,
  /// A typed Status instead of a response: version mismatch
  /// (FailedPrecondition), overload (ResourceExhausted), malformed payload
  /// (InvalidArgument), unknown type tag (Unimplemented).
  kError = 2,
  /// Replication stream (v5). A follower opens an ordinary connection and
  /// sends one kReplSubscribe; the primary answers with a continuous flow of
  /// kReplBatch frames (one WAL record each) and the follower reports
  /// progress with periodic kReplAck frames. `type` is 0 for all three; the
  /// kind alone routes them. See docs/replication.md.
  kReplSubscribe = 3,
  kReplBatch = 4,
  kReplAck = 5,
};

/// One decoded frame. For kRequest/kResponse `type` is the variant index;
/// for kError the payload is an encoded Status and `type` echoes the
/// request's type when known.
struct Frame {
  FrameKind kind = FrameKind::kRequest;
  uint32_t version = 0;
  uint16_t type = 0;
  uint64_t correlation = 0;
  std::string payload;
};

// ----------------------------------------------------------------- Status

/// Statuses travel code **and** message, so a client sees exactly the
/// per-item diagnostics an in-process caller would (error fidelity).
void EncodeStatus(ByteWriter& w, const Status& status);
bool DecodeStatus(ByteReader& r, Status* out);

// ----------------------------------------------------------------- frames

/// Encodes a whole request frame. `version` defaults to the binary's own
/// api::kApiVersion; tests (and future compatibility shims) may stamp a
/// different one to exercise the server's version negotiation.
std::string EncodeRequestFrame(uint64_t correlation,
                               const api::AnyRequest& request,
                               uint32_t version = api::kApiVersion);
std::string EncodeResponseFrame(uint64_t correlation,
                                const api::AnyResponse& response);
/// Encodes an error-reply frame carrying `error` (must not be OK).
/// `type` should echo the offending request's type tag when known.
std::string EncodeErrorFrame(uint64_t correlation, const Status& error,
                             uint16_t type = 0);

/// Extracts one frame from the front of `buf`. Returns OK with
/// `*consumed > 0` when a full valid frame was parsed, OK with
/// `*consumed == 0` when more bytes are needed, and an error when the
/// stream is unrecoverable (bad magic → Corruption, oversized
/// payload_size → InvalidArgument, CRC mismatch → Corruption).
Status TryDecodeFrame(std::string_view buf, Frame* out, size_t* consumed,
                      size_t max_frame_bytes = kDefaultMaxFrameBytes);

// --------------------------------------------------------------- payloads

/// The frame type tag of a request/response: its variant index.
uint16_t TypeTagOf(const api::AnyRequest& request);
uint16_t TypeTagOf(const api::AnyResponse& response);

std::string EncodeRequestPayload(const api::AnyRequest& request);
std::string EncodeResponsePayload(const api::AnyResponse& response);

/// Rebuilds the request of variant index `type` from `payload`. Unknown
/// `type` → Unimplemented; a payload that does not parse (or leaves
/// trailing bytes) → InvalidArgument.
Status DecodeRequestPayload(uint16_t type, std::string_view payload,
                            api::AnyRequest* out);
Status DecodeResponsePayload(uint16_t type, std::string_view payload,
                             api::AnyResponse* out);

/// The project id an encoded request payload of variant index `type`
/// targets, read without decoding the rest: BatchUploadResources,
/// BatchControl, ProjectQuery and BatchAcceptTasks carry one. nullopt for
/// every other type and for a payload too short to hold the id.
std::optional<core::ProjectId> PeekProjectId(uint16_t type,
                                             std::string_view payload);

/// True when an encoded request payload of variant index `type` is a
/// ProjectQuery listing no detail_resources: a read served entirely from
/// the project's published view, which a reactor answers without the
/// worker pool. Read without decoding the rest; false for every other
/// type and for a payload too short to tell.
bool IsViewOnlyQuery(uint16_t type, std::string_view payload);

// ------------------------------------------------------------- replication
//
// The v5 stream messages (kinds 3–5). They ride the same framing (magic,
// version, CRC) as requests, so the fuzz harness and the frame decoder
// treat them uniformly; only the payload schema differs.

/// Follower → primary: start (or resume) streaming. The config triple must
/// match the primary's exactly — a follower replaying the same deterministic
/// init against a different shard count or seed would diverge silently, so
/// the primary answers a mismatch with a kError frame and closes.
struct ReplSubscribe {
  uint32_t num_dbs = 0;    ///< shard DBs + 1 placement DB; must match
  uint32_t num_shards = 0; ///< primary's shard count; must match
  uint64_t seed = 0;       ///< primary's base seed; must match
  /// Resume cursors, one per DB in index order (placement last): the highest
  /// LSN the follower has durably applied; the primary streams strictly
  /// after these.
  std::vector<uint64_t> from_lsns;
};

/// Primary → follower: one committed WAL record of one DB, plus the
/// primary's log head at send time so the follower can compute lag without
/// a round-trip.
struct ReplBatch {
  uint32_t db_index = 0;   ///< which DB the record belongs to
  uint64_t head_lsn = 0;   ///< primary's highest LSN in this DB's log
  uint64_t head_bytes = 0; ///< primary's log size in bytes (for lag_bytes)
  std::string record;      ///< storage::EncodeWalRecord payload (has its LSN)
};

/// Follower → primary: durable progress, one LSN per DB in index order.
/// Advisory in this version (the primary logs it); carried on the wire so
/// a future primary can gate WAL truncation on subscriber progress.
struct ReplAck {
  std::vector<uint64_t> applied_lsns;
};

std::string EncodeReplSubscribeFrame(uint64_t correlation,
                                     const ReplSubscribe& msg,
                                     uint32_t version = api::kApiVersion);
std::string EncodeReplBatchFrame(uint64_t correlation, const ReplBatch& msg);
std::string EncodeReplAckFrame(uint64_t correlation, const ReplAck& msg);

/// Parse the payload of a frame whose kind already matched. InvalidArgument
/// on a malformed (or trailing-bytes) payload, like the request decoders.
Status DecodeReplSubscribe(const Frame& frame, ReplSubscribe* out);
Status DecodeReplBatch(const Frame& frame, ReplBatch* out);
Status DecodeReplAck(const Frame& frame, ReplAck* out);

}  // namespace itag::net

#endif  // ITAG_NET_WIRE_H_
