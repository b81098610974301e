#ifndef ITAG_NET_CLIENT_H_
#define ITAG_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "api/requests.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "net/wire.h"

namespace itag::net {

/// Blocking client for the iTag wire protocol, mirroring the api::Service
/// endpoint surface over one TCP connection.
///
/// Two calling styles:
///  - Synchronous: `Dispatch()` (or a typed endpoint wrapper) sends one
///    request and blocks for its reply.
///  - Pipelined: `DispatchAsync()` sends without waiting and returns the
///    frame's correlation id; `Await(id)` blocks until *that* reply arrives,
///    parking replies that overtake it (the server answers out of order).
///
/// Error model: a transport or framing failure surfaces as the Result's
/// status (IOError/Corruption) and poisons the connection; a *typed* error
/// reply from the server (version mismatch → FailedPrecondition, overload →
/// ResourceExhausted, malformed payload → InvalidArgument) surfaces as the
/// Result's status while the connection stays usable. Application-level
/// failures arrive inside the response structs, exactly as in-process.
///
/// Not thread-safe: one Client per thread (connections are cheap).
class Client {
 public:
  Client() = default;
  ~Client() = default;

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  Status Connect(const std::string& host, uint16_t port);
  void Close() { sock_.Close(); }
  bool connected() const { return sock_.valid(); }

  /// One synchronous round trip.
  Result<api::AnyResponse> Dispatch(const api::AnyRequest& request);

  /// Sends without waiting; returns the correlation id to Await() on.
  Result<uint64_t> DispatchAsync(const api::AnyRequest& request);

  /// Blocks until the reply for `correlation` arrives. Replies for other
  /// pending ids received meanwhile are parked for their own Await().
  Result<api::AnyResponse> Await(uint64_t correlation);

  /// Replies already parked (receivable without blocking via Await()).
  size_t ready_count() const { return ready_.size(); }

  // ------------------------------------------------- typed endpoint mirror

  Result<api::RegisterProviderResponse> RegisterProvider(
      const api::RegisterProviderRequest& req);
  Result<api::RegisterTaggerResponse> RegisterTagger(
      const api::RegisterTaggerRequest& req);
  Result<api::CreateProjectResponse> CreateProject(
      const api::CreateProjectRequest& req);
  Result<api::BatchUploadResourcesResponse> BatchUploadResources(
      const api::BatchUploadResourcesRequest& req);
  Result<api::BatchControlResponse> BatchControl(
      const api::BatchControlRequest& req);
  Result<api::ProjectQueryResponse> ProjectQuery(
      const api::ProjectQueryRequest& req);
  Result<api::BatchAcceptTasksResponse> BatchAcceptTasks(
      const api::BatchAcceptTasksRequest& req);
  Result<api::BatchSubmitTagsResponse> BatchSubmitTags(
      const api::BatchSubmitTagsRequest& req);
  Result<api::BatchDecideResponse> BatchDecide(
      const api::BatchDecideRequest& req);
  Result<api::StepResponse> Step(const api::StepRequest& req);
  Result<api::CheckpointResponse> Checkpoint(const api::CheckpointRequest& req);
  /// v3 observability endpoint: the server's metrics snapshot, optionally
  /// filtered by name prefix (see api::MetricsQueryRequest).
  Result<api::MetricsQueryResponse> Metrics(const api::MetricsQueryRequest& req);
  /// v4 tracing endpoint: retained request traces (span trees), newest
  /// first, filtered by min duration / endpoint (see api::TraceQueryRequest).
  Result<api::TraceQueryResponse> Traces(const api::TraceQueryRequest& req);
  /// v5 failover endpoint: flips a read replica writable (see
  /// api::PromoteRequest for the idempotency contract).
  Result<api::PromoteResponse> Promote(const api::PromoteRequest& req);

  /// The version stamped on outgoing frames. Defaults to api::kApiVersion;
  /// overridable so tests (and future downgrade shims) can exercise the
  /// server's version negotiation.
  uint32_t wire_version() const { return wire_version_; }
  void set_wire_version(uint32_t version) { wire_version_ = version; }

 private:
  template <typename Resp>
  Result<Resp> Call(const api::AnyRequest& request);

  /// Reads one whole frame off the socket (blocking).
  Result<Frame> ReadFrame();
  /// Turns a received frame into the caller-visible result.
  Result<api::AnyResponse> InterpretFrame(const Frame& frame);

  Socket sock_;
  std::string inbuf_;
  uint64_t next_correlation_ = 1;
  uint32_t wire_version_ = api::kApiVersion;
  std::unordered_set<uint64_t> pending_;
  std::unordered_map<uint64_t, Result<api::AnyResponse>> ready_;
};

}  // namespace itag::net

#endif  // ITAG_NET_CLIENT_H_
