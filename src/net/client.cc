#include "net/client.h"

#include <utility>
#include <variant>

namespace itag::net {

Status Client::Connect(const std::string& host, uint16_t port) {
  ITAG_ASSIGN_OR_RETURN(sock_, Socket::Connect(host, port));
  ITAG_RETURN_IF_ERROR(sock_.SetNoDelay(true));
  inbuf_.clear();
  pending_.clear();
  ready_.clear();
  return Status::OK();
}

Result<uint64_t> Client::DispatchAsync(const api::AnyRequest& request) {
  if (!sock_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  uint64_t correlation = next_correlation_++;
  std::string frame = EncodeRequestFrame(correlation, request, wire_version_);
  ITAG_RETURN_IF_ERROR(sock_.WriteAll(frame.data(), frame.size()));
  pending_.insert(correlation);
  return correlation;
}

Result<Frame> Client::ReadFrame() {
  char buf[16384];
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    ITAG_RETURN_IF_ERROR(TryDecodeFrame(inbuf_, &frame, &consumed));
    if (consumed > 0) {
      inbuf_.erase(0, consumed);
      return frame;
    }
    ITAG_ASSIGN_OR_RETURN(size_t got, sock_.ReadSome(buf, sizeof(buf)));
    inbuf_.append(buf, got);
  }
}

Result<api::AnyResponse> Client::InterpretFrame(const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kError: {
      // A typed refusal from the server; the carried Status *is* the
      // result. Version is deliberately not checked here — the mismatch
      // reply of a newer/older server must still be readable.
      ByteReader r(frame.payload);
      Status error;
      if (!DecodeStatus(r, &error) || !r.AtEnd()) {
        return Status::Corruption("malformed error reply");
      }
      if (error.ok()) {
        return Status::Internal("server sent an OK error reply");
      }
      return error;
    }
    case FrameKind::kResponse: {
      if (!api::IsCompatibleApiVersion(frame.version)) {
        return Status::FailedPrecondition(
            "response frame speaks api v" + std::to_string(frame.version) +
            ", client speaks v" + std::to_string(api::kApiVersion));
      }
      api::AnyResponse response;
      ITAG_RETURN_IF_ERROR(
          DecodeResponsePayload(frame.type, frame.payload, &response));
      return response;
    }
    case FrameKind::kRequest:
    case FrameKind::kReplSubscribe:
    case FrameKind::kReplBatch:
    case FrameKind::kReplAck:
      break;
  }
  return Status::Corruption("server sent a non-response frame");
}

Result<api::AnyResponse> Client::Await(uint64_t correlation) {
  auto ready = ready_.find(correlation);
  if (ready != ready_.end()) {
    Result<api::AnyResponse> result = std::move(ready->second);
    ready_.erase(ready);
    return result;
  }
  if (pending_.find(correlation) == pending_.end()) {
    return Status::InvalidArgument("unknown correlation id " +
                                   std::to_string(correlation));
  }
  for (;;) {
    ITAG_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    Result<api::AnyResponse> result = InterpretFrame(frame);
    if (frame.correlation == correlation) {
      pending_.erase(correlation);
      return result;
    }
    // A pipelined sibling overtook us: park it for its own Await().
    if (pending_.erase(frame.correlation) > 0) {
      ready_.emplace(frame.correlation, std::move(result));
    }
    // Unsolicited correlation ids are dropped (a server bug, but not one
    // worth poisoning the stream over).
  }
}

Result<api::AnyResponse> Client::Dispatch(const api::AnyRequest& request) {
  ITAG_ASSIGN_OR_RETURN(uint64_t correlation, DispatchAsync(request));
  return Await(correlation);
}

template <typename Resp>
Result<Resp> Client::Call(const api::AnyRequest& request) {
  Result<api::AnyResponse> any = Dispatch(request);
  if (!any.ok()) return any.status();
  Resp* typed = std::get_if<Resp>(&any.value());
  if (typed == nullptr) {
    return Status::Internal("server response type does not match request");
  }
  return std::move(*typed);
}

Result<api::RegisterProviderResponse> Client::RegisterProvider(
    const api::RegisterProviderRequest& req) {
  return Call<api::RegisterProviderResponse>(req);
}
Result<api::RegisterTaggerResponse> Client::RegisterTagger(
    const api::RegisterTaggerRequest& req) {
  return Call<api::RegisterTaggerResponse>(req);
}
Result<api::CreateProjectResponse> Client::CreateProject(
    const api::CreateProjectRequest& req) {
  return Call<api::CreateProjectResponse>(req);
}
Result<api::BatchUploadResourcesResponse> Client::BatchUploadResources(
    const api::BatchUploadResourcesRequest& req) {
  return Call<api::BatchUploadResourcesResponse>(req);
}
Result<api::BatchControlResponse> Client::BatchControl(
    const api::BatchControlRequest& req) {
  return Call<api::BatchControlResponse>(req);
}
Result<api::ProjectQueryResponse> Client::ProjectQuery(
    const api::ProjectQueryRequest& req) {
  return Call<api::ProjectQueryResponse>(req);
}
Result<api::BatchAcceptTasksResponse> Client::BatchAcceptTasks(
    const api::BatchAcceptTasksRequest& req) {
  return Call<api::BatchAcceptTasksResponse>(req);
}
Result<api::BatchSubmitTagsResponse> Client::BatchSubmitTags(
    const api::BatchSubmitTagsRequest& req) {
  return Call<api::BatchSubmitTagsResponse>(req);
}
Result<api::BatchDecideResponse> Client::BatchDecide(
    const api::BatchDecideRequest& req) {
  return Call<api::BatchDecideResponse>(req);
}
Result<api::StepResponse> Client::Step(const api::StepRequest& req) {
  return Call<api::StepResponse>(req);
}
Result<api::CheckpointResponse> Client::Checkpoint(
    const api::CheckpointRequest& req) {
  return Call<api::CheckpointResponse>(req);
}
Result<api::MetricsQueryResponse> Client::Metrics(
    const api::MetricsQueryRequest& req) {
  return Call<api::MetricsQueryResponse>(req);
}
Result<api::TraceQueryResponse> Client::Traces(
    const api::TraceQueryRequest& req) {
  return Call<api::TraceQueryResponse>(req);
}

Result<api::PromoteResponse> Client::Promote(const api::PromoteRequest& req) {
  return Call<api::PromoteResponse>(req);
}

}  // namespace itag::net
