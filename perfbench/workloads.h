// Workload definitions: the per-op inputs each workload draws from the seed,
// the request-level executor shared by the net and api layers, and the
// closed-loop timed round with its output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/requests.h"
#include "common/result.h"
#include "net/client.h"
#include "world.h"

namespace perfbench {

enum class Workload {
  kDashboardRead,
  kTaggingIngest,
  kUploadOverflow,
  kClockPoll,
};

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
inline bool IsWrite(Workload w) {
  return w == Workload::kTaggingIngest || w == Workload::kUploadOverflow;
}

// Fixed op counts and budgets of one workload.
struct Shape {
  uint64_t warmup_ops;
  uint64_t timed_ops;
  uint64_t traced_ops;
  size_t connections;
  size_t window;            // ops outstanding per connection
  size_t page_cache_mb;     // per shard
  uint64_t checkpoint_every;  // uploads between checkpoints; 0 = none
};
Shape ShapeOf(Workload w);

// Tasks per tagging cycle and detail resources per detailed read.
inline constexpr size_t kCycleTasks = 8;
inline constexpr size_t kDetailResources = 4;

// One op's inputs, a pure function of (workload, seed, index).
struct Op {
  uint64_t index = 0;
  uint32_t project = 0;  // index into WorldIds::projects
  uint32_t tagger = 0;   // index into WorldIds::taggers
  bool feed = false;
  std::vector<itag::tagging::ResourceId> details;
  std::vector<std::vector<std::string>> task_tags;
  std::vector<itag::api::UploadResourceItem> uploads;
};
Op MakeOp(Workload w, uint64_t seed, uint64_t index);
// User payload bytes (tag texts, URIs, descriptions) the op sends.
uint64_t PayloadBytes(const Op& op);
// Order-sensitive digest of ops [first, first + count).
uint64_t OpDigest(Workload w, uint64_t seed, uint64_t first, uint64_t count);

// What completed ops did, for the output checks.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t accepted = 0;
  uint64_t submitted_ok = 0;
  uint64_t approved_ok = 0;
  uint64_t payload_bytes = 0;
  std::vector<uint64_t> uploaded = std::vector<uint64_t>(kProjects, 0);
  void Merge(const Tally& o);
};

using Message = std::pair<itag::api::AnyRequest, itag::api::AnyResponse>;
using Reply = itag::Result<itag::api::AnyResponse>;

// Enters an op at the wire: CallPair sends both requests before awaiting.
struct NetCaller {
  itag::net::Client* client;
  Reply Call(const itag::api::AnyRequest& req) { return client->Dispatch(req); }
  std::pair<Reply, Reply> CallPair(const itag::api::AnyRequest& a,
                                   const itag::api::AnyRequest& b) {
    itag::Result<uint64_t> ia = client->DispatchAsync(a);
    itag::Result<uint64_t> ib = client->DispatchAsync(b);
    Reply ra = ia.ok() ? client->Await(ia.value()) : Reply(ia.status());
    Reply rb = ib.ok() ? client->Await(ib.value()) : Reply(ib.status());
    return {std::move(ra), std::move(rb)};
  }
};

// Enters an op at api::Service::Dispatch, the boundary a wire frontend uses.
struct ApiCaller {
  itag::api::Service* service;
  Reply Call(const itag::api::AnyRequest& req) {
    return service->Dispatch(req);
  }
  std::pair<Reply, Reply> CallPair(const itag::api::AnyRequest& a,
                                   const itag::api::AnyRequest& b) {
    Reply ra = Call(a);
    return {std::move(ra), Call(b)};
  }
};

// Runs one op through any layer that speaks AnyRequest (net::Client or
// api::Service, wrapped by a caller with Call and CallPair). The tagging
// cycle's submit and peek go through CallPair, which pipelines them on the
// wire. Returns false when any step failed. Appends the op's messages to
// `log` when it is not null.
template <typename Caller>
bool ExecuteOp(Caller& caller, Workload w, const Op& op, const WorldIds& ids,
               itag::Tick expected_now, Tally* tally,
               std::vector<Message>* log = nullptr);

// The measured outcome of one round: a fresh world, an untimed warm-up, a
// timed phase of a fixed op count, checks, close and recovery.
//
// setup_s and recover_s are the process's CPU seconds (user + sys) over
// set-up and recovery; setup_wall_s and recover_wall_s are the same
// intervals on the wall clock. Hypervisor steal stretches wall time on the
// reference host by up to 2x within minutes while CPU time stays close, so
// the gated figures count CPU and the wall ones are printed beside them.
struct Round {
  double setup_s = 0;
  double setup_wall_s = 0;
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
  double recover_s = 0;
  double recover_wall_s = 0;
  double disk_bytes_per_user_byte = 0;
  double peak_rss_mb = 0;
  double p50_us = 0;
  uint64_t latency_samples = 0;
  uint64_t steal_ticks = 0;
  uint64_t cpu_ticks = 0;
  // Server frame batching over the timed phase (a frame the server did not
  // group with others is a dispatch of one).
  double frames_per_dispatch = 0;
  double frames_per_flush = 0;
  Tally tally;
  std::vector<std::string> check_failures;
  // Storage-level reopen of every shard directory (traced runs only).
  double storage_open_s = 0;
  uint64_t replayed_records = 0;
  double page_file_bytes_per_shard = 0;
};
Round RunRound(Workload w, uint64_t seed, const std::string& dir,
               bool storage_reopen);

double Median(std::vector<double> v);

// One reported metric, as printed in the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ------------------------------------------------------------ implementation

namespace detail {

template <typename T>
const T* As(const itag::Result<itag::api::AnyResponse>& r) {
  return r.ok() ? std::get_if<T>(&r.value()) : nullptr;
}

template <typename Caller>
itag::Result<itag::api::AnyResponse> Logged(Caller& caller,
                                            const itag::api::AnyRequest& req,
                                            std::vector<Message>* log) {
  itag::Result<itag::api::AnyResponse> r = caller.Call(req);
  if (log != nullptr && r.ok()) log->emplace_back(req, r.value());
  return r;
}

}  // namespace detail

template <typename Caller>
bool ExecuteOp(Caller& caller, Workload w, const Op& op, const WorldIds& ids,
               itag::Tick expected_now, Tally* tally,
               std::vector<Message>* log) {
  namespace api = itag::api;
  using detail::As;
  ++tally->attempted;
  tally->payload_bytes += PayloadBytes(op);
  const itag::core::ProjectId project = ids.projects[op.project];
  bool ok = false;
  switch (w) {
    case Workload::kDashboardRead: {
      api::ProjectQueryRequest req;
      req.project = project;
      req.include_feed = op.feed;
      req.detail_resources = op.details;
      auto r = detail::Logged(caller, req, log);
      const auto* q = As<api::ProjectQueryResponse>(r);
      ok = q != nullptr && q->status.ok() && q->detail_outcome.all_ok();
      break;
    }
    case Workload::kTaggingIngest: {
      const itag::core::UserTaggerId tagger = ids.taggers[op.tagger];
      auto ra = detail::Logged(
          caller, api::BatchAcceptTasksRequest{tagger, project, kCycleTasks},
          log);
      const auto* acc = As<api::BatchAcceptTasksResponse>(ra);
      if (acc == nullptr || !acc->status.ok() || acc->tasks.empty()) break;
      tally->accepted += acc->tasks.size();
      api::BatchSubmitTagsRequest sub;
      api::BatchDecideRequest dec;
      dec.provider = ids.providers[ids.owner[op.project]];
      for (size_t j = 0; j < acc->tasks.size(); ++j) {
        sub.items.push_back({tagger, acc->tasks[j].handle, op.task_tags[j]});
        dec.items.push_back({acc->tasks[j].handle, true});
      }
      api::ProjectQueryRequest peek;
      peek.project = project;
      auto [rs, rp] = caller.CallPair(sub, peek);
      if (log != nullptr && rs.ok() && rp.ok()) {
        log->emplace_back(sub, rs.value());
        log->emplace_back(peek, rp.value());
      }
      const auto* s = As<api::BatchSubmitTagsResponse>(rs);
      const auto* q = As<api::ProjectQueryResponse>(rp);
      if (s == nullptr || q == nullptr) break;
      tally->submitted_ok += s->outcome.ok_count;
      auto rd = detail::Logged(caller, dec, log);
      const auto* d = As<api::BatchDecideResponse>(rd);
      if (d == nullptr) break;
      tally->approved_ok += d->outcome.ok_count;
      ok = acc->tasks.size() == kCycleTasks && s->outcome.all_ok() &&
           q->status.ok() && d->outcome.all_ok();
      break;
    }
    case Workload::kUploadOverflow: {
      api::BatchUploadResourcesRequest req;
      req.project = project;
      req.items = op.uploads;
      auto r = detail::Logged(caller, req, log);
      const auto* u = As<api::BatchUploadResourcesResponse>(r);
      if (u == nullptr) break;
      tally->uploaded[op.project] += u->outcome.ok_count;
      ok = u->outcome.all_ok();
      break;
    }
    case Workload::kClockPoll: {
      auto r = detail::Logged(caller, api::StepRequest{0}, log);
      const auto* s = As<api::StepResponse>(r);
      ok = s != nullptr && s->status.ok() && s->now == expected_now;
      break;
    }
  }
  if (!ok) ++tally->failed;
  return ok;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
