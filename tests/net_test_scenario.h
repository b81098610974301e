#ifndef ITAG_TESTS_NET_TEST_SCENARIO_H_
#define ITAG_TESTS_NET_TEST_SCENARIO_H_

// Shared between net_codec_test and net_server_test: a deterministic
// request script that exercises EVERY api::AnyRequest alternative — with
// succeeding items, failing items (so per-item Status codes *and messages*
// ride the responses), and whole-request failures. The script is built by
// replaying it once against a scratch Service to learn the ids it produces;
// because the backend is deterministic, replaying the same script against
// any fresh identically-configured Service yields identical responses.
// That replay (through Service::Dispatch) is the oracle the codec and
// loopback tests compare against.

#include <cassert>
#include <string>
#include <variant>
#include <vector>

#include "api/requests.h"
#include "api/service.h"

namespace itag::nettest {

/// Appends `req` to the script and plays it on the scratch service,
/// returning the scratch response (to learn produced ids).
inline api::AnyResponse Play(api::Service& scratch,
                             std::vector<api::AnyRequest>* script,
                             api::AnyRequest req) {
  script->push_back(req);
  return scratch.Dispatch(req);
}

/// Builds the full-coverage script against `scratch` — a fresh, in-memory
/// Service whose shard count must match the one the script will later
/// replay against (ids learned here are baked into the requests as global
/// ids routing to the same shards).
inline std::vector<api::AnyRequest> BuildFullCoverageScript(
    api::Service& scratch) {
  std::vector<api::AnyRequest> script;

  // --- users: ok + InvalidArgument(empty name)
  auto provider_resp = Play(scratch, &script,
                            api::RegisterProviderRequest{"alice"});
  core::ProviderId provider =
      std::get<api::RegisterProviderResponse>(provider_resp).provider;
  Play(scratch, &script, api::RegisterProviderRequest{""});
  auto tagger_resp = Play(scratch, &script, api::RegisterTaggerRequest{"bob"});
  core::UserTaggerId tagger =
      std::get<api::RegisterTaggerResponse>(tagger_resp).tagger;
  auto tagger2_resp =
      Play(scratch, &script, api::RegisterTaggerRequest{"carol"});
  core::UserTaggerId other_tagger =
      std::get<api::RegisterTaggerResponse>(tagger2_resp).tagger;
  Play(scratch, &script, api::RegisterTaggerRequest{""});

  // --- projects: ok + NotFound(bad provider) + InvalidArgument(no name)
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec.name = "wire-coverage";
  create.spec.kind = tagging::ResourceKind::kImage;
  create.spec.description = "photos of the \"beach\" — tags with NULs survive";
  create.spec.budget = 40;
  create.spec.pay_cents = 7;
  create.spec.platform = core::PlatformChoice::kAudience;
  create.spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  auto create_resp = Play(scratch, &script, create);
  core::ProjectId project =
      std::get<api::CreateProjectResponse>(create_resp).project;
  api::CreateProjectRequest bad_create = create;
  bad_create.provider = provider + 999;
  Play(scratch, &script, bad_create);
  api::CreateProjectRequest unnamed = create;
  unnamed.spec.name.clear();
  Play(scratch, &script, unnamed);

  // --- uploads: mixed ok / empty-uri items, then a NotFound project
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int i = 0; i < 6; ++i) {
    api::UploadResourceItem item;
    item.kind = tagging::ResourceKind::kImage;
    item.uri = "img-" + std::to_string(i) + ".jpg";
    item.description = "resource #" + std::to_string(i);
    if (i % 2 == 0) item.initial_tags = {"seed", "tag-" + std::to_string(i)};
    upload.items.push_back(std::move(item));
  }
  upload.items.push_back({tagging::ResourceKind::kImage, "", "no uri", {}});
  auto upload_resp = Play(scratch, &script, upload);
  const auto& uploaded =
      std::get<api::BatchUploadResourcesResponse>(upload_resp);
  api::BatchUploadResourcesRequest ghost_upload;
  ghost_upload.project = project + 999;
  ghost_upload.items.push_back(
      {tagging::ResourceKind::kWebUrl, "http://x", "", {}});
  Play(scratch, &script, ghost_upload);

  // --- control: start (ok), start again (FailedPrecondition), zero budget
  // top-up (InvalidArgument), promote unknown resource (NotFound), stop +
  // resume a real one, switch strategy.
  api::BatchControlRequest control;
  control.project = project;
  control.items.push_back({api::ControlAction::kStart, 0, 0, {}});
  control.items.push_back({api::ControlAction::kStart, 0, 0, {}});
  control.items.push_back({api::ControlAction::kAddBudget, 0, 0, {}});
  control.items.push_back(
      {api::ControlAction::kPromoteResource, 424242, 0, {}});
  control.items.push_back(
      {api::ControlAction::kStopResource, uploaded.resources[1], 0, {}});
  control.items.push_back(
      {api::ControlAction::kResumeResource, uploaded.resources[1], 0, {}});
  control.items.push_back({api::ControlAction::kSwitchStrategy, 0, 0,
                           strategy::StrategyKind::kMostUnstableFirst});
  Play(scratch, &script, control);

  // --- tagger traffic: draw, then per-item submit failures of every kind
  api::BatchAcceptTasksRequest accept;
  accept.tagger = tagger;
  accept.project = project;
  accept.count = 5;
  auto accept_resp = Play(scratch, &script, accept);
  const auto& tasks = std::get<api::BatchAcceptTasksResponse>(accept_resp);
  assert(tasks.tasks.size() == 5);
  Play(scratch, &script,
       api::BatchAcceptTasksRequest{tagger, project, 0});  // InvalidArgument
  Play(scratch, &script,
       api::BatchAcceptTasksRequest{tagger, project + 999, 3});  // NotFound

  api::BatchSubmitTagsRequest submit;
  submit.items.push_back(
      {tagger, tasks.tasks[0].handle, {"beach", "Sand Dunes"}});
  submit.items.push_back({tagger, 0, {"zero-handle"}});     // InvalidArgument
  submit.items.push_back({tagger, tasks.tasks[1].handle, {}});  // no tags
  submit.items.push_back({tagger, 9999999, {"ghost"}});     // NotFound
  submit.items.push_back(
      {other_tagger, tasks.tasks[2].handle, {"stolen"}});  // FailedPrecondition
  submit.items.push_back({tagger, tasks.tasks[1].handle, {"ok", "late"}});
  submit.items.push_back({tagger, tasks.tasks[2].handle, {"fine"}});
  Play(scratch, &script, submit);

  // --- moderation: approve, reject (still OK), zero handle, unknown handle
  api::BatchDecideRequest decide;
  decide.provider = provider;
  decide.items.push_back({tasks.tasks[0].handle, true});
  decide.items.push_back({tasks.tasks[1].handle, false});  // refund
  decide.items.push_back({0, true});                       // InvalidArgument
  decide.items.push_back({8888888, true});                 // NotFound
  decide.items.push_back({tasks.tasks[2].handle, true});
  Play(scratch, &script, decide);

  // --- queries: feed + details incl. an unknown resource, then NotFound
  api::ProjectQueryRequest query;
  query.project = project;
  query.include_feed = true;
  query.detail_resources = {uploaded.resources[0], 424242,
                            uploaded.resources[2]};
  Play(scratch, &script, query);
  Play(scratch, &script, api::ProjectQueryRequest{project + 999, true, {}});

  // --- simulation clock: ok, negative (InvalidArgument), zero (no-op)
  Play(scratch, &script, api::StepRequest{3});
  Play(scratch, &script, api::StepRequest{-1});
  Play(scratch, &script, api::StepRequest{0});

  // --- admin: checkpoint mid-traffic and again at the end (on durable
  // replays the second one exercises snapshot-after-snapshot; on the
  // in-memory scratch both are typed no-op successes).
  Play(scratch, &script, api::CheckpointRequest{});

  // --- observability: a prefix matching no registered metric, so the
  // response (OK + empty vector) is deterministic across backends — live
  // metric values are wall-clock-dependent and belong to obs_test, not to
  // these bit-equality replays.
  Play(scratch, &script, api::MetricsQueryRequest{"~no-such-metric~/"});

  // --- tracing (v4): an endpoint filter matching no trace, for the same
  // determinism reason — the process trace ring is global, and another test
  // in the binary may have retained traces into it.
  Play(scratch, &script,
       api::TraceQueryRequest{0, "~no-such-endpoint~", 8});

  // --- failover (v5): Promote on a writable (non-replica) backend is the
  // deterministic typed refusal; the success path needs a real replica and
  // lives in repl_test / repl_failover_test.
  Play(scratch, &script, api::PromoteRequest{});

  // Final snapshot so the script's last response aggregates everything.
  Play(scratch, &script, api::ProjectQueryRequest{project, true, {}});
  Play(scratch, &script, api::CheckpointRequest{});

  // Paranoia: the script must cover every request alternative.
  std::vector<bool> seen(api::kRequestTypeCount, false);
  for (const api::AnyRequest& r : script) seen[r.index()] = true;
  for ([[maybe_unused]] bool s : seen) assert(s);
  return script;
}

/// The script built over an in-memory scratch core of `num_shards` shards,
/// so the learned project ids / task handles are global ids valid on any
/// identically-sharded core (the recovery tests replay it against durable
/// ones).
inline std::vector<api::AnyRequest> FullCoverageScript(size_t num_shards = 1) {
  core::ShardedSystemOptions opts;
  opts.num_shards = num_shards;
  opts.pool_threads = 1;
  api::Service scratch{opts};
  [[maybe_unused]] Status init = scratch.Init();
  assert(init.ok());
  return BuildFullCoverageScript(scratch);
}

}  // namespace itag::nettest

#endif  // ITAG_TESTS_NET_TEST_SCENARIO_H_
