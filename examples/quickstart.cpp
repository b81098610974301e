// Quickstart: the smallest end-to-end iTag session, through the batch-first
// service API.
//
// A provider uploads a handful of under-tagged resources (one batch request,
// tags included), sets a budget, lets iTag pick a strategy, runs the project
// on the simulated MTurk marketplace, and watches the quality improve.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "api/service.h"
#include "common/csv.h"

using namespace itag;        // NOLINT
using namespace itag::core;  // NOLINT

int main() {
  // One shard: the ids and RNG streams of a single iTag system.
  ShardedSystemOptions options;
  options.num_shards = 1;
  api::Service service(options);
  if (Status s = service.Init(); !s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("iTag service, API v%u\n", api::Service::version());

  // 1. A provider signs up and creates a project (Fig. 4's Add Project).
  ProviderId alice = service.RegisterProvider({"alice"}).provider;
  api::CreateProjectRequest create;
  create.provider = alice;
  create.spec.name = "my-photo-collection";
  create.spec.kind = tagging::ResourceKind::kImage;
  create.spec.description = "holiday photos that need better tags";
  create.spec.budget = 120;  // tagging tasks
  create.spec.pay_cents = 5;
  create.spec.platform = PlatformChoice::kMTurk;
  create.spec.strategy = strategy::StrategyKind::kHybridFpMu;
  ProjectId project = service.CreateProject(create).project;

  // 2. Upload resources — one batch request, existing tags riding along.
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  const char* uris[] = {"beach.jpg", "sunset.jpg", "harbor.jpg",
                        "market.jpg", "cathedral.jpg", "alley.jpg"};
  const std::vector<std::vector<std::string>> existing = {
      {"beach", "sand"}, {"sunset"}, {}, {"market", "food", "crowd"}, {}, {}};
  for (int i = 0; i < 6; ++i) {
    api::UploadResourceItem item;
    item.kind = tagging::ResourceKind::kImage;
    item.uri = uris[i];
    item.initial_tags = existing[i];
    upload.items.push_back(std::move(item));
  }
  api::BatchUploadResourcesResponse uploaded =
      service.BatchUploadResources(upload);
  std::printf("uploaded %zu/%zu resources\n", uploaded.outcome.ok_count,
              upload.items.size());

  // 3. iTag recommends a strategy from the current statistics.
  auto rec = service.sharded()->RecommendStrategy(project);
  std::printf("recommended strategy: %s\n",
              strategy::StrategyKindName(rec.value()));

  // 4. Start, then let the simulated marketplace work through the budget.
  api::BatchControlRequest control;
  control.project = project;
  control.items.push_back({api::ControlAction::kStart});
  if (api::BatchControlResponse r = service.BatchControl(control);
      !r.outcome.all_ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 r.outcome.statuses[0].ToString().c_str());
    return 1;
  }
  (void)service.Step({4000});  // advance simulated marketplace time

  // 5. Monitor: the project row, quality feed, and one resource's detail —
  // a single query request.
  api::ProjectQueryRequest query;
  query.project = project;
  query.include_feed = true;
  query.detail_resources = {uploaded.resources[2]};
  api::ProjectQueryResponse status = service.ProjectQuery(query);
  const ProjectInfo& info = status.info;
  std::printf("project '%s': state=%s tasks_done=%u budget_left=%u "
              "quality=%.3f projected_gain=%.3f\n",
              info.spec.name.c_str(), ProjectStateName(info.state),
              info.tasks_completed, info.budget_remaining, info.quality,
              info.projected_gain);

  TableWriter feed({"tasks", "quality"});
  const auto& points = status.feed;
  for (size_t i = 0; i < points.size();
       i += std::max<size_t>(1, points.size() / 10)) {
    feed.BeginRow().Add(static_cast<uint64_t>(points[i].tasks))
        .Add(points[i].quality);
  }
  feed.WriteAscii(std::cout);

  // 6. Inspect one resource (Fig. 6) and export the final tags.
  if (!status.details.empty()) {
    const auto& detail = status.details[0];
    std::printf("resource %s: posts=%u quality=%.3f top tags:", uris[2],
                detail.posts, detail.quality);
    for (const auto& tf : detail.top_tags) {
      std::printf(" %s(%u)", tf.tag.c_str(), tf.count);
    }
    std::printf("\n");
  }

  auto rows = service.sharded()->ExportProject(
      project, "/tmp/itag_quickstart_export.csv");
  std::printf("exported %zu tag rows to /tmp/itag_quickstart_export.csv\n",
              rows.ok() ? rows.value() : 0);
  return 0;
}
