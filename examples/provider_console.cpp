// A scripted provider session exercising every §III-A workflow behind the
// provider UI (Figs. 3-6), driven through the batch-first service API:
// create a project, batch-upload resources with historical tags, start on
// the simulated MTurk marketplace, monitor the quality feed and
// notifications, drill into one resource, promote a laggard, stop a
// finished resource, switch strategy mid-run, top up the budget (all one
// control batch), and export the final tags.
//
// Build & run:  ./build/examples/provider_console

#include <cstdio>
#include <iostream>

#include "api/service.h"
#include "common/csv.h"

using namespace itag;        // NOLINT
using namespace itag::core;  // NOLINT

namespace {

void PrintProjectRow(const ProjectInfo& info) {
  std::printf("  [%llu] %-18s state=%-8s resources=%zu tasks=%u "
              "budget_left=%u quality=%.3f projected_gain=%.3f\n",
              static_cast<unsigned long long>(info.id),
              info.spec.name.c_str(), ProjectStateName(info.state),
              info.num_resources, info.tasks_completed,
              info.budget_remaining, info.quality, info.projected_gain);
}

void ShowDashboard(api::Service& service, ProviderId provider,
                   const char* title) {
  std::printf("\n--- %s ---\n", title);
  for (const ProjectInfo& info : service.sharded()->ListProjects(provider)) {
    PrintProjectRow(info);
  }
}

}  // namespace

int main() {
  // One shard: the ids and RNG streams of a single iTag system.
  ShardedSystemOptions options;
  options.num_shards = 1;
  api::Service service(options);
  if (Status s = service.Init(); !s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ProviderId provider = service.RegisterProvider({"city-archive"}).provider;

  // -- Add Project (Fig. 4) ------------------------------------------------
  api::CreateProjectRequest create;
  create.provider = provider;
  create.spec.name = "historic-photos";
  create.spec.kind = tagging::ResourceKind::kImage;
  create.spec.description = "digitized city archive needing rich tags";
  create.spec.budget = 200;
  create.spec.pay_cents = 6;
  create.spec.platform = PlatformChoice::kMTurk;
  create.spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  ProjectId project = service.CreateProject(create).project;

  // Upload 12 resources in one batch; a few carry historical tags, and one
  // deliberately bad item shows per-item failure isolation.
  api::BatchUploadResourcesRequest upload;
  upload.project = project;
  for (int i = 0; i < 12; ++i) {
    api::UploadResourceItem item;
    item.kind = tagging::ResourceKind::kImage;
    item.uri = "archive/photo-" + std::to_string(i) + ".tif";
    if (i == 0) item.initial_tags = {"harbor", "1920s"};
    if (i == 1) item.initial_tags = {"market", "street"};
    upload.items.push_back(std::move(item));
  }
  upload.items.push_back({});  // empty uri: rejected, rest of batch unharmed
  api::BatchUploadResourcesResponse uploaded =
      service.BatchUploadResources(upload);
  std::printf("batch upload: %zu ok of %zu (bad item: %s)\n",
              uploaded.outcome.ok_count, upload.items.size(),
              uploaded.outcome.statuses.back().ToString().c_str());
  const std::vector<tagging::ResourceId>& resources = uploaded.resources;
  (void)service.sharded()->ImportPost(project, resources[0],
                                      {"harbor", "ships"});

  std::printf("Recommended strategy: %s\n",
              strategy::StrategyKindName(
                  service.sharded()->RecommendStrategy(project).value()));
  ShowDashboard(service, provider, "dashboard after upload (Fig. 3)");

  // -- Run phase 1 ----------------------------------------------------------
  (void)service.BatchControl({project, {{api::ControlAction::kStart}}});
  (void)service.Step({800});
  ShowDashboard(service, provider, "after the first marketplace burst");

  // -- Quality feed (Fig. 5) + resource drill-down (Fig. 6), one query ------
  api::ProjectQueryRequest query;
  query.project = project;
  query.include_feed = true;
  query.detail_resources = {resources[0]};
  api::ProjectQueryResponse snap = service.ProjectQuery(query);

  std::printf("\nQuality feed (sampled):\n");
  TableWriter chart({"tasks", "quality"});
  for (size_t i = 0; i < snap.feed.size();
       i += std::max<size_t>(1, snap.feed.size() / 8)) {
    chart.BeginRow()
        .Add(static_cast<uint64_t>(snap.feed[i].tasks))
        .Add(snap.feed[i].quality);
  }
  chart.WriteAscii(std::cout);

  if (!snap.details.empty()) {
    const auto& detail = snap.details[0];
    std::printf("\nResource %s: posts=%u quality=%.3f next-task gain=%.4f\n",
                "archive/photo-0.tif", detail.posts, detail.quality,
                detail.projected_gain_next_task);
    std::printf("  tags:");
    for (const auto& tf : detail.top_tags) {
      std::printf(" %s(%u)", tf.tag.c_str(), tf.count);
    }
    std::printf("\n");
  }

  // -- Promote a laggard, stop a finished one, switch strategy: one batch ---
  tagging::ResourceId laggard = resources[11];
  api::BatchControlRequest controls;
  controls.project = project;
  {
    api::ControlItem promote;
    promote.action = api::ControlAction::kPromoteResource;
    promote.resource = laggard;
    controls.items.push_back(promote);
    api::ControlItem stop;
    stop.action = api::ControlAction::kStopResource;
    stop.resource = resources[0];
    controls.items.push_back(stop);
    api::ControlItem sw;
    sw.action = api::ControlAction::kSwitchStrategy;
    sw.strategy = strategy::StrategyKind::kMostUnstableFirst;
    controls.items.push_back(sw);
  }
  api::BatchControlResponse applied = service.BatchControl(controls);
  std::printf("\ncontrol batch (promote laggard, stop photo-0, switch to MU):"
              " %zu/%zu ok\n",
              applied.outcome.ok_count, controls.items.size());
  (void)service.Step({800});
  ShowDashboard(service, provider, "after switching to MU");

  // -- Budget top-up + finish -----------------------------------------------
  api::ControlItem topup;
  topup.action = api::ControlAction::kAddBudget;
  topup.budget_tasks = 60;
  (void)service.BatchControl({project, {topup}});
  std::printf("\nadded 60 tasks of budget\n");
  (void)service.Step({1500});
  ShowDashboard(service, provider, "final state");

  // -- Notifications (Fig. 6) -----------------------------------------------
  std::printf("\nLatest notifications:\n");
  for (const Notification& n :
       service.sharded()->LatestNotifications(provider, 5)) {
    std::printf("  t=%lld project=%llu %s\n",
                static_cast<long long>(n.time),
                static_cast<unsigned long long>(n.project),
                n.message.c_str());
  }

  // -- Spend + export -------------------------------------------------------
  ShardStats spend = service.sharded()->StatsOf(0);  // the only shard
  std::printf("\ntotal incentives paid: %llu cents across %llu payments\n",
              static_cast<unsigned long long>(spend.paid_cents),
              static_cast<unsigned long long>(spend.payments));
  auto rows = service.sharded()->ExportProject(
      project, "/tmp/itag_provider_export.csv");
  std::printf("exported %zu tag rows to /tmp/itag_provider_export.csv\n",
              rows.ok() ? rows.value() : 0);
  (void)service.BatchControl({project, {{api::ControlAction::kStop}}});
  return 0;
}
