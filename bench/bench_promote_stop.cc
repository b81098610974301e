// E7 — the per-resource Promote / Stop controls (§III-A, Figs. 3 & 6):
//   * promoting a cold resource guarantees it the next tasks, lifting its
//     quality well above its un-promoted twin;
//   * stopping a resource redirects its would-be budget to the rest.
// Runs through the full ITagSystem facade so the whole manager stack is on
// the measured path.

#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "itag/itag_system.h"

using namespace itag;         // NOLINT
using namespace itag::core;   // NOLINT

namespace {

struct Outcome {
  uint32_t posts_target = 0;   // posts landed on the watched resource
  uint32_t posts_total = 0;
  double q_target = 0.0;
};

Outcome RunSession(bool promote_target, bool stop_target) {
  ITagSystem system;
  Status st = system.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "init: %s\n", st.ToString().c_str());
    return {};
  }
  ProviderId provider = system.RegisterProvider("bench").value();
  ProjectSpec spec;
  spec.name = "promote-stop";
  spec.budget = 300;
  spec.platform = PlatformChoice::kAudience;
  spec.strategy = strategy::StrategyKind::kFreeChoice;  // popularity-driven
  ProjectId project = system.CreateProject(provider, spec).value();

  // 20 resources; resource 0 is the watched one and starts cold while the
  // rest carry history (so FC would normally starve it).
  std::vector<ResourceUpload> uploads;
  for (int i = 0; i < 20; ++i) {
    uploads.push_back(
        {tagging::ResourceKind::kWebUrl, "r" + std::to_string(i), "", {}});
  }
  std::vector<tagging::ResourceId> ids;
  (void)system.UploadResourceBatch(project, uploads, &ids);
  for (int i = 1; i < 20; ++i) {
    for (int p = 0; p < 6; ++p) {
      (void)system.ImportPost(project, i, {"seed-" + std::to_string(i)});
    }
  }
  (void)system.ControlBatch(project, {{ControlAction::kStart}});
  if (stop_target) {
    (void)system.ControlBatch(project, {{ControlAction::kStopResource, 0}});
  }

  UserTaggerId tagger = system.RegisterTagger("worker").value();
  Rng rng(7);
  for (int task = 0; task < 300; ++task) {
    if (promote_target && task % 3 == 0) {
      (void)system.ControlBatch(project,
                                {{ControlAction::kPromoteResource, 0}});
    }
    auto accepted = system.AcceptTasks(tagger, project, 1);
    if (!accepted.ok()) break;
    std::string tag = "content-" + std::to_string(rng.Uniform(4));
    TaskHandle handle = accepted.value()[0].handle;
    if (!system.SubmitTagsBatch({{tagger, handle, {tag}}})[0].ok()) break;
    for (const auto& sub : system.PendingApprovals(project)) {
      (void)system.DecideBatch(provider, {{sub.handle, true}});
    }
  }

  Outcome out;
  auto detail = system.GetResourceDetail(project, 0).value();
  out.posts_target = detail.posts;
  out.q_target = detail.quality;
  out.posts_total = system.GetProjectInfo(project).value().tasks_completed;
  return out;
}

}  // namespace

int main() {
  std::printf("E7: Promote/Stop controls through the full iTag stack "
              "(FC strategy, 20 resources, B=300)\n\n");
  TableWriter table({"mode", "posts_on_resource0", "total_tasks",
                     "q(resource0)"});
  Outcome plain = RunSession(false, false);
  Outcome promoted = RunSession(true, false);
  Outcome stopped = RunSession(false, true);
  table.BeginRow()
      .Add("baseline (FC ignores cold r0)")
      .Add(static_cast<uint64_t>(plain.posts_target))
      .Add(static_cast<uint64_t>(plain.posts_total))
      .Add(plain.q_target);
  table.BeginRow()
      .Add("promote r0 every 3rd task")
      .Add(static_cast<uint64_t>(promoted.posts_target))
      .Add(static_cast<uint64_t>(promoted.posts_total))
      .Add(promoted.q_target);
  table.BeginRow()
      .Add("stop r0")
      .Add(static_cast<uint64_t>(stopped.posts_target))
      .Add(static_cast<uint64_t>(stopped.posts_total))
      .Add(stopped.q_target);
  table.WriteAscii(std::cout);
  (void)table.SaveCsv("/tmp/itag_e7_promote_stop.csv");
  std::printf("\nExpected: promoted >> baseline >= stopped(=initial posts) "
              "on posts_on_resource0.\nCSV: /tmp/itag_e7_promote_stop.csv\n");
  return 0;
}
