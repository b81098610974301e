// The §IV "Audience Participation" demonstration: human taggers (audience
// members) work through the tagger UI (Figs. 7-8), here speaking the
// batch-first service API — browsing projects by pay and provider approval
// rate, batch-accepting strategy-assigned tasks, submitting several posts
// in one request, and earning incentives once the provider approves the
// moderation batch — while a simulated audience fills in when participation
// runs low (exactly the fallback the paper describes).
//
// Build & run:  ./build/examples/audience_session

#include <cstdio>
#include <iostream>

#include "api/service.h"
#include "common/csv.h"
#include "common/random.h"

using namespace itag;        // NOLINT
using namespace itag::core;  // NOLINT

namespace {

/// A simulated audience member: a vocabulary bias plus a diligence level.
struct Audience {
  UserTaggerId id;
  std::string name;
  double diligence;  // P(submitting on-topic tags)
};

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
  core::ShardedSystem& system = *service.sharded();
  Rng rng(2014);

  // Two providers publish audience projects with different pay.
  ProviderId prof = service.RegisterProvider({"prof-demo"}).provider;
  ProviderId museum = service.RegisterProvider({"museum"}).provider;

  auto make_project = [&](ProviderId owner, const std::string& name,
                          uint32_t pay, uint32_t budget) {
    api::CreateProjectRequest create;
    create.provider = owner;
    create.spec.name = name;
    create.spec.budget = budget;
    create.spec.pay_cents = pay;
    create.spec.platform = PlatformChoice::kAudience;
    create.spec.strategy = strategy::StrategyKind::kHybridFpMu;
    ProjectId p = service.CreateProject(create).project;
    api::BatchUploadResourcesRequest upload;
    upload.project = p;
    for (int i = 0; i < 6; ++i) {
      api::UploadResourceItem item;
      item.uri = name + "/item-" + std::to_string(i);
      upload.items.push_back(std::move(item));
    }
    (void)service.BatchUploadResources(upload);
    (void)service.BatchControl({p, {{api::ControlAction::kStart}}});
    return p;
  };
  ProjectId cheap = make_project(prof, "icde-papers", 2, 40);
  ProjectId rich = make_project(museum, "exhibit-photos", 9, 40);

  // Register an audience of six; two are sloppy.
  std::vector<Audience> audience;
  const char* names[] = {"ada", "bo", "cy", "dee", "eli", "fox"};
  for (int i = 0; i < 6; ++i) {
    audience.push_back({service.RegisterTagger({names[i]}).tagger, names[i],
                        i < 4 ? 0.95 : 0.35});
  }

  // Topic pools per project: what an on-topic audience member would type.
  const std::vector<std::string> kTopics[] = {
      {"databases", "crowdsourcing", "icde", "query", "tagging"},
      {"painting", "sculpture", "bronze", "renaissance", "portrait"}};

  std::printf("Tagger view (Fig. 7): open projects sorted by pay\n");
  auto open = system.ListOpenProjects();
  TableWriter listing({"project", "pay_cents", "provider_approval"});
  for (const ProjectInfo& info : open) {
    double rate =
        system.GetProvider(info.provider).value().ApprovalRate();
    listing.BeginRow()
        .Add(info.spec.name)
        .Add(static_cast<uint64_t>(info.spec.pay_cents))
        .Add(rate, 2);
  }
  listing.WriteAscii(std::cout);

  // The audience works: each member repeatedly joins the best-paying
  // project with budget, batch-accepts a couple of assigned resources,
  // tags them in one submission request (Fig. 8), and the providers
  // moderate their queues in one decision batch per project.
  int submitted = 0, approved = 0, rejected = 0;
  for (int round = 0; round < 120; ++round) {
    Audience& member = audience[round % audience.size()];
    auto open_now = system.ListOpenProjects();
    if (open_now.empty()) break;
    // Pick the highest-paying open project (the behaviour §III-B describes).
    const ProjectInfo* best = &open_now[0];
    for (const ProjectInfo& info : open_now) {
      if (info.spec.pay_cents > best->spec.pay_cents) best = &info;
    }
    api::BatchAcceptTasksResponse accepted =
        service.BatchAcceptTasks({member.id, best->id, 2});
    if (!accepted.status.ok() || accepted.tasks.empty()) continue;

    // Compose tags per task: diligent members use the project's topic
    // pool, sloppy ones type noise; all posts ship in one request.
    const auto& pool = kTopics[best->id == cheap ? 0 : 1];
    api::BatchSubmitTagsRequest submit;
    for (const AcceptedTask& task : accepted.tasks) {
      api::SubmitTagsItem item;
      item.tagger = member.id;
      item.handle = task.handle;
      int k = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < k; ++i) {
        if (rng.Bernoulli(member.diligence)) {
          item.tags.push_back(
              pool[rng.Uniform(static_cast<uint32_t>(pool.size()))]);
        } else {
          item.tags.push_back("zzz-" + std::to_string(rng.Uniform(1000)));
        }
      }
      submit.items.push_back(std::move(item));
    }
    submitted +=
        static_cast<int>(service.BatchSubmitTags(submit).outcome.ok_count);

    // Providers moderate their queues: approve tags drawn from the topic
    // pool, reject obvious noise (they can tell by looking) — one
    // decision batch per project.
    for (ProjectId p : {cheap, rich}) {
      ProviderId owner = p == cheap ? prof : museum;
      api::BatchDecideRequest decide;
      decide.provider = owner;
      for (const PendingSubmission& sub : system.PendingApprovals(p)) {
        bool looks_topical = false;
        const auto& topics = kTopics[p == cheap ? 0 : 1];
        for (const std::string& t : sub.tags) {
          for (const std::string& topic : topics) {
            looks_topical |= t == topic;
          }
        }
        decide.items.push_back({sub.handle, looks_topical});
      }
      if (decide.items.empty()) continue;
      api::BatchDecideResponse decided = service.BatchDecide(decide);
      for (size_t i = 0; i < decide.items.size(); ++i) {
        if (!decided.outcome.statuses[i].ok()) continue;
        decide.items[i].approve ? ++approved : ++rejected;
      }
    }
  }

  std::printf("\nsession: %d submissions, %d approved, %d rejected\n",
              submitted, approved, rejected);

  std::printf("\nLeaderboard (approval rate drives future qualification):\n");
  TableWriter board({"tagger", "submitted", "approved", "rate", "earned"});
  for (const Audience& member : audience) {
    TaggerProfile prof_row = system.GetTagger(member.id).value();
    board.BeginRow()
        .Add(member.name)
        .Add(static_cast<uint64_t>(prof_row.submitted))
        .Add(static_cast<uint64_t>(prof_row.approved))
        .Add(prof_row.ApprovalRate(), 2)
        .Add(static_cast<uint64_t>(prof_row.earned_cents));
  }
  board.WriteAscii(std::cout);

  std::printf("\nProvider approval rates after the session: prof=%.2f "
              "museum=%.2f\n",
              system.GetProvider(prof).value().ApprovalRate(),
              system.GetProvider(museum).value().ApprovalRate());
  std::printf("Project quality: icde-papers=%.3f exhibit-photos=%.3f\n",
              service.ProjectQuery({cheap, false, {}}).info.quality,
              service.ProjectQuery({rich, false, {}}).info.quality);
  return 0;
}
