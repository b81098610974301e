#include "itag/itag_system.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "itag/tables.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace itag::core {
namespace {

namespace fs = std::filesystem;

using strategy::StrategyKind;
using tagging::ResourceKind;

ProjectSpec AudienceSpec(const std::string& name, uint32_t budget = 20) {
  ProjectSpec spec;
  spec.name = name;
  spec.budget = budget;
  spec.pay_cents = 4;
  spec.platform = PlatformChoice::kAudience;
  spec.strategy = StrategyKind::kFewestPostsFirst;
  return spec;
}

class ITagSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<ITagSystem>();
    ASSERT_TRUE(system_->Init().ok());
    provider_ = system_->RegisterProvider("prof-chen").value();
  }

  ProjectId MakeStartedProject(uint32_t budget = 20, size_t resources = 3) {
    ProjectId p =
        system_->CreateProject(provider_, AudienceSpec("proj", budget))
            .value();
    std::vector<std::string> uris;
    for (size_t i = 0; i < resources; ++i) {
      uris.push_back("http://r/" + std::to_string(i));
    }
    Upload(p, ResourceKind::kWebUrl, uris);
    EXPECT_TRUE(system_->ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    return p;
  }

  /// Uploads one resource per uri as one batch; every item must succeed.
  std::vector<tagging::ResourceId> Upload(
      ProjectId p, ResourceKind kind, const std::vector<std::string>& uris) {
    std::vector<ResourceUpload> items;
    for (const std::string& uri : uris) items.push_back({kind, uri, "", {}});
    std::vector<tagging::ResourceId> ids;
    for (const Status& s : system_->UploadResourceBatch(p, items, &ids)) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return ids;
  }

  std::unique_ptr<ITagSystem> system_;
  ProviderId provider_;
};

TEST_F(ITagSystemTest, RegistrationAndProfiles) {
  auto t = system_->RegisterTagger("bob");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(system_->GetTagger(t.value()).value().name, "bob");
  EXPECT_EQ(system_->GetProvider(provider_).value().name, "prof-chen");
  EXPECT_TRUE(system_->GetProvider(999).status().IsNotFound());
  EXPECT_TRUE(system_->GetTagger(999).status().IsNotFound());
}

TEST_F(ITagSystemTest, CreateProjectValidation) {
  EXPECT_TRUE(
      system_->CreateProject(999, AudienceSpec("x")).status().IsNotFound());
  ProjectSpec zero = AudienceSpec("x");
  zero.budget = 0;
  EXPECT_TRUE(system_->CreateProject(provider_, zero)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ITagSystemTest, ProjectLifecycle) {
  ProjectId p =
      system_->CreateProject(provider_, AudienceSpec("life")).value();
  auto control = [&](ControlAction action) {
    return system_->ControlBatch(p, {{action}})[0];
  };
  // Cannot start with no resources.
  EXPECT_TRUE(control(ControlAction::kStart).IsFailedPrecondition());
  Upload(p, ResourceKind::kImage, {"a.jpg"});
  ASSERT_TRUE(control(ControlAction::kStart).ok());
  EXPECT_EQ(system_->GetProjectInfo(p).value().state, ProjectState::kRunning);
  EXPECT_TRUE(control(ControlAction::kStart).IsFailedPrecondition());
  ASSERT_TRUE(control(ControlAction::kPause).ok());
  EXPECT_EQ(system_->GetProjectInfo(p).value().state, ProjectState::kPaused);
  ASSERT_TRUE(control(ControlAction::kStart).ok());  // resume
  ASSERT_TRUE(control(ControlAction::kStop).ok());
  EXPECT_EQ(system_->GetProjectInfo(p).value().state, ProjectState::kStopped);
  EXPECT_TRUE(control(ControlAction::kStart).IsFailedPrecondition());
}

TEST_F(ITagSystemTest, ImportPostSeedsStatistics) {
  ProjectId p =
      system_->CreateProject(provider_, AudienceSpec("imports")).value();
  tagging::ResourceId r = Upload(p, ResourceKind::kWebUrl, {"u"})[0];
  ASSERT_TRUE(
      system_->ImportPost(p, r, {"Machine Learning", "AI", "ai "}).ok());
  auto detail_status = system_->GetResourceDetail(p, r);
  // Project not started yet: detail still works through the corpus.
  ASSERT_TRUE(detail_status.ok());
  EXPECT_EQ(detail_status.value().posts, 1u);
  // "AI" and "ai " normalize to the same tag: post has 2 unique tags.
  bool saw_ml = false;
  for (const auto& tf : detail_status.value().top_tags) {
    saw_ml |= tf.tag == "machine-learning";
  }
  EXPECT_TRUE(saw_ml);
}

TEST_F(ITagSystemTest, AudienceTaggingEndToEnd) {
  ProjectId p = MakeStartedProject(/*budget=*/10);
  UserTaggerId alice = system_->RegisterTagger("alice").value();

  // Fig. 7: open projects are listed with pay.
  auto open = system_->ListOpenProjects();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].id, p);

  // Fig. 8: accept -> submit -> provider approves -> paid.
  AcceptedTask task = system_->AcceptTasks(alice, p, 1).value()[0];
  EXPECT_EQ(task.pay_cents, 4u);
  ASSERT_TRUE(
      system_->SubmitTagsBatch({{alice, task.handle, {"tag one", "tagtwo"}}})[0]
          .ok());

  auto pending = system_->PendingApprovals(p);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].tagger, alice);
  ASSERT_TRUE(
      system_->DecideBatch(provider_, {{pending[0].handle, true}})[0].ok());

  // Tagger got credited, both approval rates updated, post landed.
  TaggerProfile prof = system_->GetTagger(alice).value();
  EXPECT_EQ(prof.approved, 1u);
  EXPECT_EQ(prof.earned_cents, 4u);
  EXPECT_EQ(system_->GetProvider(provider_).value().approvals_given, 1u);
  EXPECT_EQ(system_->GetProjectInfo(p).value().tasks_completed, 1u);
}

TEST_F(ITagSystemTest, RejectionRefundsBudget) {
  ProjectId p = MakeStartedProject(/*budget=*/5);
  UserTaggerId spammer = system_->RegisterTagger("spammer").value();
  AcceptedTask task = system_->AcceptTasks(spammer, p, 1).value()[0];
  EXPECT_EQ(system_->GetProjectInfo(p).value().budget_remaining, 4u);
  ASSERT_TRUE(system_->SubmitTagsBatch({{spammer, task.handle, {"junk"}}})[0]
                  .ok());
  auto pending = system_->PendingApprovals(p);
  ASSERT_EQ(pending.size(), 1u);
  ASSERT_TRUE(
      system_->DecideBatch(provider_, {{pending[0].handle, false}})[0].ok());
  // Refund restores the debited task.
  EXPECT_EQ(system_->GetProjectInfo(p).value().budget_remaining, 5u);
  TaggerProfile prof = system_->GetTagger(spammer).value();
  EXPECT_EQ(prof.rejected, 1u);
  EXPECT_EQ(prof.earned_cents, 0u);
  EXPECT_NEAR(prof.ApprovalRate(), 0.0, 1e-12);
}

TEST_F(ITagSystemTest, SubmitValidation) {
  ProjectId p = MakeStartedProject();
  UserTaggerId a = system_->RegisterTagger("a").value();
  UserTaggerId b = system_->RegisterTagger("b").value();
  AcceptedTask task = system_->AcceptTasks(a, p, 1).value()[0];
  // Another tagger cannot submit someone else's task.
  EXPECT_TRUE(system_->SubmitTagsBatch({{b, task.handle, {"x"}}})[0]
                  .IsFailedPrecondition());
  // Empty/blank tags rejected.
  EXPECT_TRUE(system_->SubmitTagsBatch({{a, task.handle, {"  "}}})[0]
                  .IsInvalidArgument());
  // Unknown handle.
  EXPECT_TRUE(system_->SubmitTagsBatch({{a, 9999, {"x"}}})[0].IsNotFound());
}

TEST_F(ITagSystemTest, DecideValidation) {
  ProjectId p = MakeStartedProject();
  UserTaggerId a = system_->RegisterTagger("a").value();
  AcceptedTask task = system_->AcceptTasks(a, p, 1).value()[0];
  ASSERT_TRUE(system_->SubmitTagsBatch({{a, task.handle, {"x"}}})[0].ok());
  ProviderId other = system_->RegisterProvider("intruder").value();
  EXPECT_TRUE(system_->DecideBatch(other, {{task.handle, true}})[0]
                  .IsFailedPrecondition());
  EXPECT_TRUE(
      system_->DecideBatch(provider_, {{424242, true}})[0].IsNotFound());
}

TEST_F(ITagSystemTest, PromoteAndStopThroughFacade) {
  ProjectId p = MakeStartedProject(/*budget=*/10, /*resources=*/3);
  UserTaggerId a = system_->RegisterTagger("a").value();
  // Give resource 0 several posts so FP prefers others, then promote it.
  ASSERT_TRUE(system_->ImportPost(p, 0, {"t1"}).ok());
  ASSERT_TRUE(system_->ImportPost(p, 0, {"t2"}).ok());
  ASSERT_TRUE(
      system_->ControlBatch(p, {{ControlAction::kPromoteResource, 0}})[0].ok());
  AcceptedTask task = system_->AcceptTasks(a, p, 1).value()[0];
  EXPECT_EQ(task.resource, 0u);

  // Stop resource 1: it is never assigned again.
  ASSERT_TRUE(
      system_->ControlBatch(p, {{ControlAction::kStopResource, 1}})[0].ok());
  for (int i = 0; i < 5; ++i) {
    AcceptedTask t = system_->AcceptTasks(a, p, 1).value()[0];
    EXPECT_NE(t.resource, 1u);
  }
  // Resume re-admits it.
  ASSERT_TRUE(
      system_->ControlBatch(p, {{ControlAction::kResumeResource, 1}})[0].ok());
}

TEST_F(ITagSystemTest, SwitchStrategyAndRecommend) {
  ProjectId p = MakeStartedProject();
  ASSERT_TRUE(system_
                  ->ControlBatch(p, {{ControlAction::kSwitchStrategy, 0, 0,
                                      StrategyKind::kMostUnstableFirst}})[0]
                  .ok());
  // Fresh project with under-posted resources recommends FP-MU.
  EXPECT_EQ(system_->RecommendStrategy(p).value(),
            StrategyKind::kHybridFpMu);
}

TEST_F(ITagSystemTest, QualityFeedAndNotifications) {
  ProjectId p = MakeStartedProject(/*budget=*/30, /*resources=*/1);
  UserTaggerId a = system_->RegisterTagger("a").value();
  size_t feed_before = system_->QualityFeed(p).size();
  for (int i = 0; i < 8; ++i) {
    AcceptedTask task = system_->AcceptTasks(a, p, 1).value()[0];
    ASSERT_TRUE(
        system_->SubmitTagsBatch({{a, task.handle, {"same-tag"}}})[0].ok());
    auto pending = system_->PendingApprovals(p);
    ASSERT_EQ(pending.size(), 1u);
    ASSERT_TRUE(
      system_->DecideBatch(provider_, {{pending[0].handle, true}})[0].ok());
  }
  EXPECT_GT(system_->QualityFeed(p).size(), feed_before);
  // Identical tags stabilize the rfd: quality notification must fire.
  auto notes = system_->LatestNotifications(provider_, 100);
  bool improved = false, fresh_tagging = false;
  for (const auto& n : notes) {
    improved |= n.kind == NotificationKind::kQualityImproved;
    fresh_tagging |= n.kind == NotificationKind::kNewTagging;
  }
  EXPECT_TRUE(improved);
  EXPECT_TRUE(fresh_tagging);
}

TEST_F(ITagSystemTest, BudgetExhaustionStopsAssignment) {
  ProjectId p = MakeStartedProject(/*budget=*/2, /*resources=*/2);
  UserTaggerId a = system_->RegisterTagger("a").value();
  ASSERT_TRUE(system_->AcceptTasks(a, p, 1).ok());
  ASSERT_TRUE(system_->AcceptTasks(a, p, 1).ok());
  auto exhausted = system_->AcceptTasks(a, p, 1);
  EXPECT_TRUE(exhausted.status().IsResourceExhausted());
  // Budget top-up reopens the tap (Fig. 3 "add budget").
  ASSERT_TRUE(
      system_->ControlBatch(p, {{ControlAction::kAddBudget, 0, 1}})[0].ok());
  EXPECT_TRUE(system_->AcceptTasks(a, p, 1).ok());
}

TEST_F(ITagSystemTest, MTurkProjectRunsViaStep) {
  ProjectSpec spec = AudienceSpec("crowd-run", /*budget=*/30);
  spec.platform = PlatformChoice::kMTurk;
  ProjectId p = system_->CreateProject(provider_, spec).value();
  Upload(p, ResourceKind::kWebUrl,
         {"http://r/0", "http://r/1", "http://r/2", "http://r/3"});
  ASSERT_TRUE(system_->ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ASSERT_TRUE(system_->Step(2500).ok());
  ProjectInfo info = system_->GetProjectInfo(p).value();
  EXPECT_GT(info.tasks_completed, 10u);
  // Default policy approves everything: payments flowed via the ledger.
  EXPECT_GT(system_->ledger().TotalPaid(), 0u);
}

TEST_F(ITagSystemTest, SocialProjectRunsViaStep) {
  ProjectSpec spec = AudienceSpec("social-run", /*budget=*/20);
  spec.platform = PlatformChoice::kSocialNetwork;
  ProjectId p = system_->CreateProject(provider_, spec).value();
  Upload(p, ResourceKind::kImage, {"img0", "img1", "img2"});
  ASSERT_TRUE(system_->ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ASSERT_TRUE(system_->Step(4000).ok());
  EXPECT_GT(system_->GetProjectInfo(p).value().tasks_completed, 0u);
}

TEST_F(ITagSystemTest, ApprovalPolicyFiltersCarelessWork) {
  ProjectSpec spec = AudienceSpec("moderated", /*budget=*/40);
  spec.platform = PlatformChoice::kMTurk;
  ProjectId p = system_->CreateProject(provider_, spec).value();
  Upload(p, ResourceKind::kWebUrl, {"u"});
  // Reject everything: tasks bounce forever, none complete, provider's
  // approval rate collapses.
  system_->SetApprovalPolicy(provider_,
                             [](const PendingSubmission&) { return false; });
  ASSERT_TRUE(system_->ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ASSERT_TRUE(system_->Step(600).ok());
  EXPECT_EQ(system_->GetProjectInfo(p).value().tasks_completed, 0u);
  EXPECT_LT(system_->GetProvider(provider_).value().ApprovalRate(), 0.5);
}

TEST_F(ITagSystemTest, ExportProducesCsv) {
  ProjectId p = MakeStartedProject(/*budget=*/10, /*resources=*/2);
  ASSERT_TRUE(system_->ImportPost(p, 0, {"alpha", "beta"}).ok());
  std::string path = "/tmp/itag_system_export_test.csv";
  auto rows = system_->ExportProject(p, path);
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(rows.value(), 2u);
  EXPECT_TRUE(fs::exists(path));
  fs::remove(path);
}

TEST_F(ITagSystemTest, ProjectListingSortsByQuality) {
  ProjectId low = MakeStartedProject(/*budget=*/10, /*resources=*/1);
  ProjectId high = MakeStartedProject(/*budget=*/10, /*resources=*/1);
  // Stabilize `high` with identical imported posts.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(system_->ImportPost(high, 0, {"stable"}).ok());
  }
  auto list = system_->ListProjects(provider_);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].id, high);
  EXPECT_EQ(list[1].id, low);
  EXPECT_GE(list[0].quality, list[1].quality);
}

// ---------------------------------------------------- in-memory Reattach

/// Text image of what a caller can read back from `system`: the clock, the
/// accepted-task counter, the ledger totals, both profiles, and per project
/// its info, dictionary size, quality feed, pending handles and resource
/// details, then the provider's notifications. Doubles print with 17
/// digits, so equal captures mean equal values.
std::string CaptureState(ITagSystem& system, ProviderId provider,
                         UserTaggerId tagger) {
  std::ostringstream out;
  out.precision(17);
  out << "clock " << system.clock().Now() << " accepted "
      << system.tasks_accepted_total() << " paid "
      << system.ledger().TotalPaid() << " in "
      << system.ledger().PaymentCount() << "\n";
  ProviderProfile p = system.GetProvider(provider).value();
  out << "provider " << p.name << " " << p.approvals_given << "/"
      << p.rejections_given << "\n";
  TaggerProfile t = system.GetTagger(tagger).value();
  out << "tagger " << t.name << " " << t.submitted << " " << t.approved
      << "/" << t.rejected << " " << t.earned_cents << "\n";
  for (const ProjectInfo& info : system.ListProjects(provider)) {
    out << "project " << info.id << " state " << static_cast<int>(info.state)
        << " strategy " << static_cast<int>(info.spec.strategy) << " budget "
        << info.spec.budget << " remaining " << info.budget_remaining
        << " completed " << info.tasks_completed << " resources "
        << info.num_resources << " tags "
        << system.resource_manager().GetCorpus(info.id)->dict().size()
        << " quality " << info.quality << " gain " << info.projected_gain
        << "\n";
    for (const QualityPoint& point : system.QualityFeed(info.id)) {
      out << "  point " << point.tasks << " " << point.quality << " "
          << point.time << "\n";
    }
    for (const PendingSubmission& sub : system.PendingApprovals(info.id)) {
      out << "  pending " << sub.handle << " resource " << sub.resource
          << "\n";
    }
    for (tagging::ResourceId r = 0; r < info.num_resources; ++r) {
      QualityManager::ResourceDetail d =
          system.GetResourceDetail(info.id, r).value();
      out << "  resource " << r << " posts " << d.posts << " quality "
          << d.quality << " next " << d.projected_gain_next_task
          << (d.stopped ? " stopped" : "");
      for (const TagFrequency& tag : d.top_tags) {
        out << " " << tag.tag << ":" << tag.count;
      }
      out << "\n";
    }
  }
  for (const Notification& n : system.LatestNotifications(provider, 64)) {
    out << "note " << static_cast<int>(n.kind) << " " << n.time << " "
        << n.project << " " << n.message << "\n";
  }
  return out.str();
}

/// Runs the same script on two in-memory systems, so one of them can
/// Reattach and be compared with the other.
class ITagSystemInMemoryTest : public ::testing::Test {
 protected:
  struct Run {
    ITagSystem system;
    ProviderId provider = 0;
    UserTaggerId tagger = 0;
    ProjectId audience = 0;
    std::vector<TaskHandle> open_tasks;  ///< accepted, not submitted
  };

  void SetUp() override {
    for (Run* run : {&a_, &b_}) {
      ASSERT_TRUE(run->system.Init().ok());
      Prepare(run);
    }
  }

  std::string Capture(Run& run) {
    return CaptureState(run.system, run.provider, run.tagger);
  }

  /// An audience project with imported tags, a budget top-up and a stopped
  /// resource; a 4-task cycle with one rejection; an MTurk project stepped
  /// 200 ticks under a policy that rejects careless work, with budget left
  /// for the Steps after it; then three more tasks, one of them submitted
  /// and left pending, two left accepted.
  static void Prepare(Run* run) {
    ITagSystem& s = run->system;
    run->provider = s.RegisterProvider("pat").value();
    run->tagger = s.RegisterTagger("tom").value();
    run->audience =
        s.CreateProject(run->provider, AudienceSpec("aud", 20)).value();
    std::vector<ResourceUpload> uploads = {
        {ResourceKind::kWebUrl, "http://a/0", "", {"news", "daily"}},
        {ResourceKind::kWebUrl, "http://a/1", "", {"sport"}},
        {ResourceKind::kWebUrl, "http://a/2", "", {}}};
    std::vector<tagging::ResourceId> ids;
    for (const Status& st :
         s.UploadResourceBatch(run->audience, uploads, &ids)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (const Status& st :
         s.ControlBatch(run->audience,
                        {{ControlAction::kStart},
                         {ControlAction::kAddBudget, 0, 5},
                         {ControlAction::kStopResource, ids[2]}})) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    Cycle(run, 4, /*reject_first=*/true);

    // Careless platform work is rejected, so the dictionary holds tags
    // that no post carries and only the dict rows restore its order.
    s.SetApprovalPolicy(run->provider, [](const PendingSubmission& sub) {
      return sub.conscientious_hint;
    });
    ProjectSpec spec = AudienceSpec("turk", 300);
    spec.platform = PlatformChoice::kMTurk;
    ProjectId turk = s.CreateProject(run->provider, spec).value();
    std::vector<ResourceUpload> turk_uploads;
    for (int i = 0; i < 4; ++i) {
      turk_uploads.push_back(
          {ResourceKind::kImage, "img" + std::to_string(i), "", {}});
    }
    s.UploadResourceBatch(turk, turk_uploads, &ids);
    ASSERT_TRUE(s.ControlBatch(turk, {{ControlAction::kStart}})[0].ok());
    ASSERT_TRUE(s.Step(200).ok());

    std::vector<AcceptedTask> tasks =
        s.AcceptTasks(run->tagger, run->audience, 3).value();
    ASSERT_EQ(tasks.size(), 3u);
    ASSERT_TRUE(s.SubmitTagsBatch({{run->tagger, tasks[0].handle,
                                    {"late", "news"}}})[0]
                    .ok());
    run->open_tasks = {tasks[1].handle, tasks[2].handle};
  }

  /// Accepts `count` audience tasks, submits them together with the
  /// tasks left open before, and decides every pending submission,
  /// rejecting the first one when `reject_first`.
  static void Cycle(Run* run, size_t count, bool reject_first) {
    ITagSystem& s = run->system;
    std::vector<AcceptedTask> tasks =
        s.AcceptTasks(run->tagger, run->audience, count).value();
    ASSERT_EQ(tasks.size(), count);
    std::vector<TagSubmission> items;
    for (TaskHandle handle : run->open_tasks) {
      items.push_back({run->tagger, handle, {"kept", "open"}});
    }
    run->open_tasks.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      items.push_back(
          {run->tagger, tasks[i].handle, {"tag", "t" + std::to_string(i % 2)}});
    }
    for (const Status& st : s.SubmitTagsBatch(items)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    std::vector<std::pair<TaskHandle, bool>> decisions;
    for (const PendingSubmission& sub : s.PendingApprovals(run->audience)) {
      decisions.emplace_back(sub.handle,
                             !(reject_first && decisions.empty()));
    }
    for (const Status& st : s.DecideBatch(run->provider, decisions)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  Run a_;
  Run b_;
};

// Every manager writes the same rows on an in-memory database as on a
// durable one, so Reattach re-derives an in-memory system too: workflow
// maps, ledger, simulators, clock and RNG come back from the tables, and
// the reattached system keeps running in lockstep with one that did not.
TEST_F(ITagSystemInMemoryTest, ReattachRebuildsTheSameState) {
  const std::string before = Capture(b_);
  ASSERT_EQ(Capture(a_), before);
  ASSERT_TRUE(b_.system.Reattach().ok());
  EXPECT_EQ(Capture(b_), before);

  for (Run* run : {&a_, &b_}) {
    Cycle(run, 3, /*reject_first=*/false);
    ASSERT_TRUE(run->system.Step(100).ok());
  }
  EXPECT_EQ(Capture(b_), Capture(a_));
}

TEST(ITagSystemDurabilityTest, StateSurvivesRestart) {
  std::string dir =
      (fs::temp_directory_path() /
       ("itag_system_durability." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  ITagSystemOptions opts;
  opts.db.directory = dir;
  ProviderId provider;
  {
    ITagSystem system(opts);
    ASSERT_TRUE(system.Init().ok());
    provider = system.RegisterProvider("persistent-pat").value();
    UserTaggerId t = system.RegisterTagger("tess").value();
    ASSERT_TRUE(system.user_manager()
                    .RecordDecision(provider, t, true, 7)
                    .ok());
    ASSERT_TRUE(system.database().Checkpoint().ok());
  }
  {
    ITagSystem system(opts);
    ASSERT_TRUE(system.Init().ok());
    // Users and their approval stats reload from storage.
    EXPECT_EQ(system.GetProvider(provider).value().name, "persistent-pat");
    EXPECT_EQ(system.GetProvider(provider).value().approvals_given, 1u);
    auto taggers = system.user_manager().QualifiedTaggers(0.5, 1);
    ASSERT_EQ(taggers.size(), 1u);
    EXPECT_EQ(taggers[0].name, "tess");
    EXPECT_EQ(taggers[0].earned_cents, 7u);
  }
  fs::remove_all(dir);
}

// Every control verb is one atomic WAL record. Start from Draft writes a
// quality point and the project row; were they two frames, a tail torn
// between them would recover a Draft project with a start point in its
// feed, and the next Start would add a second one.
TEST(ITagSystemDurabilityTest, ControlVerbsWriteAtMostOneWalFrame) {
  std::string dir = (fs::temp_directory_path() /
                     ("itag_system_verbs." + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  ITagSystemOptions opts;
  opts.db.directory = dir;
  ITagSystem system(opts);
  ASSERT_TRUE(system.Init().ok());
  ProviderId provider = system.RegisterProvider("verbs").value();
  ProjectId p = system.CreateProject(provider, AudienceSpec("verbs")).value();
  std::vector<tagging::ResourceId> ids;
  std::vector<ResourceUpload> uploads = {{ResourceKind::kWebUrl, "u0", "", {}},
                                         {ResourceKind::kWebUrl, "u1", "", {}}};
  system.UploadResourceBatch(p, uploads, &ids);
  ASSERT_EQ(ids.size(), 2u);

  const std::string wal = system.database().wal_path();
  auto frames = [&wal] {
    std::vector<storage::WalRecord> records;
    EXPECT_TRUE(storage::ReadWal(wal, &records).ok());
    return records.size();
  };
  const std::vector<std::pair<std::string, ControlItem>> verbs = {
      {"StartProject from Draft", {ControlAction::kStart}},
      {"PauseProject", {ControlAction::kPause}},
      {"StartProject from Paused", {ControlAction::kStart}},
      {"AddBudget", {ControlAction::kAddBudget, 0, 5}},
      {"SwitchStrategy",
       {ControlAction::kSwitchStrategy, 0, 0,
        StrategyKind::kMostUnstableFirst}},
      {"PromoteResource", {ControlAction::kPromoteResource, ids[1]}},
      {"StopResource", {ControlAction::kStopResource, ids[0]}},
      {"ResumeResource", {ControlAction::kResumeResource, ids[0]}},
      {"StopProject", {ControlAction::kStop}},
  };
  for (const auto& [name, verb] : verbs) {
    const size_t before = frames();
    Status s = system.ControlBatch(p, {verb})[0];
    ASSERT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_LE(frames() - before, 1u) << name;
  }
  fs::remove_all(dir);
}

// Platform Steps write the simulators' state: one sys row per simulator,
// which holds live tasks only. So the WAL bytes of a window of Steps stay
// flat as settled tasks pile up, instead of growing with every task ever
// posted.
TEST(ITagSystemDurabilityTest, PlatformStepWalBytesStayFlat) {
  std::string dir = (fs::temp_directory_path() /
                     ("itag_system_step_wal." + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  ITagSystemOptions opts;
  opts.db.directory = dir;
  ITagSystem system(opts);
  ASSERT_TRUE(system.Init().ok());
  ProviderId provider = system.RegisterProvider("turk").value();
  ProjectSpec spec = AudienceSpec("turk", /*budget=*/100000);
  spec.platform = PlatformChoice::kMTurk;
  ProjectId p = system.CreateProject(provider, spec).value();
  std::vector<ResourceUpload> uploads;
  for (int i = 0; i < 64; ++i) {
    uploads.push_back({ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
  }
  std::vector<tagging::ResourceId> ids;
  system.UploadResourceBatch(p, uploads, &ids);
  ASSERT_EQ(ids.size(), 64u);
  ASSERT_TRUE(system.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
  ASSERT_TRUE(system.Checkpoint().ok());

  const obs::Counter* wal_bytes =
      obs::MetricsRegistry::Default().GetCounter("storage.wal.bytes");
  std::vector<uint64_t> window_bytes;
  for (int window = 0; window < 4; ++window) {
    const uint64_t before = wal_bytes->value();
    for (int i = 0; i < 400; ++i) ASSERT_TRUE(system.Step(1).ok());
    window_bytes.push_back(wal_bytes->value() - before);
    ASSERT_TRUE(system.Checkpoint().ok());
  }
  EXPECT_GT(system.GetProjectInfo(p).value().tasks_completed, 1000u);
  EXPECT_LE(window_bytes.back(), window_bytes.front() * 5 / 4)
      << "first window " << window_bytes.front() << " bytes, last "
      << window_bytes.back();
  fs::remove_all(dir);
}

/// The sub-records of `record`: those of a batch, or the record itself.
std::vector<storage::WalRecord> SubRecords(const storage::WalRecord& record) {
  if (record.op != storage::WalOp::kBatch) return {record};
  std::vector<storage::WalRecord> subs;
  ByteReader in(record.payload);
  while (!in.AtEnd()) {
    std::string bytes;
    storage::WalRecord sub;
    if (!in.Str(&bytes) || !storage::DecodeWalRecord(bytes, &sub)) {
      ADD_FAILURE() << "malformed sub-record";
      break;
    }
    subs.push_back(std::move(sub));
  }
  return subs;
}

/// The WAL sub-records, batched or not, that write `table` in the log at
/// `path`.
size_t TableWrites(const std::string& path, const std::string& table) {
  std::vector<storage::WalRecord> records;
  EXPECT_TRUE(storage::ReadWal(path, &records).ok());
  size_t writes = 0;
  for (const storage::WalRecord& record : records) {
    for (const storage::WalRecord& sub : SubRecords(record)) {
      writes += sub.table == table;
    }
  }
  return writes;
}

/// The keys of the `sys` rows the last record of the log at `path` writes,
/// in the order it writes them.
std::vector<std::string> LastRecordSysKeys(const std::string& path) {
  std::vector<storage::WalRecord> records;
  EXPECT_TRUE(storage::ReadWal(path, &records).ok());
  std::vector<std::string> keys;
  if (records.empty()) return keys;
  for (const storage::WalRecord& sub : SubRecords(records.back())) {
    if (sub.table != tables::kSys) continue;
    storage::Row row;
    EXPECT_TRUE(storage::DecodeRow(sub.payload, 2, &row));
    keys.push_back(row.empty() ? "" : row[0].as_string());
  }
  return keys;
}

// A Step on a system with no platform project moves the simulators' clocks
// and nothing else of theirs, so it logs the core row (clock, RNG, id
// counters) and no simulator blob: one sys sub-record, not three.
TEST(ITagSystemDurabilityTest, AudienceOnlyStepLogsOnlyTheCoreRow) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("itag_system_audience_step." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  ITagSystemOptions opts;
  opts.db.directory = dir;
  opts.db.paged = true;
  {
    ITagSystem system(opts);
    ASSERT_TRUE(system.Init().ok());
    ProviderId provider = system.RegisterProvider("aud").value();
    ProjectId p = system.CreateProject(provider, AudienceSpec("aud")).value();
    std::vector<tagging::ResourceId> ids;
    system.UploadResourceBatch(p, {{ResourceKind::kWebUrl, "u0", "", {"a"}}},
                               &ids);
    ASSERT_TRUE(system.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    const std::string wal = system.database().wal_path();
    const size_t before = TableWrites(wal, tables::kSys);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(system.Step(1).ok());
      EXPECT_EQ(LastRecordSysKeys(wal), std::vector<std::string>{"core"})
          << "step " << i;
    }
    EXPECT_EQ(TableWrites(wal, tables::kSys) - before, 3u);
  }
  // The simulators restore at the core clock, and still write nothing.
  ITagSystem system(opts);
  ASSERT_TRUE(system.Init().ok());
  EXPECT_EQ(system.clock().Now(), 3);
  ASSERT_TRUE(system.Step(1).ok());
  EXPECT_EQ(LastRecordSysKeys(system.database().wal_path()),
            std::vector<std::string>{"core"});
  fs::remove_all(dir);
}

// A simulator's blob is written only when the simulator changed past its
// clock, and a restart sets every simulator's clock from the core row. A
// system with an MTurk and a social project is restarted at ticks where
// only the simulator clocks moved (every posted task accepted, its worker
// busy), at ticks where tasks moved, and once its paused projects have
// drained, before they resume. After each restart and each later Step it
// matches a twin that never restarted: Step statuses, the sys rows each
// Step writes, CaptureState (project infos, feeds, resource details,
// notifications) and every row of every table.
TEST(ITagSystemDurabilityTest, PlatformBlobsOfClockOnlyTicksAreSkippedExactly) {
  const std::string base =
      (fs::temp_directory_path() /
       ("itag_system_blob_skip." + std::to_string(::getpid())))
          .string();
  fs::remove_all(base);
  auto opts = [&base](const std::string& name) {
    ITagSystemOptions o;
    o.db.directory = base + "/" + name;
    o.db.paged = true;
    return o;
  };
  std::vector<ProjectId> projects;
  auto build = [&projects](ITagSystem& s) {
    projects.clear();
    const ProviderId provider = s.RegisterProvider("crowd").value();
    EXPECT_TRUE(s.RegisterTagger("idle").ok());  // CaptureState reads one
    for (PlatformChoice platform :
         {PlatformChoice::kMTurk, PlatformChoice::kSocialNetwork}) {
      ProjectSpec spec = AudienceSpec("crowd", /*budget=*/400);
      spec.platform = platform;
      const ProjectId p = s.CreateProject(provider, spec).value();
      projects.push_back(p);
      std::vector<ResourceUpload> uploads;
      for (int i = 0; i < 6; ++i) {
        uploads.push_back(
            {ResourceKind::kWebUrl, "u" + std::to_string(i), "", {"seed"}});
      }
      std::vector<tagging::ResourceId> ids;
      s.UploadResourceBatch(p, uploads, &ids);
      EXPECT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    }
  };
  // Every row of every table: its table, row id and encoded bytes.
  auto rows = [](ITagSystem& s) {
    std::ostringstream out;
    for (const std::string& name : s.database().TableNames()) {
      EXPECT_TRUE(s.database()
                      .GetTable(name)
                      ->Scan([&](storage::RowId id, const storage::Row& row) {
                        out << name << " " << id << " "
                            << storage::EncodeRow(row) << "\n";
                        return true;
                      })
                      .ok());
    }
    return out.str();
  };

  ITagSystem twin(opts("twin"));
  ASSERT_TRUE(twin.Init().ok());
  build(twin);
  auto restarted = std::make_unique<ITagSystem>(opts("restarted"));
  ASSERT_TRUE(restarted->Init().ok());
  build(*restarted);

  int tick = 0;
  // Steps both systems one tick; returns the sys keys the tick wrote.
  auto step_both = [&] {
    ++tick;
    const Status a = twin.Step(1);
    const Status b = restarted->Step(1);
    EXPECT_EQ(a.ToString(), b.ToString()) << "tick " << tick;
    const std::vector<std::string> keys =
        LastRecordSysKeys(restarted->database().wal_path());
    EXPECT_EQ(keys, LastRecordSysKeys(twin.database().wal_path()))
        << "tick " << tick;
    EXPECT_EQ(keys.empty() ? "" : keys.front(), "core") << "tick " << tick;
    return keys;
  };
  auto expect_twins = [&] {
    ASSERT_EQ(CaptureState(*restarted, 0, 0), CaptureState(twin, 0, 0))
        << "tick " << tick;
    ASSERT_EQ(rows(*restarted), rows(twin)) << "tick " << tick;
  };
  auto restart = [&] {
    restarted = std::make_unique<ITagSystem>(opts("restarted"));
    ASSERT_TRUE(restarted->Init().ok()) << "tick " << tick;
    expect_twins();
  };
  auto control_both = [&](ControlAction action) {
    for (ProjectId p : projects) {
      EXPECT_EQ(twin.ControlBatch(p, {{action}})[0].ToString(),
                restarted->ControlBatch(p, {{action}})[0].ToString());
    }
  };

  // Running projects: restart at ticks where only the simulator clocks
  // moved and at ticks where a blob was written.
  int clock_only_restarts = 0;
  int moving_restarts = 0;
  while (tick < 300) {
    const bool clock_only = step_both().size() == 1;
    if (HasFailure()) return;
    if (clock_only ? clock_only_restarts < 4 && tick % 3 == 0
                   : moving_restarts < 4 && tick % 29 == 0) {
      (clock_only ? clock_only_restarts : moving_restarts) += 1;
      restart();
    } else if (tick % 50 == 0) {
      expect_twins();
    }
    if (HasFailure()) return;
  }
  EXPECT_EQ(clock_only_restarts, 4);
  EXPECT_EQ(moving_restarts, 4);

  // Paused projects drain their tasks; then every tick moves the clocks
  // alone, so the blobs last written trail the core clock by the whole
  // quiet spell. A restart there, then a resume: the tasks posted on the
  // next tick meet simulators whose clocks a restore set from the core
  // row, so they are browsed at the same tick, with the same draws, as on
  // the twin.
  control_both(ControlAction::kPause);
  for (int quiet = 0; quiet < 25 && tick < 800;) {
    quiet = step_both().size() == 1 ? quiet + 1 : 0;
    if (HasFailure()) return;
  }
  EXPECT_LT(tick, 800) << "the paused projects never drained";
  restart();
  control_both(ControlAction::kStart);
  for (int i = 0; i < 150; ++i) {
    step_both();
    if (i < 40 || i % 50 == 0) expect_twins();
    if (HasFailure()) return;
  }
  for (const ProjectInfo& info : twin.ListProjects(0)) {
    EXPECT_GT(info.tasks_completed, 20u) << info.id;
  }
  EXPECT_EQ(CaptureState(*restarted, 0, 0), CaptureState(twin, 0, 0));
  EXPECT_EQ(rows(*restarted), rows(twin));
  fs::remove_all(base);
}

// A platform project whose budget is spent draws on every Step tick and
// finds nothing. The draw moves no engine state, and only the first one
// changes the project row (it flags the budget-exhausted notification), so
// later Steps write no project row. A restart still recovers the state of a
// twin that never restarted, and both go on alike.
TEST(ITagSystemDurabilityTest, SpentPlatformProjectStepsWriteNoProjectRow) {
  const std::string base =
      (fs::temp_directory_path() /
       ("itag_system_spent." + std::to_string(::getpid())))
          .string();
  fs::remove_all(base);
  auto opts = [&base](const std::string& name) {
    ITagSystemOptions o;
    o.db.directory = base + "/" + name;
    return o;
  };
  // A 20-task MTurk project stepped until every task is approved, then one
  // Step more, so its first draw on the spent budget is behind it. Returns
  // the Steps taken.
  auto spend = [](ITagSystem& s) {
    const ProviderId provider = s.RegisterProvider("turk").value();
    EXPECT_TRUE(s.RegisterTagger("idle").ok());  // CaptureState reads one
    ProjectSpec spec = AudienceSpec("spent", /*budget=*/20);
    spec.platform = PlatformChoice::kMTurk;
    const ProjectId p = s.CreateProject(provider, spec).value();
    std::vector<ResourceUpload> uploads;
    for (int i = 0; i < 8; ++i) {
      uploads.push_back(
          {ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
    }
    std::vector<tagging::ResourceId> ids;
    s.UploadResourceBatch(p, uploads, &ids);
    EXPECT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    int steps = 0;
    for (ProjectInfo info = s.GetProjectInfo(p).value();
         info.budget_remaining != 0 || info.tasks_completed != 20;
         info = s.GetProjectInfo(p).value()) {
      EXPECT_TRUE(s.Step(1).ok());
      if (++steps == 20000) {
        ADD_FAILURE() << "budget never spent";
        break;
      }
    }
    EXPECT_TRUE(s.Step(1).ok());
    return steps + 1;
  };
  ITagSystem twin(opts("twin"));
  ASSERT_TRUE(twin.Init().ok());
  const int steps = spend(twin);
  {
    ITagSystem s(opts("restarted"));
    ASSERT_TRUE(s.Init().ok());
    ASSERT_EQ(spend(s), steps);
    ASSERT_TRUE(s.Checkpoint().ok());
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(s.Step(1).ok());
    const std::string wal = s.database().wal_path();
    EXPECT_EQ(TableWrites(wal, tables::kProjects), 0u);
    EXPECT_GT(TableWrites(wal, tables::kSys), 0u);  // the clock moved
  }
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(twin.Step(1).ok());
  ITagSystem restarted(opts("restarted"));
  ASSERT_TRUE(restarted.Init().ok());
  EXPECT_EQ(CaptureState(restarted, 0, 0), CaptureState(twin, 0, 0));
  for (ITagSystem* s : {&twin, &restarted}) {
    ASSERT_TRUE(s->Step(100).ok());
  }
  EXPECT_EQ(CaptureState(restarted, 0, 0), CaptureState(twin, 0, 0));
  fs::remove_all(base);
}

// A tag cycle writes each tagger, provider and ledger row once per call,
// when the call ends, so no row image folds inside any of its WAL batches.
// The rows are still written, inside the call's batch: re-deriving the
// system from its tables reads every live value back, also after a decide
// whose items include an unknown handle.
TEST(ITagSystemDurabilityTest, TagCycleWritesEachRowOnce) {
  std::string dir = (fs::temp_directory_path() /
                     ("itag_system_row_once." + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  ITagSystemOptions opts;
  opts.db.directory = dir;
  ITagSystem system(opts);
  ASSERT_TRUE(system.Init().ok());
  ProviderId provider = system.RegisterProvider("once").value();
  UserTaggerId tagger = system.RegisterTagger("tagger").value();
  ProjectId p =
      system.CreateProject(provider, AudienceSpec("once", /*budget=*/100))
          .value();
  std::vector<ResourceUpload> uploads;
  for (int i = 0; i < 8; ++i) {
    uploads.push_back({ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
  }
  std::vector<tagging::ResourceId> ids;
  system.UploadResourceBatch(p, uploads, &ids);
  ASSERT_TRUE(system.ControlBatch(p, {{ControlAction::kStart}})[0].ok());

  const obs::Counter* folded =
      obs::MetricsRegistry::Default().GetCounter("storage.wal.coalesced_rows");
  // Accepts and submits 8 tasks, checking that neither call folds a row
  // image; returns the approval of each.
  auto accept_and_submit = [&] {
    std::vector<std::pair<TaskHandle, bool>> decisions;
    uint64_t before = folded->value();
    Result<std::vector<AcceptedTask>> tasks = system.AcceptTasks(tagger, p, 8);
    EXPECT_TRUE(tasks.ok()) << tasks.status().ToString();
    if (!tasks.ok()) return decisions;
    EXPECT_EQ(tasks.value().size(), 8u);
    EXPECT_EQ(folded->value(), before) << "AcceptTasks";
    std::vector<TagSubmission> subs;
    for (const AcceptedTask& task : tasks.value()) {
      subs.push_back(
          {tagger, task.handle, {"t" + std::to_string(task.resource), "all"}});
      decisions.emplace_back(task.handle, true);
    }
    before = folded->value();
    for (const Status& s : system.SubmitTagsBatch(subs)) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_EQ(folded->value(), before) << "SubmitTagsBatch";
    return decisions;
  };
  auto capture = [&] {
    const TaggerProfile t = system.GetTagger(tagger).value();
    const crowd::PaymentLedger& ledger = system.ledger();
    return std::vector<uint64_t>{
        t.submitted,
        t.approved,
        t.earned_cents,
        system.GetProvider(provider).value().approvals_given,
        ledger.TotalPaid(),
        ledger.PaymentCount()};
  };

  std::vector<std::pair<TaskHandle, bool>> decisions = accept_and_submit();
  uint64_t before = folded->value();
  for (const Status& s : system.DecideBatch(provider, decisions)) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(folded->value(), before) << "DecideBatch";
  std::vector<uint64_t> live = capture();
  EXPECT_EQ(live, (std::vector<uint64_t>{8, 8, 32, 8, 32, 8}));
  ASSERT_TRUE(system.Reattach().ok());
  EXPECT_EQ(capture(), live);

  // An unknown handle among valid ones: the items that settle still have
  // their rows written.
  decisions = accept_and_submit();
  constexpr TaskHandle kUnknown = 1000000;
  decisions.insert(decisions.begin() + 3, {kUnknown, true});
  std::vector<Status> out = system.DecideBatch(provider, decisions);
  ASSERT_EQ(out.size(), 9u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(i == 3 ? out[i].IsNotFound() : out[i].ok())
        << i << ": " << out[i].ToString();
  }
  live = capture();
  EXPECT_EQ(live, (std::vector<uint64_t>{16, 16, 64, 16, 64, 16}));
  ASSERT_TRUE(system.Reattach().ok());
  EXPECT_EQ(capture(), live);
  fs::remove_all(dir);
}

// ---------------------------------------------------------- open tasks

/// Each open audience task is one `tasks` row, from its acceptance until
/// its decision; these run on both durable engines (the parameter: paged).
class OpenTaskTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("itag_open_tasks." + std::to_string(::getpid()) +
              (GetParam() ? ".paged" : ".snapshot")))
                .string();
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  ITagSystemOptions Opts(const std::string& name) const {
    ITagSystemOptions opts;
    opts.db.directory = base_ + "/" + name;
    opts.db.paged = GetParam();
    return opts;
  }

  /// Registers provider 0 and tagger 0 and starts one audience project
  /// with `resources` resources and a budget of `budget` tasks.
  static ProjectId StartProject(ITagSystem& s, uint32_t budget,
                                int resources) {
    EXPECT_TRUE(s.RegisterProvider("prov").ok());
    EXPECT_TRUE(s.RegisterTagger("tagger").ok());
    ProjectId p = s.CreateProject(0, AudienceSpec("open", budget)).value();
    std::vector<ResourceUpload> uploads;
    for (int i = 0; i < resources; ++i) {
      uploads.push_back(
          {ResourceKind::kWebUrl, "u" + std::to_string(i), "", {}});
    }
    std::vector<tagging::ResourceId> ids;
    for (const Status& st : s.UploadResourceBatch(p, uploads, &ids)) {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    return p;
  }

  std::string base_;
};

INSTANTIATE_TEST_SUITE_P(Engines, OpenTaskTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paged" : "Snapshot";
                         });

/// Status codes as text, for comparing two runs item by item.
std::vector<std::string> Texts(const std::vector<Status>& statuses) {
  std::vector<std::string> out;
  for (const Status& s : statuses) out.push_back(s.ToString());
  return out;
}

// Accept 8, submit 5, restart: the 3 accepted tasks submit and the 5
// submitted ones are decided by their pre-restart handles, with the
// statuses of a twin that never restarted.
TEST_P(OpenTaskTest, AcceptedAndSubmittedTasksSurviveRestart) {
  constexpr uint32_t kBudget = 20;
  ITagSystem twin(Opts("twin"));
  ASSERT_TRUE(twin.Init().ok());
  const ProjectId p = StartProject(twin, kBudget, 8);
  std::vector<AcceptedTask> tasks;
  std::vector<PendingSubmission> pending;
  {
    ITagSystem before(Opts("restarted"));
    ASSERT_TRUE(before.Init().ok());
    ASSERT_EQ(StartProject(before, kBudget, 8), p);
    for (ITagSystem* s : {&twin, &before}) {
      tasks = s->AcceptTasks(0, p, 8).value();
      ASSERT_EQ(tasks.size(), 8u);
      std::vector<TagSubmission> subs;
      for (size_t i = 0; i < 5; ++i) {
        subs.push_back({0, tasks[i].handle, {"Tag " + std::to_string(i)}});
      }
      for (const Status& st : s->SubmitTagsBatch(subs)) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    }
    pending = before.PendingApprovals(p);
  }
  ITagSystem restarted(Opts("restarted"));
  ASSERT_TRUE(restarted.Init().ok());

  auto handles_of = [](const std::vector<PendingSubmission>& subs) {
    std::vector<std::pair<TaskHandle, tagging::ResourceId>> out;
    for (const PendingSubmission& sub : subs) {
      out.emplace_back(sub.handle, sub.resource);
      EXPECT_EQ(sub.tagger, 0u);
      EXPECT_EQ(sub.tags.size(), 1u);
    }
    return out;
  };
  ASSERT_EQ(pending.size(), 5u);
  EXPECT_EQ(handles_of(restarted.PendingApprovals(p)), handles_of(pending));
  EXPECT_EQ(handles_of(twin.PendingApprovals(p)), handles_of(pending));
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(restarted.PendingApprovals(p)[i].tags, pending[i].tags);
    EXPECT_EQ(pending[i].tags[0], "tag-" + std::to_string(i));
  }

  std::vector<TagSubmission> rest;
  for (size_t i = 5; i < 8; ++i) rest.push_back({0, tasks[i].handle, {"late"}});
  std::vector<std::pair<TaskHandle, bool>> decisions;
  for (size_t i = 0; i < 5; ++i) {
    decisions.emplace_back(tasks[i].handle, i != 2);
  }
  std::vector<std::vector<std::string>> outcomes;
  for (ITagSystem* s : {&twin, &restarted}) {
    std::vector<std::string> out = Texts(s->SubmitTagsBatch(rest));
    for (const std::string& st : Texts(s->DecideBatch(0, decisions))) {
      out.push_back(st);
    }
    outcomes.push_back(out);
  }
  EXPECT_EQ(outcomes[1], outcomes[0]);
  EXPECT_EQ(outcomes[0], std::vector<std::string>(8, Status::OK().ToString()));

  for (ITagSystem* s : {&twin, &restarted}) {
    const ProjectInfo info = s->GetProjectInfo(p).value();
    const size_t awaiting = s->PendingApprovals(p).size();
    EXPECT_EQ(awaiting, 3u);
    EXPECT_EQ(info.tasks_completed, 4u);
    EXPECT_EQ(info.budget_remaining + info.tasks_completed + awaiting, kBudget);
    EXPECT_EQ(s->ledger().TotalPaid(), 4u * 4u);
    EXPECT_EQ(s->ledger().PaymentCount(), 4u);
  }
  EXPECT_EQ(CaptureState(restarted, 0, 0), CaptureState(twin, 0, 0));
}

// The per-item statuses of submit and decide, before and after a restart:
// a submitted handle cannot be submitted again, an accepted-only handle
// cannot be decided, and only the accepting tagger submits.
TEST_P(OpenTaskTest, StatusMatrixHoldsAcrossRestart) {
  TaskHandle submitted = 0;
  TaskHandle accepted = 0;
  ProjectId p = 0;
  auto expect_matrix = [&](ITagSystem& s) {
    EXPECT_TRUE(s.SubmitTagsBatch({{0, submitted, {"again"}}})[0].IsNotFound());
    EXPECT_TRUE(s.DecideBatch(0, {{accepted, true}})[0].IsNotFound());
    EXPECT_TRUE(s.SubmitTagsBatch({{1, accepted, {"other"}}})[0]
                    .IsFailedPrecondition());
    EXPECT_TRUE(s.SubmitTagsBatch({{0, 9999, {"x"}}})[0].IsNotFound());
    EXPECT_TRUE(s.DecideBatch(0, {{9999, true}})[0].IsNotFound());
    EXPECT_EQ(s.PendingApprovals(p).size(), 1u);
  };
  {
    ITagSystem s(Opts("matrix"));
    ASSERT_TRUE(s.Init().ok());
    p = StartProject(s, 10, 2);
    ASSERT_TRUE(s.RegisterTagger("other").ok());
    std::vector<AcceptedTask> tasks = s.AcceptTasks(0, p, 2).value();
    ASSERT_EQ(tasks.size(), 2u);
    submitted = tasks[0].handle;
    accepted = tasks[1].handle;
    ASSERT_TRUE(s.SubmitTagsBatch({{0, submitted, {"first"}}})[0].ok());
    expect_matrix(s);
  }
  ITagSystem s(Opts("matrix"));
  ASSERT_TRUE(s.Init().ok());
  expect_matrix(s);
  EXPECT_TRUE(s.DecideBatch(0, {{submitted, true}})[0].ok());
  EXPECT_TRUE(s.DecideBatch(0, {{submitted, true}})[0].IsNotFound());
  EXPECT_TRUE(s.SubmitTagsBatch({{0, accepted, {"second"}}})[0].ok());
  EXPECT_TRUE(s.DecideBatch(0, {{accepted, false}})[0].ok());
  EXPECT_TRUE(s.PendingApprovals(p).empty());
}

// A directory written before the tasks table still holds an `accepted` or
// `pending` table. Init refuses it, naming the table, rather than drop the
// open tasks whose budget those rows debited.
TEST_P(OpenTaskTest, RetiredTaskTableFailsInit) {
  for (const char* retired : {"accepted", "pending"}) {
    SCOPED_TRACE(retired);
    const ITagSystemOptions opts = Opts(retired);
    {
      ITagSystem s(opts);
      ASSERT_TRUE(s.Init().ok());
      ASSERT_TRUE(s.RegisterProvider("old").ok());
    }
    {
      storage::Database db;
      ASSERT_TRUE(db.Open(opts.db).ok());
      ASSERT_TRUE(db.CreateTable(retired, storage::SchemaBuilder()
                                              .Int("handle")
                                              .Int("project")
                                              .Build())
                      .ok());
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    ITagSystem s(opts);
    Status st = s.Init();
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
    EXPECT_NE(st.ToString().find(std::string("'") + retired + "'"),
              std::string::npos)
        << st.ToString();
  }
}

// The WAL sub-records of each call of a tag cycle: one tagger, 32
// resources, 2 tags per submission, measured in the 5th 8-task cycle, when
// every tag text is already interned. A submit updates each task's row in
// place, and a decide deletes it; the ledger writes its totals row only.
// No call folds a row image.
TEST_P(OpenTaskTest, CycleSubRecordCounts) {
  ITagSystem s(Opts("counts"));
  ASSERT_TRUE(s.Init().ok());
  const ProjectId p = StartProject(s, 100, 32);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::Histogram* rows = registry.GetHistogram("storage.wal.batch_rows");
  const obs::Counter* folded =
      registry.GetCounter("storage.wal.coalesced_rows");
  const obs::Counter* wal_bytes = registry.GetCounter("storage.wal.bytes");
  struct Delta {
    uint64_t rows = 0;
    uint64_t folded = 0;
    uint64_t bytes = 0;
  };
  auto measure = [&](const std::function<void()>& call) {
    const Delta before{rows->sum(), folded->value(), wal_bytes->value()};
    call();
    return Delta{rows->sum() - before.rows, folded->value() - before.folded,
                 wal_bytes->value() - before.bytes};
  };
  std::vector<Delta> cycle;
  for (int round = 0; round < 5; ++round) {
    std::vector<AcceptedTask> tasks;
    std::vector<TagSubmission> subs;
    std::vector<std::pair<TaskHandle, bool>> decisions;
    cycle = {measure([&] {
               tasks = s.AcceptTasks(0, p, 8).value();
               for (const AcceptedTask& t : tasks) {
                 subs.push_back(
                     {0, t.handle, {"t" + std::to_string(t.resource), "all"}});
                 decisions.emplace_back(t.handle, true);
               }
             }),
             measure([&] {
               for (const Status& st : s.SubmitTagsBatch(subs)) {
                 EXPECT_TRUE(st.ok()) << st.ToString();
               }
             }),
             measure([&] {
               for (const Status& st : s.DecideBatch(0, decisions)) {
                 EXPECT_TRUE(st.ok()) << st.ToString();
               }
             })};
    ASSERT_EQ(tasks.size(), 8u);
  }
  // accept: 8 task inserts, the project row, the sys core row.
  EXPECT_EQ(cycle[0].rows, 10u);
  // submit: 8 task updates, the tagger row.
  EXPECT_EQ(cycle[1].rows, 9u);
  // decide: 8 task deletes, 8 posts, the project row, a feed point, the
  // inbox rows, the tagger, the provider and the ledger totals.
  EXPECT_EQ(cycle[2].rows, 24u);
  for (const Delta& d : cycle) EXPECT_EQ(d.folded, 0u);
  RecordProperty("cycle_wal_bytes",
                 std::to_string(cycle[0].bytes + cycle[1].bytes +
                                cycle[2].bytes));
}

// Resources uploaded to a running project: stopping one, accepting tasks
// (which persists the engine) and restarting must stay inside the engine's
// per-resource state, and the live engine must allocate exactly like the
// one recovered from the WAL. Two identical durable systems run the same
// script; one is closed and reopened before the final draws.
class CorpusGrowthRestartTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("itag_growth." + std::to_string(::getpid()) + "." +
              std::to_string(static_cast<int>(GetParam()))))
                .string();
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  ITagSystemOptions Opts(const std::string& name) const {
    ITagSystemOptions opts;
    opts.db.directory = base_ + "/" + name;
    return opts;
  }

  /// Start with 2 resources, upload 6 more, stop the first uploaded one,
  /// then run one accept/submit/approve cycle. Returns the project.
  ProjectId RunPrefix(ITagSystem& sys, UserTaggerId* tagger) {
    ProviderId provider = sys.RegisterProvider("grow").value();
    *tagger = sys.RegisterTagger("tagger").value();
    ProjectSpec spec = AudienceSpec("grown", 200);
    spec.strategy = GetParam();
    ProjectId p = sys.CreateProject(provider, spec).value();
    std::vector<tagging::ResourceId> ids;
    std::vector<ResourceUpload> first = {{ResourceKind::kWebUrl, "u0", "", {}},
                                         {ResourceKind::kWebUrl, "u1", "", {}}};
    sys.UploadResourceBatch(p, first, &ids);
    EXPECT_TRUE(sys.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    std::vector<ResourceUpload> later;
    for (int i = 2; i < 8; ++i) {
      later.push_back({ResourceKind::kWebUrl, "u" + std::to_string(i), "",
                       {"seed-" + std::to_string(i)}});
    }
    for (const Status& st : sys.UploadResourceBatch(p, later, &ids)) {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(
        sys.ControlBatch(p, {{ControlAction::kStopResource, ids[0]}})[0].ok());
    Result<std::vector<AcceptedTask>> tasks = sys.AcceptTasks(*tagger, p, 8);
    EXPECT_TRUE(tasks.ok()) << tasks.status().ToString();
    std::vector<TagSubmission> subs;
    std::vector<std::pair<TaskHandle, bool>> decisions;
    for (const AcceptedTask& t : tasks.value()) {
      EXPECT_NE(t.resource, ids[0]);
      subs.push_back(
          {*tagger, t.handle, {"tag-" + std::to_string(t.resource)}});
      decisions.emplace_back(t.handle, true);
    }
    sys.SubmitTagsBatch(subs);
    sys.DecideBatch(provider, decisions);
    return p;
  }

  std::vector<tagging::ResourceId> Draw(ITagSystem& sys, UserTaggerId tagger,
                                        ProjectId p) {
    Result<std::vector<AcceptedTask>> tasks = sys.AcceptTasks(tagger, p, 16);
    EXPECT_TRUE(tasks.ok()) << tasks.status().ToString();
    std::vector<tagging::ResourceId> out;
    for (const AcceptedTask& t : tasks.value()) out.push_back(t.resource);
    return out;
  }

  std::string base_;
};

TEST_P(CorpusGrowthRestartTest, LiveEngineAllocatesLikeRecoveredOne) {
  UserTaggerId tagger = 0;
  ITagSystem live(Opts("live"));
  ASSERT_TRUE(live.Init().ok());
  ProjectId p = RunPrefix(live, &tagger);
  {
    ITagSystem before(Opts("restarted"));
    ASSERT_TRUE(before.Init().ok());
    ASSERT_EQ(RunPrefix(before, &tagger), p);
  }
  ITagSystem restarted(Opts("restarted"));
  ASSERT_TRUE(restarted.Init().ok());

  Result<QualityManager::ResourceDetail> stopped =
      restarted.GetResourceDetail(p, 2);
  ASSERT_TRUE(stopped.ok());
  EXPECT_TRUE(stopped.value().stopped);
  std::vector<tagging::ResourceId> a = Draw(live, tagger, p);
  std::vector<tagging::ResourceId> b = Draw(restarted, tagger, p);
  for (tagging::ResourceId r : a) {
    EXPECT_LT(r, 8u);
    EXPECT_NE(r, 2u);
  }
  // RR's cursor is not persisted: a recovered RR restarts at resource 0.
  if (GetParam() != StrategyKind::kRoundRobin) {
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CorpusGrowthRestartTest,
    ::testing::Values(StrategyKind::kFreeChoice,
                      StrategyKind::kFewestPostsFirst,
                      StrategyKind::kMostUnstableFirst,
                      StrategyKind::kHybridFpMu, StrategyKind::kRandom,
                      StrategyKind::kRoundRobin,
                      StrategyKind::kEstimatedGain),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = strategy::StrategyKindName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace itag::core
