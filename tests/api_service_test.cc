// The batch-first service surface: typed request/response routing, per-item
// partial-failure semantics, batched moderation, the NotFound contract on
// unknown task handles, and the per-action status table of BatchControl.

#include "api/service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace itag::api {
namespace {

namespace fs = std::filesystem;

using core::AcceptedTask;
using core::PendingSubmission;
using core::ProjectId;
using core::ProviderId;
using core::UserTaggerId;

/// One shard: the ids and RNG streams of a single iTag system.
core::ShardedSystemOptions OneShard() {
  core::ShardedSystemOptions opts;
  opts.num_shards = 1;
  return opts;
}

class ApiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(service_.Init().ok());
    provider_ = service_.RegisterProvider({"prov"}).provider;
    tagger_ = service_.RegisterTagger({"tagger"}).tagger;
    project_ = NewProject();
    ASSERT_NE(project_, 0u);
  }

  /// Creates an audience project of `provider_` with a budget of 50.
  ProjectId NewProject() {
    CreateProjectRequest create;
    create.provider = provider_;
    create.spec.name = "proj";
    create.spec.budget = 50;
    create.spec.platform = core::PlatformChoice::kAudience;
    CreateProjectResponse r = service_.CreateProject(create);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.project;
  }

  /// Uploads `n` bare resources and returns their ids.
  std::vector<tagging::ResourceId> Upload(size_t n) {
    return UploadTo(project_, n);
  }
  std::vector<tagging::ResourceId> UploadTo(ProjectId project, size_t n) {
    BatchUploadResourcesRequest req;
    req.project = project;
    for (size_t i = 0; i < n; ++i) {
      UploadResourceItem item;
      item.uri = "res-" + std::to_string(i);
      req.items.push_back(std::move(item));
    }
    BatchUploadResourcesResponse resp = service_.BatchUploadResources(req);
    EXPECT_TRUE(resp.outcome.all_ok());
    return resp.resources;
  }

  void Start() {
    BatchControlResponse r =
        service_.BatchControl({project_, {{ControlAction::kStart}}});
    ASSERT_TRUE(r.outcome.all_ok());
  }

  /// Sends `item` as a one-item BatchControl and returns its status.
  Status ControlOne(ProjectId project, const ControlItem& item) {
    BatchControlResponse r = service_.BatchControl({project, {item}});
    EXPECT_EQ(r.outcome.statuses.size(), 1u);
    return r.outcome.statuses.empty() ? Status::Internal("no status")
                                      : r.outcome.statuses[0];
  }

  Service service_{OneShard()};
  ProviderId provider_ = 0;
  UserTaggerId tagger_ = 0;
  ProjectId project_ = 0;
};

TEST_F(ApiServiceTest, RegisterValidation) {
  EXPECT_TRUE(
      service_.RegisterProvider({""}).status.IsInvalidArgument());
  EXPECT_TRUE(service_.RegisterTagger({""}).status.IsInvalidArgument());
  EXPECT_TRUE(service_.CreateProject({provider_, {}})
                  .status.IsInvalidArgument());  // empty project name
}

TEST_F(ApiServiceTest, BatchUploadIsolatesBadItems) {
  BatchUploadResourcesRequest req;
  req.project = project_;
  UploadResourceItem good1;
  good1.uri = "a.jpg";
  good1.initial_tags = {"sea", "sand"};
  UploadResourceItem bad;  // empty uri
  UploadResourceItem good2;
  good2.uri = "b.jpg";
  req.items = {good1, bad, good2};
  BatchUploadResourcesResponse resp = service_.BatchUploadResources(req);
  ASSERT_EQ(resp.outcome.statuses.size(), 3u);
  EXPECT_TRUE(resp.outcome.statuses[0].ok());
  EXPECT_TRUE(resp.outcome.statuses[1].IsInvalidArgument());
  EXPECT_TRUE(resp.outcome.statuses[2].ok());
  EXPECT_EQ(resp.outcome.ok_count, 2u);
  EXPECT_FALSE(resp.outcome.all_ok());
  EXPECT_NE(resp.resources[0], tagging::kInvalidResource);
  EXPECT_EQ(resp.resources[1], tagging::kInvalidResource);
  EXPECT_NE(resp.resources[2], tagging::kInvalidResource);
  // The imported historical tags landed on the first resource.
  ProjectQueryRequest query;
  query.project = project_;
  query.detail_resources = {resp.resources[0]};
  ProjectQueryResponse detail = service_.ProjectQuery(query);
  ASSERT_TRUE(detail.detail_outcome.all_ok());
  EXPECT_EQ(detail.details[0].posts, 1u);
}

TEST_F(ApiServiceTest, UploadToUnknownProjectFailsPerItem) {
  BatchUploadResourcesRequest req;
  req.project = 9999;
  UploadResourceItem item;
  item.uri = "x.jpg";
  req.items = {item};
  BatchUploadResourcesResponse resp = service_.BatchUploadResources(req);
  ASSERT_EQ(resp.outcome.statuses.size(), 1u);
  EXPECT_FALSE(resp.outcome.statuses[0].ok());
}

TEST_F(ApiServiceTest, BatchControlRunsVerbsInOrder) {
  std::vector<tagging::ResourceId> resources = Upload(4);
  BatchControlRequest req;
  req.project = project_;
  ControlItem start;
  start.action = ControlAction::kStart;
  ControlItem promote;
  promote.action = ControlAction::kPromoteResource;
  promote.resource = resources[2];
  ControlItem stop_res;
  stop_res.action = ControlAction::kStopResource;
  stop_res.resource = resources[0];
  ControlItem bad_budget;  // zero tasks: rejected at the service layer
  bad_budget.action = ControlAction::kAddBudget;
  ControlItem topup;
  topup.action = ControlAction::kAddBudget;
  topup.budget_tasks = 10;
  req.items = {start, promote, stop_res, bad_budget, topup};
  BatchControlResponse resp = service_.BatchControl(req);
  ASSERT_EQ(resp.outcome.statuses.size(), 5u);
  EXPECT_TRUE(resp.outcome.statuses[0].ok());
  EXPECT_TRUE(resp.outcome.statuses[1].ok());
  EXPECT_TRUE(resp.outcome.statuses[2].ok());
  EXPECT_TRUE(resp.outcome.statuses[3].IsInvalidArgument());
  EXPECT_TRUE(resp.outcome.statuses[4].ok());
  ProjectQueryResponse info = service_.ProjectQuery({project_, false, {}});
  EXPECT_EQ(info.info.budget_remaining, 60u);
  // The promoted resource is the next pick.
  BatchAcceptTasksResponse accepted =
      service_.BatchAcceptTasks({tagger_, project_, 1});
  ASSERT_TRUE(accepted.status.ok());
  EXPECT_EQ(accepted.tasks[0].resource, resources[2]);
}

/// One letter per status code in the matrix below.
char StatusLetter(const Status& s) {
  if (s.ok()) return '.';
  if (s.IsFailedPrecondition()) return 'F';
  if (s.IsNotFound()) return 'N';
  if (s.IsInvalidArgument()) return 'I';
  return '?';
}

// The per-action status table documented on BatchControlRequest: every
// verb against a fresh project in every lifecycle state, resource 0 as the
// target of the per-resource verbs.
TEST_F(ApiServiceTest, BatchControlStatusMatrix) {
  const char* const kColumns[] = {"never issued", "Draft without resources",
                                  "Draft",        "Running",
                                  "Paused",       "Stopped"};
  // A project in column `col`'s state; 999 was never issued.
  auto project_in = [&](size_t col) -> ProjectId {
    if (col == 0) return 999;
    ProjectId p = NewProject();
    if (col == 1) return p;
    UploadTo(p, 2);
    std::vector<ControlItem> path;
    if (col >= 3) path.push_back({ControlAction::kStart});
    if (col == 4) path.push_back({ControlAction::kPause});
    if (col == 5) path.push_back({ControlAction::kStop});
    EXPECT_TRUE(service_.BatchControl({p, path}).outcome.all_ok());
    return p;
  };
  // '.' OK, 'F' FailedPrecondition, 'N' NotFound, one letter per column.
  const std::vector<std::pair<ControlAction, std::string>> rows = {
      {ControlAction::kStart, "NF.F.F"},
      {ControlAction::kPause, "NFF.FF"},
      {ControlAction::kStop, "N....."},
      {ControlAction::kPromoteResource, "NFF..."},
      {ControlAction::kStopResource, "NFF..."},
      {ControlAction::kResumeResource, "NFF..."},
      {ControlAction::kAddBudget, "N....."},
      {ControlAction::kSwitchStrategy, "N....."},
  };
  for (const auto& [action, expected] : rows) {
    for (size_t col = 0; col < expected.size(); ++col) {
      ControlItem item{action, 0, 5,
                       strategy::StrategyKind::kMostUnstableFirst};
      Status s = ControlOne(project_in(col), item);
      EXPECT_EQ(StatusLetter(s), expected[col])
          << "action " << static_cast<int>(action) << " on "
          << kColumns[col] << ": " << s.ToString();
    }
  }

  ProjectId running = project_in(3);
  for (ControlAction action :
       {ControlAction::kPromoteResource, ControlAction::kStopResource,
        ControlAction::kResumeResource}) {
    EXPECT_TRUE(ControlOne(running, {action, 99}).IsNotFound())
        << "unknown resource, action " << static_cast<int>(action);
  }
  ASSERT_TRUE(ControlOne(running, {ControlAction::kStopResource, 0}).ok());
  EXPECT_TRUE(ControlOne(running, {ControlAction::kPromoteResource, 0})
                  .IsFailedPrecondition());
  EXPECT_TRUE(ControlOne(running, {ControlAction::kAddBudget, 0, 0})
                  .IsInvalidArgument());
}

TEST_F(ApiServiceTest, BatchControlOnNeverIssuedProjectIsNotFound) {
  BatchControlRequest req;
  req.project = 999;
  req.items = {{ControlAction::kStart},
               {ControlAction::kPause},
               {ControlAction::kStop},
               {ControlAction::kPromoteResource, 0},
               {ControlAction::kStopResource, 0},
               {ControlAction::kResumeResource, 0},
               {ControlAction::kAddBudget, 0, 5},
               {ControlAction::kSwitchStrategy}};
  BatchControlResponse resp = service_.BatchControl(req);
  ASSERT_EQ(resp.outcome.statuses.size(), req.items.size());
  for (size_t i = 0; i < req.items.size(); ++i) {
    EXPECT_TRUE(resp.outcome.statuses[i].IsNotFound())
        << "item " << i << ": " << resp.outcome.statuses[i].ToString();
  }
}

TEST_F(ApiServiceTest, AcceptBatchRespectsBudget) {
  Upload(3);
  Start();
  BatchAcceptTasksResponse r0 =
      service_.BatchAcceptTasks({tagger_, project_, 0});
  EXPECT_TRUE(r0.status.IsInvalidArgument());
  BatchAcceptTasksResponse all =
      service_.BatchAcceptTasks({tagger_, project_, 200});
  ASSERT_TRUE(all.status.ok());
  EXPECT_EQ(all.tasks.size(), 50u);  // truncated at the budget
  BatchAcceptTasksResponse empty =
      service_.BatchAcceptTasks({tagger_, project_, 1});
  EXPECT_TRUE(empty.status.IsResourceExhausted());
}

TEST_F(ApiServiceTest, AcceptCountAboveTheLimitIsRejectedBeforeAnyDebit) {
  Upload(3);
  Start();
  ControlItem topup;
  topup.action = ControlAction::kAddBudget;
  topup.budget_tasks = 2 * kMaxAcceptTasks;
  ASSERT_TRUE(service_.BatchControl({project_, {topup}}).outcome.all_ok());
  // Enough admission tokens for one at-limit accept and a few queries, but
  // not for an over-limit accept on top: a charged rejection would starve
  // the at-limit accept below.
  service_.SetAdmissionLimit(kMaxAcceptTasks + kMaxAcceptTasks / 2);
  const uint32_t budget =
      service_.ProjectQuery({project_, false, {}}).info.budget_remaining;

  BatchAcceptTasksResponse over =
      service_.BatchAcceptTasks({tagger_, project_, kMaxAcceptTasks + 1});
  EXPECT_TRUE(over.status.IsInvalidArgument()) << over.status.ToString();
  EXPECT_TRUE(over.tasks.empty());
  EXPECT_EQ(service_.ProjectQuery({project_, false, {}}).info.budget_remaining,
            budget);

  BatchAcceptTasksResponse at =
      service_.BatchAcceptTasks({tagger_, project_, kMaxAcceptTasks});
  ASSERT_TRUE(at.status.ok()) << at.status.ToString();
  EXPECT_EQ(at.tasks.size(), kMaxAcceptTasks);
  EXPECT_EQ(service_.ProjectQuery({project_, false, {}}).info.budget_remaining,
            budget - kMaxAcceptTasks);
}

TEST_F(ApiServiceTest, SubmitAndDecideBatchesWithPartialFailures) {
  Upload(3);
  Start();
  BatchAcceptTasksResponse accepted =
      service_.BatchAcceptTasks({tagger_, project_, 3});
  ASSERT_TRUE(accepted.status.ok());
  ASSERT_EQ(accepted.tasks.size(), 3u);

  BatchSubmitTagsRequest submit;
  submit.items.push_back({tagger_, accepted.tasks[0].handle, {"alpha"}});
  submit.items.push_back({tagger_, 0, {"beta"}});           // invalid handle
  submit.items.push_back({tagger_, 424242, {"gamma"}});     // unknown handle
  submit.items.push_back({tagger_, accepted.tasks[1].handle, {}});  // no tags
  submit.items.push_back({tagger_, accepted.tasks[2].handle, {"delta"}});
  BatchSubmitTagsResponse submitted = service_.BatchSubmitTags(submit);
  ASSERT_EQ(submitted.outcome.statuses.size(), 5u);
  EXPECT_TRUE(submitted.outcome.statuses[0].ok());
  EXPECT_TRUE(submitted.outcome.statuses[1].IsInvalidArgument());
  EXPECT_TRUE(submitted.outcome.statuses[2].IsNotFound());
  EXPECT_TRUE(submitted.outcome.statuses[3].IsInvalidArgument());
  EXPECT_TRUE(submitted.outcome.statuses[4].ok());
  EXPECT_EQ(submitted.outcome.ok_count, 2u);

  // Re-submitting a consumed handle is NotFound, same as a never-issued one.
  BatchSubmitTagsRequest again;
  again.items.push_back({tagger_, accepted.tasks[0].handle, {"echo"}});
  EXPECT_TRUE(
      service_.BatchSubmitTags(again).outcome.statuses[0].IsNotFound());

  BatchDecideRequest decide;
  decide.provider = provider_;
  decide.items.push_back({accepted.tasks[0].handle, true});
  decide.items.push_back({accepted.tasks[2].handle, false});
  decide.items.push_back({31337, true});  // unknown handle
  decide.items.push_back({0, true});      // invalid handle
  BatchDecideResponse decided = service_.BatchDecide(decide);
  ASSERT_EQ(decided.outcome.statuses.size(), 4u);
  EXPECT_TRUE(decided.outcome.statuses[0].ok());
  EXPECT_TRUE(decided.outcome.statuses[1].ok());
  EXPECT_TRUE(decided.outcome.statuses[2].IsNotFound());
  EXPECT_TRUE(decided.outcome.statuses[3].IsInvalidArgument());

  // One approval landed (the rejection was refunded into the budget).
  ProjectQueryResponse info = service_.ProjectQuery({project_, false, {}});
  EXPECT_EQ(info.info.tasks_completed, 1u);
  EXPECT_EQ(info.info.budget_remaining, 48u);  // 50 - 3 accepted + 1 refund
}

TEST_F(ApiServiceTest, DecideByWrongProviderIsRejectedPerItem) {
  Upload(2);
  Start();
  ProviderId other = service_.RegisterProvider({"other"}).provider;
  BatchAcceptTasksResponse accepted =
      service_.BatchAcceptTasks({tagger_, project_, 1});
  ASSERT_TRUE(accepted.status.ok());
  BatchSubmitTagsRequest submit;
  submit.items.push_back({tagger_, accepted.tasks[0].handle, {"tag"}});
  ASSERT_TRUE(service_.BatchSubmitTags(submit).outcome.all_ok());

  BatchDecideRequest decide;
  decide.provider = other;
  decide.items.push_back({accepted.tasks[0].handle, true});
  EXPECT_TRUE(
      service_.BatchDecide(decide).outcome.statuses[0].IsFailedPrecondition());
  // The submission is still pending for the real provider.
  BatchDecideRequest rightful;
  rightful.provider = provider_;
  rightful.items.push_back({accepted.tasks[0].handle, true});
  EXPECT_TRUE(service_.BatchDecide(rightful).outcome.all_ok());
}

TEST_F(ApiServiceTest, DecideOnAcceptedButUnsubmittedHandleIsNotFound) {
  Upload(2);
  Start();
  BatchAcceptTasksResponse accepted =
      service_.BatchAcceptTasks({tagger_, project_, 1});
  ASSERT_TRUE(accepted.status.ok());
  // The tagger has not submitted yet: there is nothing to decide on.
  BatchDecideRequest decide;
  decide.provider = provider_;
  decide.items.push_back({accepted.tasks[0].handle, true});
  EXPECT_TRUE(service_.BatchDecide(decide).outcome.statuses[0].IsNotFound());
}

TEST_F(ApiServiceTest, BatchedModerationEmitsOneFeedPointPerProject) {
  Upload(4);
  Start();
  BatchAcceptTasksResponse accepted =
      service_.BatchAcceptTasks({tagger_, project_, 8});
  ASSERT_TRUE(accepted.status.ok());
  BatchSubmitTagsRequest submit;
  for (const AcceptedTask& t : accepted.tasks) {
    submit.items.push_back({tagger_, t.handle, {"t1", "t2"}});
  }
  ASSERT_TRUE(service_.BatchSubmitTags(submit).outcome.all_ok());
  size_t feed_before =
      service_.ProjectQuery({project_, true, {}}).feed.size();
  BatchDecideRequest decide;
  decide.provider = provider_;
  for (const AcceptedTask& t : accepted.tasks) {
    decide.items.push_back({t.handle, true});
  }
  ASSERT_TRUE(service_.BatchDecide(decide).outcome.all_ok());
  ProjectQueryResponse after = service_.ProjectQuery({project_, true, {}});
  // All 8 posts landed but the whole batch produced exactly one feed point.
  EXPECT_EQ(after.info.tasks_completed, 8u);
  EXPECT_EQ(after.feed.size(), feed_before + 1);
}

TEST_F(ApiServiceTest, StepDrivesPlatformProjects) {
  // A second, MTurk-backed project pumped by Step's batched tick loop.
  CreateProjectRequest create;
  create.provider = provider_;
  create.spec.name = "mturk-proj";
  create.spec.budget = 30;
  create.spec.platform = core::PlatformChoice::kMTurk;
  ProjectId mturk_project = service_.CreateProject(create).project;
  BatchUploadResourcesRequest upload;
  upload.project = mturk_project;
  for (int i = 0; i < 3; ++i) {
    UploadResourceItem item;
    item.uri = "m-" + std::to_string(i);
    upload.items.push_back(std::move(item));
  }
  ASSERT_TRUE(service_.BatchUploadResources(upload).outcome.all_ok());
  ASSERT_TRUE(service_
                  .BatchControl({mturk_project, {{ControlAction::kStart}}})
                  .outcome.all_ok());
  EXPECT_TRUE(service_.Step({-1}).status.IsInvalidArgument());
  StepResponse stepped = service_.Step({2000});
  ASSERT_TRUE(stepped.status.ok());
  EXPECT_EQ(stepped.now, 2000);
  ProjectQueryResponse info =
      service_.ProjectQuery({mturk_project, true, {}});
  EXPECT_EQ(info.info.tasks_completed, 30u);  // budget fully worked through
  EXPECT_GE(info.feed.size(), 2u);
}

TEST_F(ApiServiceTest, DispatchRoutesVariantRequests) {
  AnyResponse r1 = service_.Dispatch(RegisterTaggerRequest{"dispatched"});
  ASSERT_TRUE(std::holds_alternative<RegisterTaggerResponse>(r1));
  EXPECT_TRUE(std::get<RegisterTaggerResponse>(r1).status.ok());

  AnyResponse r2 = service_.Dispatch(StepRequest{5});
  ASSERT_TRUE(std::holds_alternative<StepResponse>(r2));
  EXPECT_EQ(std::get<StepResponse>(r2).now, 5);

  ProjectQueryRequest query;
  query.project = 31337;
  AnyResponse r3 = service_.Dispatch(query);
  ASSERT_TRUE(std::holds_alternative<ProjectQueryResponse>(r3));
  EXPECT_TRUE(std::get<ProjectQueryResponse>(r3).status.IsNotFound());
}

TEST_F(ApiServiceTest, NonOwningServiceWrapsExistingSystem) {
  core::ShardedSystem system(OneShard());
  ASSERT_TRUE(system.Init().ok());
  Service wrapper(&system);
  EXPECT_TRUE(wrapper.Init().ok());  // no-op on a wrapped system
  RegisterProviderResponse r = wrapper.RegisterProvider({"direct"});
  ASSERT_TRUE(r.status.ok());
  // Visible through the facade too: same underlying system.
  EXPECT_TRUE(system.GetProvider(r.provider).ok());
}

TEST_F(ApiServiceTest, FacadeAddBudgetSaturatesOnDraftProjects) {
  // Satellite bugfix: topping up near UINT32_MAX clamps instead of wrapping.
  core::ITagSystem& facade = service_.sharded()->shard_system(0);
  const ControlItem topup{ControlAction::kAddBudget, 0, 0xFFFFFFF0u};
  ASSERT_TRUE(facade.ControlBatch(project_, {topup})[0].ok());
  ASSERT_TRUE(facade.ControlBatch(project_, {topup})[0].ok());
  ProjectQueryResponse info = service_.ProjectQuery({project_, false, {}});
  EXPECT_EQ(info.info.budget_remaining, 0xFFFFFFFFu);
}

TEST_F(ApiServiceTest, FacadeWritesReachProjectQuery) {
  // Writes that go straight into a shard's facade, below the sharded core,
  // still publish the project's view that ProjectQuery reads.
  Upload(3);
  core::ITagSystem& facade = service_.sharded()->shard_system(0);
  ASSERT_TRUE(facade.ControlBatch(project_, {{ControlAction::kStart}})[0].ok());
  ProjectQueryResponse q = service_.ProjectQuery({project_, true, {}});
  EXPECT_EQ(q.info.state, core::ProjectState::kRunning);
  EXPECT_EQ(q.feed.size(), 1u);

  Result<std::vector<AcceptedTask>> tasks =
      facade.AcceptTasks(tagger_, project_, 2);
  ASSERT_TRUE(tasks.ok());
  std::vector<core::TagSubmission> subs;
  std::vector<std::pair<core::TaskHandle, bool>> decisions;
  for (const AcceptedTask& t : tasks.value()) {
    subs.push_back({tagger_, t.handle, {"direct"}});
    decisions.emplace_back(t.handle, true);
  }
  facade.SubmitTagsBatch(subs);
  facade.DecideBatch(provider_, decisions);
  ASSERT_TRUE(facade.ControlBatch(project_, {{ControlAction::kPause}})[0].ok());

  q = service_.ProjectQuery({project_, true, {}});
  ASSERT_TRUE(q.status.ok());
  core::ProjectInfo direct = facade.GetProjectInfo(project_).value();
  EXPECT_EQ(q.info.state, core::ProjectState::kPaused);
  EXPECT_EQ(q.info.tasks_completed, 2u);
  EXPECT_EQ(q.info.budget_remaining, direct.budget_remaining);
  EXPECT_EQ(q.info.quality, direct.quality);
  EXPECT_EQ(q.info.projected_gain, direct.projected_gain);
  ASSERT_EQ(q.feed.size(), facade.QualityFeed(project_).size());
  EXPECT_EQ(q.feed.back().tasks, 2u);
}

TEST_F(ApiServiceTest, DetailCountAboveTheLimitIsRejectedBeforeAdmission) {
  std::vector<tagging::ResourceId> ids = Upload(2);
  Start();
  // One admission token: a charged rejection would starve the at-limit
  // query below.
  service_.SetAdmissionLimit(1);
  obs::Counter* ops =
      obs::MetricsRegistry::Default().GetCounter("core.shard.0.ops");
  const uint64_t ops0 = ops->value();

  ProjectQueryRequest over{project_, true, {}};
  over.detail_resources.assign(kMaxDetailResources + 1, ids[0]);
  ProjectQueryResponse rejected = service_.ProjectQuery(over);
  EXPECT_TRUE(rejected.status.IsInvalidArgument())
      << rejected.status.ToString();
  EXPECT_TRUE(rejected.feed.empty());
  EXPECT_TRUE(rejected.details.empty());
  EXPECT_TRUE(rejected.detail_outcome.statuses.empty());
  EXPECT_EQ(ops->value(), ops0);  // nothing routed, no detail computed

  ProjectQueryRequest at{project_, true, {}};
  at.detail_resources.assign(kMaxDetailResources, ids[1]);
  ProjectQueryResponse served = service_.ProjectQuery(at);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.details.size(), kMaxDetailResources);
  EXPECT_EQ(served.detail_outcome.ok_count, kMaxDetailResources);
  // One routed op for the view read, one per detail.
  EXPECT_EQ(ops->value(), ops0 + 1 + kMaxDetailResources);
}

/// A durable one-shard Service over a scratch directory of its own.
class ApiServiceDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test name + pid: ctest -j runs several instances of this binary.
    dir_ = (fs::temp_directory_path() /
            ("itag_api_durable_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::ShardedSystemOptions Opts() const {
    core::ShardedSystemOptions opts = OneShard();
    opts.shard.db.directory = dir_;
    return opts;
  }
  std::string WalPath() const { return dir_ + "/shard-0/wal.log"; }
  size_t WalFrames() const {
    std::vector<storage::WalRecord> records;
    EXPECT_TRUE(storage::ReadWal(WalPath(), &records).ok());
    return records.size();
  }

  /// A Running audience project with two resources.
  static ProjectId RunningProject(Service* service) {
    ProviderId provider = service->RegisterProvider({"prov"}).provider;
    CreateProjectRequest create;
    create.provider = provider;
    create.spec.name = "durable";
    create.spec.budget = 50;
    create.spec.platform = core::PlatformChoice::kAudience;
    ProjectId p = service->CreateProject(create).project;
    BatchUploadResourcesRequest upload;
    upload.project = p;
    upload.items = {{tagging::ResourceKind::kWebUrl, "r0", "", {"seed"}},
                    {tagging::ResourceKind::kWebUrl, "r1", "", {}}};
    EXPECT_TRUE(service->BatchUploadResources(upload).outcome.all_ok());
    EXPECT_TRUE(
        service->BatchControl({p, {{ControlAction::kStart}}}).outcome.all_ok());
    return p;
  }

  /// Pause, a top-up of 7, a switch to MU and a stop of resource 0.
  static BatchControlRequest ConsoleSession(ProjectId p) {
    return {p,
            {{ControlAction::kPause},
             {ControlAction::kAddBudget, 0, 7},
             {ControlAction::kSwitchStrategy, 0, 0,
              strategy::StrategyKind::kMostUnstableFirst},
             {ControlAction::kStopResource, 0}}};
  }

  std::string dir_;
};

TEST_F(ApiServiceDurableTest, BatchControlRequestIsOneRouteAndOneWalFrame) {
  Service service(Opts());
  ASSERT_TRUE(service.Init().ok());
  ProjectId p = RunningProject(&service);
  obs::Counter* ops =
      obs::MetricsRegistry::Default().GetCounter("core.shard.0.ops");
  const uint64_t ops0 = ops->value();
  const size_t before = WalFrames();
  ASSERT_TRUE(service.BatchControl(ConsoleSession(p)).outcome.all_ok());
  EXPECT_EQ(WalFrames() - before, 1u);
  EXPECT_EQ(ops->value() - ops0, 1u);
}

// A crash that tears the request's frame loses all of the request: the
// recovered project reads exactly as it did before the request was sent.
TEST_F(ApiServiceDurableTest, TornBatchControlRecoversAllOrNothing) {
  ProjectQueryRequest query;
  query.include_feed = true;
  query.detail_resources = {0};
  std::string before;
  {
    Service service(Opts());
    ASSERT_TRUE(service.Init().ok());
    query.project = RunningProject(&service);
    before = net::EncodeResponsePayload(service.Dispatch(AnyRequest{query}));
    ASSERT_TRUE(
        service.BatchControl(ConsoleSession(query.project)).outcome.all_ok());
    ASSERT_NE(net::EncodeResponsePayload(service.Dispatch(AnyRequest{query})),
              before);
  }
  fs::resize_file(WalPath(), fs::file_size(WalPath()) - 1);
  Service reopened(Opts());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(net::EncodeResponsePayload(reopened.Dispatch(AnyRequest{query})),
            before);
}

}  // namespace
}  // namespace itag::api
