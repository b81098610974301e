// Direct tests of the Quality Manager (Fig. 2's central box) below the
// facade: project records, projected gains, recommendations, and the
// notification inbox.

#include "itag/quality_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "itag/itag_system.h"
#include "strategy/allocator.h"

namespace itag::core {
namespace {

using strategy::StrategyKind;
using tagging::ResourceId;
using tagging::ResourceKind;

class QualityManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Open(storage::DatabaseOptions{}).ok());
    users_ = std::make_unique<UserManager>(&db_);
    ASSERT_TRUE(users_->Attach().ok());
    resources_ = std::make_unique<ResourceManager>(&db_);
    ASSERT_TRUE(resources_->Attach().ok());
    tags_ = std::make_unique<TagManager>(&db_);
    ASSERT_TRUE(tags_->Attach().ok());
    qm_ = std::make_unique<QualityManager>(resources_.get(), tags_.get(),
                                           users_.get(), &clock_, &db_);
    ASSERT_TRUE(qm_->Attach().ok());
    provider_ = users_->RegisterProvider("p").value();
  }

  ProjectId NewProject(uint32_t budget = 50, size_t n_resources = 4) {
    ProjectSpec spec;
    spec.name = "t";
    spec.budget = budget;
    ProjectId p = qm_->CreateProject(provider_, spec).value();
    for (size_t i = 0; i < n_resources; ++i) {
      EXPECT_TRUE(resources_
                      ->UploadResource(p, ResourceKind::kWebUrl,
                                       "u" + std::to_string(i), "")
                      .ok());
    }
    return p;
  }

  tagging::Post MakePost(ProjectId p, const std::string& tag) {
    tagging::Post post;
    post.tags = {resources_->GetCorpus(p)->dict().Intern(tag)};
    return post;
  }

  storage::Database db_;
  SimClock clock_;
  std::unique_ptr<UserManager> users_;
  std::unique_ptr<ResourceManager> resources_;
  std::unique_ptr<TagManager> tags_;
  std::unique_ptr<QualityManager> qm_;
  ProviderId provider_;
};

TEST_F(QualityManagerTest, CreateValidatesProviderAndBudget) {
  ProjectSpec spec;
  spec.name = "x";
  spec.budget = 10;
  EXPECT_TRUE(qm_->CreateProject(12345, spec).status().IsNotFound());
  spec.budget = 0;
  EXPECT_TRUE(
      qm_->CreateProject(provider_, spec).status().IsInvalidArgument());
}

TEST_F(QualityManagerTest, InfoReflectsLifecycle) {
  ProjectId p = NewProject(30, 5);
  ProjectInfo info = qm_->GetInfo(p).value();
  EXPECT_EQ(info.state, ProjectState::kDraft);
  EXPECT_EQ(info.budget_remaining, 30u);
  EXPECT_EQ(info.num_resources, 5u);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  EXPECT_EQ(qm_->GetInfo(p).value().state, ProjectState::kRunning);
}

TEST_F(QualityManagerTest, ChooseCompleteLoopUpdatesEverything) {
  ProjectId p = NewProject(10, 2);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  for (int i = 0; i < 6; ++i) {
    auto r = qm_->ChooseTaskBatch(p, 1);
    ASSERT_TRUE(r.ok());
    clock_.Advance(5);
    ASSERT_TRUE(
        qm_->CompletePostBatch(p, {{r.value()[0], MakePost(p, "tag-a")}})[0]
            .ok());
  }
  ProjectInfo info = qm_->GetInfo(p).value();
  EXPECT_EQ(info.tasks_completed, 6u);
  EXPECT_EQ(info.budget_remaining, 4u);
  // FP default levels the two resources 3/3.
  EXPECT_EQ(resources_->GetCorpus(p)->PostCount(0), 3u);
  EXPECT_EQ(resources_->GetCorpus(p)->PostCount(1), 3u);
  // Feed timestamps come from the injected clock.
  const auto& feed = qm_->QualityFeed(p);
  ASSERT_GE(feed.size(), 2u);
  EXPECT_GT(feed.back().time, 0);
}

TEST_F(QualityManagerTest, ChooseFailsWhenNotRunning) {
  ProjectId p = NewProject();
  EXPECT_TRUE(qm_->ChooseTaskBatch(p, 1).status().IsFailedPrecondition());
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kPause}).ok());
  EXPECT_TRUE(qm_->ChooseTaskBatch(p, 1).status().IsFailedPrecondition());
}

TEST_F(QualityManagerTest, BudgetExhaustionNotifiesOnce) {
  ProjectId p = NewProject(1, 1);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  ASSERT_TRUE(qm_->ChooseTaskBatch(p, 1).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(qm_->ChooseTaskBatch(p, 1).status().IsResourceExhausted());
  }
  size_t exhausted = 0;
  for (const auto& n : qm_->Notifications(provider_).Latest(100)) {
    exhausted += n.kind == NotificationKind::kBudgetExhausted;
  }
  EXPECT_EQ(exhausted, 1u);
  // Top-up re-arms the alert.
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kAddBudget, 0, 1}).ok());
  ASSERT_TRUE(qm_->ChooseTaskBatch(p, 1).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(qm_->ChooseTaskBatch(p, 1).status().IsResourceExhausted());
  }
  exhausted = 0;
  for (const auto& n : qm_->Notifications(provider_).Latest(100)) {
    exhausted += n.kind == NotificationKind::kBudgetExhausted;
  }
  EXPECT_EQ(exhausted, 2u);
}

TEST_F(QualityManagerTest, ProjectedGainPositiveAndShrinks) {
  ProjectId p = NewProject(100, 3);
  double before = qm_->ProjectedGain(p).value();
  EXPECT_GT(before, 0.0);
  // Feed lots of stable posts: the remaining-budget projection shrinks.
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  for (int i = 0; i < 60; ++i) {
    auto r = qm_->ChooseTaskBatch(p, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(
        qm_->CompletePostBatch(p, {{r.value()[0], MakePost(p, "same")}})[0]
            .ok());
  }
  double after = qm_->ProjectedGain(p).value();
  EXPECT_LT(after, before);
}

TEST_F(QualityManagerTest, ProjectedGainZeroWithoutBudget) {
  ProjectId p = NewProject(2, 1);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  ASSERT_TRUE(qm_->ChooseTaskBatch(p, 1).ok());
  ASSERT_TRUE(qm_->ChooseTaskBatch(p, 1).ok());
  EXPECT_EQ(qm_->ProjectedGain(p).value(), 0.0);
}

TEST_F(QualityManagerTest, RecommendStrategyFollowsCoverage) {
  ProjectId p = NewProject(10, 2);
  // Fresh project: under-posted => FP-MU.
  EXPECT_EQ(qm_->RecommendStrategy(p).value(), StrategyKind::kHybridFpMu);
  // Saturate both resources past the coverage bar => MU.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        resources_->GetCorpus(p)->AddPost(0, MakePost(p, "a")).ok());
    ASSERT_TRUE(
        resources_->GetCorpus(p)->AddPost(1, MakePost(p, "b")).ok());
  }
  EXPECT_EQ(qm_->RecommendStrategy(p).value(),
            StrategyKind::kMostUnstableFirst);
}

TEST_F(QualityManagerTest, RecommendPlatformByResourceKind) {
  EXPECT_EQ(QualityManager::RecommendPlatform(
                ResourceKind::kScientificPaper),
            PlatformChoice::kSocialNetwork);
  EXPECT_EQ(QualityManager::RecommendPlatform(ResourceKind::kWebUrl),
            PlatformChoice::kMTurk);
  EXPECT_EQ(QualityManager::RecommendPlatform(ResourceKind::kImage),
            PlatformChoice::kMTurk);
}

TEST_F(QualityManagerTest, ResourceDetailReportsStops) {
  ProjectId p = NewProject(10, 2);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStopResource, 1}).ok());
  EXPECT_TRUE(qm_->GetResourceDetail(p, 1).value().stopped);
  EXPECT_FALSE(qm_->GetResourceDetail(p, 0).value().stopped);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kResumeResource, 1}).ok());
  EXPECT_FALSE(qm_->GetResourceDetail(p, 1).value().stopped);
  EXPECT_TRUE(qm_->GetResourceDetail(p, 99).status().IsNotFound());
}

// Project rows written while the record kept its own copy of the Stop
// flags end the engine blob in that second flag vector. Decoding reads and
// drops it, so the row re-encodes 4 + n bytes shorter with the same flags.
TEST_F(QualityManagerTest, DecodesEngineBlobWithTheRecordsStopFlagCopy) {
  ProjectId p = NewProject(10, 2);
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStart}).ok());
  ASSERT_TRUE(qm_->Control(p, {ControlAction::kStopResource, 1}).ok());
  storage::Row row = qm_->EncodeProjectRow(p).value();
  const std::string blob = row[13].as_string();
  ByteWriter copy;
  copy.U8Vec({0, 1});
  const std::string older = blob + copy.Take();
  ASSERT_EQ(older.size(), blob.size() + 4 + 2);

  storage::Row legacy = row;
  legacy[13] = storage::Value::Str(older);
  ASSERT_TRUE(qm_->DropProject(p).ok());
  ASSERT_TRUE(qm_->AdoptProject(p, legacy, {}).ok());
  EXPECT_FALSE(qm_->GetResourceDetail(p, 0).value().stopped);
  EXPECT_TRUE(qm_->GetResourceDetail(p, 1).value().stopped);
  EXPECT_EQ(qm_->EncodeProjectRow(p).value()[13].as_string(), blob);

  // Bytes past the copy are still corruption.
  legacy[13] = storage::Value::Str(older + "x");
  ASSERT_TRUE(qm_->DropProject(p).ok());
  EXPECT_TRUE(qm_->AdoptProject(p, legacy, {}).IsCorruption());
}

TEST_F(QualityManagerTest, ListProjectsFiltersByProvider) {
  ProviderId other = users_->RegisterProvider("q").value();
  ProjectId mine = NewProject();
  ProjectSpec spec;
  spec.name = "other";
  spec.budget = 5;
  ProjectId theirs = qm_->CreateProject(other, spec).value();
  auto mine_list = qm_->ListProjects(provider_);
  ASSERT_EQ(mine_list.size(), 1u);
  EXPECT_EQ(mine_list[0].id, mine);
  auto all = qm_->ListProjects(static_cast<ProviderId>(-1));
  EXPECT_EQ(all.size(), 2u);
  (void)theirs;
}

// ------------------------------------------------------- projection plan

/// The projected-gain solve as it was before the warm start, kept as the
/// oracle: the closed form over θ̂ fed to a cold-start greedy,
/// O(B·(log n + |θ|)).
class OracleProjection {
 public:
  explicit OracleProjection(const tagging::Corpus& corpus) {
    quality::EmpiricalGainEstimator gain;
    for (ResourceId r = 0; r < corpus.size(); ++r) {
      thetas_.push_back(gain.EstimateTheta(corpus.stats(r)));
      k0_.push_back(corpus.PostCount(r));
    }
  }

  double Quality(uint32_t r, uint32_t extra) const {
    if (thetas_[r].empty()) {
      // No data at all: optimistic linear ramp to the first few posts.
      return extra == 0 ? 0.0 : 1.0 - 1.0 / (1.0 + extra);
    }
    return quality::ExpectedQualityClosedForm(thetas_[r], k0_[r] + extra,
                                              3.0);
  }

  ProjectionPlan Plan(uint32_t budget) const {
    const size_t n = thetas_.size();
    ProjectionPlan plan{std::vector<uint32_t>(n, 0), 0.0};
    if (n == 0 || budget == 0) return plan;
    budget = std::min<uint32_t>(budget, 5000);
    plan.tasks = strategy::GreedyAllocate(
        n, budget, [this](uint32_t r, uint32_t x) { return Quality(r, x); });
    for (ResourceId r = 0; r < n; ++r) {
      plan.gain += Quality(r, plan.tasks[r]) - Quality(r, 0);
    }
    plan.gain /= static_cast<double>(n);
    return plan;
  }

 private:
  std::vector<SparseDist> thetas_;
  std::vector<uint32_t> k0_;
};

tagging::Post PostOf(std::vector<tagging::TagId> tags) {
  tagging::Post post;
  post.tags = std::move(tags);
  return post;
}

/// Posts of 1-4 distinct tags drawn from `vocab` tags.
std::vector<tagging::Post> SmallPosts(Rng* rng, uint32_t count,
                                      uint32_t vocab) {
  std::vector<tagging::Post> posts;
  for (uint32_t p = 0; p < count; ++p) {
    std::vector<tagging::TagId> tags;
    for (uint32_t t = 1 + rng->Uniform(4); t > 0; --t) {
      tagging::TagId tag = rng->Uniform(vocab);
      if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
        tags.push_back(tag);
      }
    }
    posts.push_back(PostOf(std::move(tags)));
  }
  return posts;
}

/// n resources of every shape the projection meets: no posts (the ramp),
/// one tag only (a = 0, so every gain is 0 and ties decide), a copy of the
/// previous resource (ties broken by id), a few small posts, and in half
/// the corpora one resource with up to 10⁴ posts. `wide` adds a resource
/// whose one post has 20+ distinct tags: its clamp binds, so the solve
/// starts from zero.
tagging::Corpus RandomCorpus(Rng* rng, size_t n, bool wide) {
  tagging::Corpus corpus;
  const uint32_t vocab = 2 + rng->Uniform(60);
  const size_t heavy = rng->Uniform(2) == 0 ? rng->Uniform(n) : n;
  const size_t wide_at = wide ? rng->Uniform(n) : n;
  std::vector<tagging::Post> previous;
  for (size_t r = 0; r < n; ++r) {
    corpus.AddResource(ResourceKind::kWebUrl, "u" + std::to_string(r));
    std::vector<tagging::Post> posts;
    if (r == wide_at) {
      std::vector<tagging::TagId> tags;
      for (uint32_t t = 20 + rng->Uniform(10); t > 0; --t) {
        tags.push_back(vocab + t);
      }
      posts.push_back(PostOf(std::move(tags)));
    } else if (r == heavy) {
      posts = SmallPosts(rng, 1 + rng->Uniform(10000), vocab);
    } else {
      switch (rng->Uniform(6)) {
        case 0:
          break;
        case 1:
          posts.assign(1 + rng->Uniform(5), PostOf({rng->Uniform(vocab)}));
          break;
        case 2:
          posts = previous;
          break;
        default:
          posts = SmallPosts(rng, 1 + rng->Uniform(6), vocab);
      }
    }
    for (const tagging::Post& post : posts) {
      EXPECT_TRUE(corpus.AddPost(static_cast<ResourceId>(r), post).ok());
    }
    previous = std::move(posts);
  }
  return corpus;
}

uint64_t Sum(const std::vector<uint32_t>& x) {
  uint64_t s = 0;
  for (uint32_t v : x) s += v;
  return s;
}

TEST(ProjectionPlanTest, MatchesTheColdStartOracle) {
  // Summing θ̂'s terms once (a) or once per point (the oracle) rounds
  // differently, so two resources whose gains are equal in exact
  // arithmetic, e.g. the same counts under other tag ids, can swap order.
  // The plans may differ only by units whose oracle gains agree to within
  // a few ulps of a quality in [0, 1].
  constexpr double kRoundingTie = 1e-15;
  Rng rng(20140331);
  quality::EmpiricalGainEstimator estimator;
  int plans = 0;
  int rounding_swaps = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const size_t n = trial == 0 ? 1 : trial == 1 ? 300 : 1 + rng.Uniform(300);
    const bool wide = trial % 4 == 3;
    tagging::Corpus corpus = RandomCorpus(&rng, n, wide);
    OracleProjection oracle(corpus);
    std::vector<quality::ProjectionCurve> curves;
    for (ResourceId r = 0; r < n; ++r) {
      curves.push_back(estimator.Curve(corpus.stats(r)));
    }
    bool any_gain = false;
    for (const quality::ProjectionCurve& c : curves) {
      any_gain = any_gain || c.Gain(0) > 0.0;
    }
    for (uint32_t budget :
         {1u, static_cast<uint32_t>(n - 1), static_cast<uint32_t>(n),
          static_cast<uint32_t>(n + 1), 4999u, 5000u, 1000000u}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                   std::to_string(n) + " budget " + std::to_string(budget));
      ++plans;
      const uint32_t horizon = std::min(budget, kProjectionHorizon);
      ProjectionPlan plan = PlanProjection(curves, budget);
      ProjectionPlan want = oracle.Plan(budget);
      EXPECT_NEAR(plan.gain, want.gain, 1e-12);
      ASSERT_EQ(Sum(plan.tasks), horizon);

      // The warm start reproduces the cold-start greedy on its own curves
      // exactly.
      EXPECT_EQ(plan.tasks,
                strategy::GreedyAllocate(
                    n, horizon, [&curves](uint32_t r, uint32_t x) {
                      return curves[r].Quality(x);
                    }));
      std::vector<uint32_t> start = quality::ThresholdPrefix(curves, horizon);
      if (wide) {
        EXPECT_EQ(Sum(start), 0u);
      } else if (any_gain) {
        EXPECT_LE(Sum(start), horizon);
        EXPECT_GE(Sum(start) + 1.5 * n + 1, horizon);
      }

      if (plan.tasks == want.tasks) continue;
      ++rounding_swaps;
      double lo = HUGE_VAL;
      double hi = -HUGE_VAL;
      for (ResourceId r = 0; r < n; ++r) {
        for (uint32_t x = std::min(plan.tasks[r], want.tasks[r]);
             x < std::max(plan.tasks[r], want.tasks[r]); ++x) {
          double g = oracle.Quality(r, x + 1) - oracle.Quality(r, x);
          lo = std::min(lo, g);
          hi = std::max(hi, g);
        }
      }
      EXPECT_LE(hi - lo, kRoundingTie);
    }
  }
  // Rounding ties decide only a small share of the plans.
  RecordProperty("plans", plans);
  RecordProperty("rounding_swaps", rounding_swaps);
  EXPECT_LT(rounding_swaps * 10, plans);
}

// ------------------------------------------------------- notifications

TEST(NotificationQueueTest, EvictsBeyondCapacity) {
  NotificationQueue q(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    q.Push({NotificationKind::kNewTagging, i, 1, "m" + std::to_string(i)});
  }
  EXPECT_EQ(q.size(), 3u);
  auto latest = q.Latest(10);
  ASSERT_EQ(latest.size(), 3u);
  EXPECT_EQ(latest[0].message, "m4");  // newest first
  EXPECT_EQ(latest[2].message, "m2");
}

TEST(NotificationQueueTest, LatestLimits) {
  NotificationQueue q;
  for (int i = 0; i < 10; ++i) {
    q.Push({NotificationKind::kNewTagging, i, 1, std::to_string(i)});
  }
  EXPECT_EQ(q.Latest(4).size(), 4u);
  EXPECT_EQ(q.Latest(0).size(), 0u);
  EXPECT_EQ(q.Latest(99).size(), 10u);
}

TEST(ProjectEnumsTest, Names) {
  EXPECT_STREQ(ProjectStateName(ProjectState::kDraft), "draft");
  EXPECT_STREQ(ProjectStateName(ProjectState::kRunning), "running");
  EXPECT_STREQ(ProjectStateName(ProjectState::kPaused), "paused");
  EXPECT_STREQ(ProjectStateName(ProjectState::kStopped), "stopped");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kMTurk), "mturk");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kSocialNetwork), "social");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kAudience), "audience");
}

}  // namespace
}  // namespace itag::core
