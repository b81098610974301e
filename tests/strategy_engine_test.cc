#include "strategy/engine.h"

#include <gtest/gtest.h>

#include "strategy/basic_strategies.h"

namespace itag::strategy {
namespace {

using tagging::Corpus;
using tagging::Post;
using tagging::ResourceId;
using tagging::ResourceKind;
using tagging::TagId;

Post MakePost(std::vector<TagId> tags) {
  Post p;
  p.tags = std::move(tags);
  return p;
}

std::unique_ptr<Corpus> BuildCorpus(size_t n) {
  auto c = std::make_unique<Corpus>();
  for (size_t i = 0; i < n; ++i) {
    c->AddResource(ResourceKind::kWebUrl, "r" + std::to_string(i));
  }
  return c;
}

EngineOptions Opts(uint32_t budget) {
  EngineOptions o;
  o.budget = budget;
  o.seed = 5;
  return o;
}

TEST(EngineTest, BudgetAccounting) {
  auto c = BuildCorpus(3);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kFewestPostsFirst),
                     Opts(5));
  EXPECT_EQ(e.budget_remaining(), 5u);
  for (int i = 0; i < 5; ++i) {
    Result<ResourceId> r = e.ChooseNext();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(c->AddPost(r.value(), MakePost({0})).ok());
    e.NotifyPost(r.value());
  }
  EXPECT_EQ(e.budget_remaining(), 0u);
  EXPECT_EQ(e.tasks_assigned(), 5u);
  Result<ResourceId> done = e.ChooseNext();
  EXPECT_TRUE(done.status().IsResourceExhausted());
}

TEST(EngineTest, AssignmentVectorSumsToTasks) {
  auto c = BuildCorpus(4);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(10));
  for (int i = 0; i < 10; ++i) {
    Result<ResourceId> r = e.ChooseNext();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(c->AddPost(r.value(), MakePost({0})).ok());
    e.NotifyPost(r.value());
  }
  uint32_t sum = 0;
  for (uint32_t x : e.assignment()) sum += x;
  EXPECT_EQ(sum, 10u);
  // Round-robin over 4 resources, 10 tasks: counts are {3,3,2,2}.
  EXPECT_EQ(e.assignment()[0], 3u);
  EXPECT_EQ(e.assignment()[3], 2u);
}

TEST(EngineTest, PromoteJumpsQueue) {
  auto c = BuildCorpus(3);
  // Give resource 2 many posts so FP would never pick it.
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(c->AddPost(2, MakePost({0})).ok());
  }
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kFewestPostsFirst),
                     Opts(4));
  ASSERT_TRUE(e.Promote(2).ok());
  Result<ResourceId> first = e.ChooseNext();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 2u);  // promotion wins over FP order
  Result<ResourceId> second = e.ChooseNext();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), 2u);  // back to the strategy
}

TEST(EngineTest, PromotionsQueueFifo) {
  auto c = BuildCorpus(3);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(3));
  ASSERT_TRUE(e.Promote(2).ok());
  ASSERT_TRUE(e.Promote(1).ok());
  EXPECT_EQ(e.ChooseNext().value(), 2u);
  EXPECT_EQ(e.ChooseNext().value(), 1u);
}

TEST(EngineTest, PromoteValidation) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRandom), Opts(2));
  EXPECT_TRUE(e.Promote(99).IsNotFound());
  ASSERT_TRUE(e.SetStopped(1, true).ok());
  EXPECT_TRUE(e.Promote(1).IsFailedPrecondition());
}

TEST(EngineTest, StoppedResourceNeverChosen) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kFewestPostsFirst),
                     Opts(6));
  ASSERT_TRUE(e.SetStopped(0, true).ok());
  for (int i = 0; i < 6; ++i) {
    Result<ResourceId> r = e.ChooseNext();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 1u);
    ASSERT_TRUE(c->AddPost(1, MakePost({0})).ok());
    e.NotifyPost(1);
  }
}

TEST(EngineTest, StoppedPromotionIsSkipped) {
  auto c = BuildCorpus(3);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(3));
  ASSERT_TRUE(e.Promote(1).ok());
  ASSERT_TRUE(e.SetStopped(1, true).ok());  // stopped after promotion
  Result<ResourceId> r = e.ChooseNext();
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value(), 1u);
}

TEST(EngineTest, ReenablingResourceRestoresIt) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kFewestPostsFirst),
                     Opts(10));
  ASSERT_TRUE(e.SetStopped(0, true).ok());
  EXPECT_EQ(e.ChooseNext().value(), 1u);
  ASSERT_TRUE(e.SetStopped(0, false).ok());
  ASSERT_TRUE(c->AddPost(1, MakePost({0})).ok());
  e.NotifyPost(1);
  EXPECT_EQ(e.ChooseNext().value(), 0u);  // 0 has fewest posts again
}

TEST(EngineTest, AllStoppedFailsPrecondition) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRandom), Opts(2));
  ASSERT_TRUE(e.SetStopped(0, true).ok());
  ASSERT_TRUE(e.SetStopped(1, true).ok());
  Result<ResourceId> r = e.ChooseNext();
  EXPECT_TRUE(r.status().IsFailedPrecondition());
  // Budget is not consumed by a failed choice.
  EXPECT_EQ(e.budget_remaining(), 2u);
}

TEST(EngineTest, SwitchStrategyMidRunKeepsBudget) {
  auto c = BuildCorpus(3);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c->AddPost(0, MakePost({0})).ok());
  }
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kFreeChoice),
                     Opts(8));
  for (int i = 0; i < 3; ++i) {
    Result<ResourceId> r = e.ChooseNext();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(c->AddPost(r.value(), MakePost({0})).ok());
    e.NotifyPost(r.value());
  }
  EXPECT_EQ(e.strategy_name(), "FC");
  e.SwitchStrategy(MakeStrategy(StrategyKind::kFewestPostsFirst));
  EXPECT_EQ(e.strategy_name(), "FP");
  EXPECT_EQ(e.budget_remaining(), 5u);
  // New strategy takes over with current statistics.
  Result<ResourceId> r = e.ChooseNext();
  ASSERT_TRUE(r.ok());
  uint32_t min_posts = UINT32_MAX;
  for (ResourceId i = 0; i < 3; ++i) {
    min_posts = std::min(min_posts, c->PostCount(i));
  }
  EXPECT_EQ(c->PostCount(r.value()), min_posts);
}

TEST(EngineTest, AddBudgetExtendsRun) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(1));
  ASSERT_TRUE(e.ChooseNext().ok());
  EXPECT_TRUE(e.ChooseNext().status().IsResourceExhausted());
  e.AddBudget(2);
  EXPECT_EQ(e.budget_remaining(), 2u);
  EXPECT_TRUE(e.ChooseNext().ok());
  EXPECT_TRUE(e.ChooseNext().ok());
  EXPECT_TRUE(e.ChooseNext().status().IsResourceExhausted());
}

TEST(EngineTest, ZeroBudgetImmediatelyExhausted) {
  auto c = BuildCorpus(1);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRandom), Opts(0));
  EXPECT_TRUE(e.ChooseNext().status().IsResourceExhausted());
}

// ------------------------------------------------------------ ChooseBatch

TEST(ChooseBatchTest, DebitsOneUnitPerPick) {
  auto c = BuildCorpus(4);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(10));
  Result<std::vector<ResourceId>> batch = e.ChooseBatch(6);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 6u);
  EXPECT_EQ(e.budget_remaining(), 4u);
  EXPECT_EQ(e.tasks_assigned(), 6u);
  uint32_t assigned = 0;
  for (uint32_t x : e.assignment()) assigned += x;
  EXPECT_EQ(assigned, 6u);
}

TEST(ChooseBatchTest, TruncatesAtBudgetThenExhausts) {
  auto c = BuildCorpus(4);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(5));
  Result<std::vector<ResourceId>> batch = e.ChooseBatch(64);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 5u);
  EXPECT_EQ(e.budget_remaining(), 0u);
  EXPECT_TRUE(e.ChooseBatch(1).status().IsResourceExhausted());
}

TEST(ChooseBatchTest, PromotionsComeFirstInFifoOrder) {
  auto c = BuildCorpus(6);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(10));
  ASSERT_TRUE(e.Promote(4).ok());
  ASSERT_TRUE(e.Promote(2).ok());
  Result<std::vector<ResourceId>> batch = e.ChooseBatch(4);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 4u);
  EXPECT_EQ(batch.value()[0], 4u);
  EXPECT_EQ(batch.value()[1], 2u);
  // Strategy fills the remainder (RR starts at id 0).
  EXPECT_EQ(batch.value()[2], 0u);
  EXPECT_EQ(batch.value()[3], 1u);
}

TEST(ChooseBatchTest, StoppedResourcesNeverAppear) {
  auto c = BuildCorpus(5);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRandom), Opts(40));
  ASSERT_TRUE(e.SetStopped(0, true).ok());
  ASSERT_TRUE(e.SetStopped(3, true).ok());
  // A promotion that is later stopped is skipped, not chosen.
  ASSERT_TRUE(e.Promote(1).ok());
  ASSERT_TRUE(e.SetStopped(1, true).ok());
  Result<std::vector<ResourceId>> batch = e.ChooseBatch(40);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 40u);
  for (ResourceId id : batch.value()) {
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, 1u);
    EXPECT_NE(id, 3u);
  }
}

TEST(ChooseBatchTest, ZeroBatchIsEmptySuccess) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(5));
  Result<std::vector<ResourceId>> batch = e.ChooseBatch(0);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch.value().empty());
  EXPECT_EQ(e.budget_remaining(), 5u);
}

TEST(ChooseBatchTest, AllStoppedFailsPrecondition) {
  auto c = BuildCorpus(2);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(5));
  ASSERT_TRUE(e.SetStopped(0, true).ok());
  ASSERT_TRUE(e.SetStopped(1, true).ok());
  EXPECT_TRUE(e.ChooseBatch(3).status().IsFailedPrecondition());
  // Nothing was debited by the failed batch.
  EXPECT_EQ(e.budget_remaining(), 5u);
}

TEST(EngineTest, AddBudgetSaturatesInsteadOfWrapping) {
  auto c = BuildCorpus(1);
  AllocationEngine e(c.get(), MakeStrategy(StrategyKind::kRoundRobin),
                     Opts(10));
  EXPECT_EQ(e.AddBudget(0xFFFFFFFFu), 0xFFFFFFFFu);
  EXPECT_EQ(e.budget_remaining(), 0xFFFFFFFFu);
  // Still usable: picks debit from the saturated total.
  ASSERT_TRUE(e.ChooseNext().ok());
  EXPECT_EQ(e.budget_remaining(), 0xFFFFFFFEu);
}

// An upload to a running project adds resources to the corpus under a live
// engine. Stopping one of them, drawing and saving must touch only grown
// state, and the engine must then allocate exactly like one rebuilt from
// its saved state over the same corpus, which is what recovery builds.
class CorpusGrowthTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(CorpusGrowthTest, GrownEngineAllocatesLikeRestoredOne) {
  auto c = BuildCorpus(2);
  AllocationEngine live(c.get(), MakeStrategy(GetParam()), Opts(100));
  ASSERT_TRUE(live.ChooseBatch(2).ok());
  for (size_t i = 2; i < 8; ++i) {
    c->AddResource(ResourceKind::kWebUrl, "r" + std::to_string(i));
  }
  ASSERT_TRUE(live.SetStopped(2, true).ok());
  ASSERT_TRUE(live.Promote(5).ok());
  Result<std::vector<ResourceId>> drawn = live.ChooseBatch(4);
  ASSERT_TRUE(drawn.ok());
  for (ResourceId id : drawn.value()) {
    ASSERT_TRUE(c->AddPost(id, MakePost({static_cast<TagId>(id)})).ok());
    live.NotifyPost(id);
  }

  EngineState saved = live.SaveState();
  ASSERT_EQ(saved.assignment.size(), 8u);
  ASSERT_EQ(saved.stopped.size(), 8u);
  EXPECT_EQ(saved.stopped[2], 1);
  EXPECT_EQ(live.context().EligibleCount(), 7u);
  AllocationEngine restored(c.get(), MakeStrategy(GetParam()), Opts(0));
  restored.RestoreState(saved);

  std::vector<ResourceId> from_live, from_restored;
  for (int i = 0; i < 12; ++i) {
    Result<ResourceId> a = live.ChooseNext();
    Result<ResourceId> b = restored.ChooseNext();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_LT(a.value(), 8u);
    ASSERT_NE(a.value(), 2u);
    from_live.push_back(a.value());
    from_restored.push_back(b.value());
    ASSERT_TRUE(c->AddPost(a.value(), MakePost({1})).ok());
    live.NotifyPost(a.value());
    if (b.value() != a.value()) {
      ASSERT_TRUE(c->AddPost(b.value(), MakePost({1})).ok());
    }
    restored.NotifyPost(b.value());
  }
  // RR's cursor is not part of EngineState: a restored RR restarts at
  // resource 0 whether or not the corpus grew.
  if (GetParam() != StrategyKind::kRoundRobin) {
    EXPECT_EQ(from_live, from_restored);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CorpusGrowthTest,
    ::testing::Values(StrategyKind::kFreeChoice,
                      StrategyKind::kFewestPostsFirst,
                      StrategyKind::kMostUnstableFirst,
                      StrategyKind::kHybridFpMu, StrategyKind::kRandom,
                      StrategyKind::kRoundRobin,
                      StrategyKind::kEstimatedGain),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = StrategyKindName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace itag::strategy
