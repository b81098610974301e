#include "sim/post_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/dataset.h"
#include "sim/driver.h"

namespace itag::sim {
namespace {

using tagging::ResourceId;

DeliciousConfig SmallConfig(uint64_t seed = 5150) {
  DeliciousConfig cfg;
  cfg.num_resources = 40;
  cfg.vocab_size = 300;
  cfg.initial_posts = 150;
  cfg.seed = seed;
  return cfg;
}

TEST(PostPoolTest, BuildsRequestedDepth) {
  SyntheticWorkload wl = GenerateDelicious(SmallConfig());
  PostPool pool = PostPool::Build(wl.tagger.get(), wl.corpus->size(),
                                  /*depth=*/7, 0.9, /*seed=*/1);
  EXPECT_EQ(pool.num_resources(), 40u);
  EXPECT_EQ(pool.TotalRemaining(), 40u * 7u);
  EXPECT_EQ(pool.Remaining(0), 7u);
}

TEST(PostPoolTest, PopConsumesInOrderAndExhausts) {
  SyntheticWorkload wl = GenerateDelicious(SmallConfig());
  PostPool pool = PostPool::Build(wl.tagger.get(), wl.corpus->size(), 3, 0.9,
                                  /*seed=*/2);
  for (int i = 0; i < 3; ++i) {
    auto gp = pool.Pop(5);
    ASSERT_TRUE(gp.has_value());
    EXPECT_FALSE(gp->post.tags.empty());
  }
  EXPECT_EQ(pool.Remaining(5), 0u);
  EXPECT_FALSE(pool.Pop(5).has_value());
  // Other resources are untouched.
  EXPECT_EQ(pool.Remaining(6), 3u);
}

TEST(PostPoolTest, OutOfRangeResourceIsEmpty) {
  SyntheticWorkload wl = GenerateDelicious(SmallConfig());
  PostPool pool =
      PostPool::Build(wl.tagger.get(), wl.corpus->size(), 2, 0.9, 3);
  EXPECT_FALSE(pool.Pop(9999).has_value());
  EXPECT_EQ(pool.Remaining(9999), 0u);
}

TEST(PostPoolTest, SameSeedSameStreams) {
  SyntheticWorkload wl1 = GenerateDelicious(SmallConfig());
  SyntheticWorkload wl2 = GenerateDelicious(SmallConfig());
  PostPool a =
      PostPool::Build(wl1.tagger.get(), wl1.corpus->size(), 4, 0.9, 7);
  PostPool b =
      PostPool::Build(wl2.tagger.get(), wl2.corpus->size(), 4, 0.9, 7);
  for (ResourceId r = 0; r < 40; ++r) {
    for (int k = 0; k < 4; ++k) {
      auto pa = a.Pop(r);
      auto pb = b.Pop(r);
      ASSERT_TRUE(pa.has_value());
      ASSERT_TRUE(pb.has_value());
      EXPECT_EQ(pa->post.tags, pb->post.tags);
      EXPECT_EQ(pa->conscientious, pb->conscientious);
    }
  }
}

/// Resource `r`'s statistics in a comparable form: post and tag counts,
/// every (tag, count), and the rfd history the stability metric reads.
std::string StatsOf(const tagging::Corpus& corpus, ResourceId r) {
  const tagging::TagStats& stats = corpus.stats(r);
  std::ostringstream out;
  out.precision(17);
  out << stats.post_count() << " posts, " << stats.tag_occurrences()
      << " tags:";
  for (const auto& [tag, count] : stats.TopTags(stats.distinct_tags())) {
    out << " " << tag << "x" << count;
  }
  for (size_t back = 0; back <= stats.history_window(); ++back) {
    out << "\n  rfd -" << back << ":";
    const SparseDist rfd = stats.RfdBefore(back);
    for (const auto& [tag, p] : rfd.entries()) out << " " << tag << "=" << p;
  }
  return out.str();
}

TEST(PostPoolTest, PairedComparisonGivesIdenticalContentPerSlot) {
  // The point of the replay pool: when two strategies give resource r its
  // k-th crowd-era task, the post content is identical. Run FP and RAND on
  // equal workloads with equal pools; each run's crowd posts for r must be
  // the first posts of the pool's stream for r, in stream order.
  constexpr uint32_t kDepth = 50;
  constexpr uint64_t kPoolSeed = 9;
  SyntheticWorkload wl_fp = GenerateDelicious(SmallConfig());
  SyntheticWorkload wl_rand = GenerateDelicious(SmallConfig());
  PostPool pool_fp = PostPool::Build(wl_fp.tagger.get(), wl_fp.corpus->size(),
                                     kDepth, 0.9, kPoolSeed);
  PostPool pool_rand = PostPool::Build(
      wl_rand.tagger.get(), wl_rand.corpus->size(), kDepth, 0.9, kPoolSeed);
  // Snapshot provider-era post counts before the runs.
  std::vector<uint32_t> initial = wl_fp.initial_posts;

  RunOptions opts;
  opts.budget = 300;
  opts.sample_every = 300;
  opts.replay_pool = &pool_fp;
  (void)RunDirect(&wl_fp,
                  strategy::MakeStrategy(
                      strategy::StrategyKind::kFewestPostsFirst),
                  opts);
  opts.replay_pool = &pool_rand;
  opts.seed = 777;  // different engine randomness must not matter
  (void)RunDirect(&wl_rand,
                  strategy::MakeStrategy(strategy::StrategyKind::kRandom),
                  opts);

  // The posts each pool delivered per resource. No stream ran dry, so
  // every crowd post came from the pool.
  auto delivered = [&](const PostPool& pool, const SyntheticWorkload& wl) {
    std::vector<size_t> out;
    for (ResourceId r = 0; r < 40; ++r) {
      EXPECT_GT(pool.Remaining(r), 0u) << "resource " << r;
      out.push_back(kDepth - pool.Remaining(r));
      EXPECT_EQ(wl.corpus->PostCount(r), initial[r] + out.back())
          << "resource " << r;
    }
    return out;
  };
  const std::vector<size_t> fp = delivered(pool_fp, wl_fp);
  const std::vector<size_t> rand = delivered(pool_rand, wl_rand);

  // A fresh copy of the workload that folds the first `counts[r]` posts of
  // a pool built like the runs' into each resource r: the statistics a run
  // reaches when its crowd posts are the pool's, in the pool's order.
  auto reference = [&](const std::vector<size_t>& counts) {
    SyntheticWorkload ref = GenerateDelicious(SmallConfig());
    PostPool pool = PostPool::Build(ref.tagger.get(), ref.corpus->size(),
                                    kDepth, 0.9, kPoolSeed);
    for (ResourceId r = 0; r < 40; ++r) {
      for (size_t k = 0; k < counts[r]; ++k) {
        std::optional<GeneratedPost> gp = pool.Pop(r);
        EXPECT_TRUE(gp.has_value() && ref.corpus->AddPost(r, gp->post).ok());
      }
    }
    return ref;
  };
  SyntheticWorkload ref_fp = reference(fp);
  SyntheticWorkload ref_rand = reference(rand);
  size_t paired_slots = 0;
  for (ResourceId r = 0; r < 40; ++r) {
    EXPECT_EQ(StatsOf(*wl_fp.corpus, r), StatsOf(*ref_fp.corpus, r))
        << "resource " << r;
    EXPECT_EQ(StatsOf(*wl_rand.corpus, r), StatsOf(*ref_rand.corpus, r))
        << "resource " << r;
    if (fp[r] == rand[r]) {
      EXPECT_EQ(StatsOf(*wl_fp.corpus, r), StatsOf(*wl_rand.corpus, r))
          << "resource " << r;
    }
    paired_slots += std::min(fp[r], rand[r]);
  }
  EXPECT_GT(paired_slots, 100u);  // both runs reached most slots they share
}

TEST(PostPoolTest, DriverFallsBackWhenPoolRunsDry) {
  SyntheticWorkload wl = GenerateDelicious(SmallConfig());
  // Tiny pool: 1 post per resource, budget far larger.
  PostPool pool =
      PostPool::Build(wl.tagger.get(), wl.corpus->size(), 1, 0.9, 11);
  RunOptions opts;
  opts.budget = 200;
  opts.sample_every = 200;
  opts.replay_pool = &pool;
  RunResult r = RunDirect(
      &wl, strategy::MakeStrategy(strategy::StrategyKind::kRandom), opts);
  EXPECT_EQ(r.tasks_completed, 200u);  // on-demand generation filled the gap
  EXPECT_EQ(pool.TotalRemaining(), 0u);
}

}  // namespace
}  // namespace itag::sim
