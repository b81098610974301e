#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "quality/convergence_model.h"
#include "quality/gain_estimator.h"
#include "quality/quality_model.h"

namespace itag::quality {
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

// ----------------------------------------------------- StabilityQuality

TEST(StabilityQualityTest, ZeroBelowMinPosts) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  StabilityQuality q;
  EXPECT_EQ(q.ResourceQuality(r, c.stats(r)), 0.0);
  ASSERT_TRUE(c.AddPost(r, MakePost({0})).ok());
  EXPECT_EQ(q.ResourceQuality(r, c.stats(r)), 0.0);  // 1 post < min_posts 2
}

TEST(StabilityQualityTest, RepeatedIdenticalPostsConvergeToOne) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  StabilityQuality q;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(c.AddPost(r, MakePost({0, 1})).ok());
  }
  EXPECT_NEAR(q.ResourceQuality(r, c.stats(r)), 1.0, 1e-9);
}

TEST(StabilityQualityTest, ChurningTagsScoreBelowStableTags) {
  StabilityQuality q;
  // Every post introduces an entirely new tag: rfd keeps moving. After k=10
  // single-tag posts the windowed TV instability is mean_{j=1..8}(j/10),
  // so quality sits around 0.55 — far below the stable-resource score of 1.
  Corpus churn;
  ResourceId r1 = churn.AddResource(ResourceKind::kWebUrl, "u");
  for (TagId t = 0; t < 10; ++t) {
    ASSERT_TRUE(churn.AddPost(r1, MakePost({t})).ok());
  }
  Corpus stable;
  ResourceId r2 = stable.AddResource(ResourceKind::kWebUrl, "u");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(stable.AddPost(r2, MakePost({0})).ok());
  }
  double q_churn = q.ResourceQuality(r1, churn.stats(r1));
  double q_stable = q.ResourceQuality(r2, stable.stats(r2));
  EXPECT_NEAR(q_churn, 0.55, 0.02);
  EXPECT_NEAR(q_stable, 1.0, 1e-9);
  EXPECT_LT(q_churn, q_stable - 0.3);
}

TEST(StabilityQualityTest, AlwaysInUnitInterval) {
  Corpus c;
  Rng rng(5);
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  StabilityQuality q;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        c.AddPost(r, MakePost({static_cast<TagId>(rng.Uniform(6))})).ok());
    double v = q.ResourceQuality(r, c.stats(r));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(StabilityQualityTest, CorpusQualityIsAverage) {
  Corpus c;
  ResourceId a = c.AddResource(ResourceKind::kWebUrl, "a");
  ResourceId b = c.AddResource(ResourceKind::kWebUrl, "b");
  StabilityQuality q;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.AddPost(a, MakePost({0})).ok());
  }
  // b has nothing: quality 0. Corpus = (q_a + 0) / 2.
  double qa = q.ResourceQuality(a, c.stats(a));
  EXPECT_NEAR(q.CorpusQuality(c), qa / 2.0, 1e-12);
  (void)b;
}

TEST(StabilityQualityTest, CountAboveThreshold) {
  Corpus c;
  ResourceId a = c.AddResource(ResourceKind::kWebUrl, "a");
  c.AddResource(ResourceKind::kWebUrl, "b");
  StabilityQuality q;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.AddPost(a, MakePost({0})).ok());
  }
  EXPECT_EQ(q.CountAboveThreshold(c, 0.9), 1u);
  EXPECT_EQ(q.CountAboveThreshold(c, 0.0), 2u);
}

TEST(StabilityQualityTest, EmptyCorpusQualityZero) {
  Corpus c;
  StabilityQuality q;
  EXPECT_EQ(q.CorpusQuality(c), 0.0);
}

// ---------------------------------------------------- GroundTruthQuality

TEST(GroundTruthQualityTest, PerfectMatchScoresOne) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  // Truth: 50/50 over tags {0,1}; posts alternate so rfd == θ.
  SparseDist theta = SparseDist::FromWeights({{0, 0.5}, {1, 0.5}});
  GroundTruthQuality q({theta});
  ASSERT_TRUE(c.AddPost(r, MakePost({0, 1})).ok());
  EXPECT_NEAR(q.ResourceQuality(r, c.stats(r)), 1.0, 1e-12);
}

TEST(GroundTruthQualityTest, ZeroWithNoPosts) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  GroundTruthQuality q({SparseDist::FromWeights({{0, 1.0}})});
  EXPECT_EQ(q.ResourceQuality(r, c.stats(r)), 0.0);
}

TEST(GroundTruthQualityTest, OffTopicTagsLowerQuality) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  SparseDist theta = SparseDist::FromWeights({{0, 1.0}});
  GroundTruthQuality q({theta});
  ASSERT_TRUE(c.AddPost(r, MakePost({0})).ok());
  double on_topic = q.ResourceQuality(r, c.stats(r));
  ASSERT_TRUE(c.AddPost(r, MakePost({99})).ok());  // junk tag
  double with_junk = q.ResourceQuality(r, c.stats(r));
  EXPECT_LT(with_junk, on_topic);
}

TEST(GroundTruthQualityTest, QualityGrowsAsRfdConverges) {
  // Sampling posts from θ: quality should trend upward with more posts.
  Rng rng(77);
  SparseDist theta =
      SparseDist::FromWeights({{0, 0.5}, {1, 0.3}, {2, 0.2}});
  std::vector<double> w = {0.5, 0.3, 0.2};
  AliasSampler sampler(w);
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  GroundTruthQuality q({theta});
  double q_small = 0.0, q_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        c.AddPost(r, MakePost({static_cast<TagId>(sampler.Sample(&rng))}))
            .ok());
    if (i == 9) q_small = q.ResourceQuality(r, c.stats(r));
  }
  q_large = q.ResourceQuality(r, c.stats(r));
  EXPECT_GT(q_large, q_small);
}

// ---------------------------------------------------- ConvergenceModel

TEST(ConvergenceModelTest, DefaultBeforeData) {
  ConvergenceModel m;
  EXPECT_EQ(m.EstimateC(), ConvergenceModel::kDefaultC);
  EXPECT_EQ(m.PredictDistance(1), 1.0);
  EXPECT_EQ(m.PredictQuality(1), 0.0);
}

TEST(ConvergenceModelTest, RecoversCFromExactCurve) {
  ConvergenceModel m;
  const double c = 0.6;
  for (uint32_t k = 1; k <= 50; ++k) {
    m.Observe(k, c / std::sqrt(static_cast<double>(k)));
  }
  EXPECT_NEAR(m.EstimateC(), c, 1e-9);
  EXPECT_NEAR(m.PredictDistance(100), c / 10.0, 1e-9);
}

TEST(ConvergenceModelTest, RecoversCFromNoisyCurve) {
  ConvergenceModel m;
  Rng rng(11);
  const double c = 0.8;
  for (uint32_t k = 1; k <= 500; ++k) {
    double noise = rng.Normal(0.0, 0.02);
    m.Observe(k, c / std::sqrt(static_cast<double>(k)) + noise);
  }
  EXPECT_NEAR(m.EstimateC(), c, 0.05);
}

TEST(ConvergenceModelTest, GainsAreNonnegativeAndDiminishing) {
  ConvergenceModel m;
  for (uint32_t k = 1; k <= 20; ++k) {
    m.Observe(k, 0.9 / std::sqrt(static_cast<double>(k)));
  }
  double prev = m.PredictGain(1);
  EXPECT_GE(prev, 0.0);
  for (uint32_t k = 2; k < 50; ++k) {
    double g = m.PredictGain(k);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, prev + 1e-12) << "gain must diminish at k=" << k;
    prev = g;
  }
}

TEST(ConvergenceModelTest, IgnoresInvalidObservations) {
  ConvergenceModel m;
  m.Observe(0, 0.5);
  EXPECT_EQ(m.observation_count(), 0u);
  m.Observe(3, 5.0);  // clamped to 1.0 but counted
  EXPECT_EQ(m.observation_count(), 1u);
}

// ---------------------------------------------------- gain estimators

TEST(GainEstimatorTest, ClosedFormZeroAtZeroPosts) {
  SparseDist theta = SparseDist::FromWeights({{0, 0.5}, {1, 0.5}});
  EXPECT_EQ(ExpectedQualityClosedForm(theta, 0, 3.0), 0.0);
}

TEST(GainEstimatorTest, ClosedFormIncreasingAndConcave) {
  SparseDist theta =
      SparseDist::FromWeights({{0, 0.4}, {1, 0.3}, {2, 0.2}, {3, 0.1}});
  double prev_q = 0.0, prev_gain = 1.0;
  for (uint32_t k = 1; k <= 60; ++k) {
    double q = ExpectedQualityClosedForm(theta, k, 3.0);
    EXPECT_GT(q, prev_q);
    double gain = q - prev_q;
    if (k > 1) {
      EXPECT_LE(gain, prev_gain + 1e-12) << "k=" << k;
    }
    prev_gain = gain;
    prev_q = q;
  }
}

TEST(GainEstimatorTest, ClosedFormMatchesMonteCarlo) {
  SparseDist theta =
      SparseDist::FromWeights({{0, 0.5}, {1, 0.25}, {2, 0.25}});
  Rng rng(123);
  for (uint32_t k : {4u, 16u, 64u}) {
    double cf = ExpectedQualityClosedForm(theta, k, 3.0);
    double mc = ExpectedQualityMonteCarlo(theta, k, 3, 400, &rng);
    EXPECT_NEAR(cf, mc, 0.06) << "k=" << k;
  }
}

TEST(GainEstimatorTest, OracleMarginalGainsDiminish) {
  SparseDist theta = SparseDist::FromWeights({{0, 0.6}, {1, 0.4}});
  OracleGainEstimator oracle({theta}, {3}, 3.0);
  double prev = oracle.MarginalGain(0, 0);
  for (uint32_t extra = 1; extra < 30; ++extra) {
    double g = oracle.MarginalGain(0, extra);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, prev + 1e-12);
    prev = g;
  }
}

TEST(GainEstimatorTest, OraclePrefersUnderTaggedResource) {
  SparseDist theta = SparseDist::FromWeights({{0, 0.5}, {1, 0.5}});
  // Same θ, resource 0 has 2 posts, resource 1 has 50.
  OracleGainEstimator oracle({theta, theta}, {2, 50}, 3.0);
  EXPECT_GT(oracle.MarginalGain(0, 0), oracle.MarginalGain(1, 0));
}

TEST(GainEstimatorTest, EmpiricalColdStartIsMaximal) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  EmpiricalGainEstimator est;
  EXPECT_EQ(est.MarginalGain(c.stats(r)), 1.0);
}

TEST(GainEstimatorTest, EmpiricalGainShrinksWithPosts) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  EmpiricalGainEstimator est;
  ASSERT_TRUE(c.AddPost(r, MakePost({0, 1})).ok());
  double g_few = est.MarginalGain(c.stats(r));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(c.AddPost(r, MakePost({0, 1})).ok());
  }
  double g_many = est.MarginalGain(c.stats(r));
  EXPECT_LT(g_many, g_few);
}

TEST(GainEstimatorTest, EmpiricalThetaSmoothing) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  EmpiricalGainEstimator est(/*alpha=*/1.0, /*tags_per_post=*/3.0);
  ASSERT_TRUE(c.AddPost(r, MakePost({0, 0 + 1})).ok());
  SparseDist theta = est.EstimateTheta(c.stats(r));
  EXPECT_EQ(theta.size(), 2u);
  EXPECT_NEAR(theta.Sum(), 1.0, 1e-12);
  // counts 1,1 + alpha 1 => equal probabilities.
  EXPECT_NEAR(theta.Prob(0), 0.5, 1e-12);
}

TEST(ProjectionCurveTest, MatchesClosedFormOverTheta) {
  Rng rng(99);
  EmpiricalGainEstimator est(/*alpha=*/0.5, /*tags_per_post=*/2.5);
  for (int trial = 0; trial < 20; ++trial) {
    Corpus c;
    ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
    uint32_t posts = 1 + rng.Uniform(50);
    for (uint32_t p = 0; p < posts; ++p) {
      TagId first = rng.Uniform(30);
      ASSERT_TRUE(c.AddPost(r, MakePost({first, first + 1 + rng.Uniform(5)}))
                      .ok());
    }
    ProjectionCurve curve = est.Curve(c.stats(r));
    SparseDist theta = est.EstimateTheta(c.stats(r));
    for (uint32_t x : {0u, 1u, 2u, 7u, 100u, 4999u}) {
      EXPECT_NEAR(curve.Quality(x),
                  ExpectedQualityClosedForm(theta, posts + x, 2.5), 1e-15);
    }
  }
}

TEST(ProjectionCurveTest, RampWithoutPosts) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  ProjectionCurve curve = EmpiricalGainEstimator().Curve(c.stats(r));
  EXPECT_TRUE(curve.Concave());
  EXPECT_EQ(curve.Quality(0), 0.0);
  EXPECT_EQ(curve.Quality(1), 0.5);
  EXPECT_DOUBLE_EQ(curve.Quality(9), 0.9);
}

TEST(ProjectionCurveTest, ConcaveUnlessTheClampBinds) {
  Corpus c;
  ResourceId narrow = c.AddResource(ResourceKind::kWebUrl, "n");
  ResourceId wide = c.AddResource(ResourceKind::kWebUrl, "w");
  ASSERT_TRUE(c.AddPost(narrow, MakePost({0, 1, 2})).ok());
  std::vector<TagId> twenty;
  for (TagId t = 0; t < 20; ++t) twenty.push_back(t);
  ASSERT_TRUE(c.AddPost(wide, MakePost(twenty)).ok());
  EmpiricalGainEstimator est;
  EXPECT_TRUE(est.Curve(c.stats(narrow)).Concave());
  // 20 equally likely tags after one post: a ≥ √1, so q(0) is clamped to 0.
  EXPECT_FALSE(est.Curve(c.stats(wide)).Concave());
}

TEST(ProjectionCurveTest, GainsAboveCountsEveryGainAboveTheThreshold) {
  Rng rng(5);
  std::vector<ProjectionCurve> curves = {ProjectionCurve()};
  for (int i = 0; i < 30; ++i) {
    curves.emplace_back(0.01 + 0.9 * rng.NextDouble(), 1 + rng.Uniform(100));
  }
  for (const ProjectionCurve& curve : curves) {
    ASSERT_TRUE(curve.Concave());
    for (double lambda : {0.3, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
      uint32_t above = 0;
      while (above < 5000 && curve.Gain(above) > lambda) ++above;
      EXPECT_EQ(curve.GainsAbove(lambda, 5000), above) << lambda;
      EXPECT_EQ(curve.GainsAbove(lambda, 3), std::min(above, 3u)) << lambda;
      // The relaxation bounds the count from above.
      double slope = 0.0;
      double mu = std::pow(lambda, -2.0 / 3.0);
      double bound = curve.CountBound(mu, &slope);
      if (above > 0) {
        EXPECT_LT(above, bound) << lambda;
      }
      EXPECT_GE(slope, 0.0);
    }
  }
}

TEST(ThresholdPrefixTest, ColdStartWhenACurveIsNotConcave) {
  // a = 1.2 after one post: the clamp binds at k₀.
  std::vector<ProjectionCurve> curves = {ProjectionCurve(0.3, 4),
                                         ProjectionCurve(1.2, 1)};
  EXPECT_EQ(ThresholdPrefix(curves, 1000),
            (std::vector<uint32_t>{0, 0}));
  curves[1] = ProjectionCurve(0.9, 1);
  std::vector<uint32_t> start = ThresholdPrefix(curves, 1000);
  EXPECT_LE(start[0] + start[1], 1000u);
  // Within the documented 1.5·n + 1 of the budget.
  EXPECT_GE(start[0] + start[1], 1000u - 4u);
}

TEST(GainEstimatorTest, MonteCarloEmptyTheta) {
  Rng rng(7);
  SparseDist empty;
  EXPECT_EQ(ExpectedQualityMonteCarlo(empty, 5, 3, 10, &rng), 0.0);
}

}  // namespace
}  // namespace itag::quality
