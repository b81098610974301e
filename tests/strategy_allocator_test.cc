#include "strategy/allocator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "quality/gain_estimator.h"

namespace itag::strategy {
namespace {

/// Concave curve family: E(i, x) = scale_i * (1 - 1/(1 + x + offset_i)).
QualityCurve ConcaveCurve(std::vector<double> scale,
                          std::vector<uint32_t> offset) {
  return [scale = std::move(scale), offset = std::move(offset)](
             uint32_t i, uint32_t x) {
    double k = static_cast<double>(x + offset[i]);
    return scale[i] * (1.0 - 1.0 / (1.0 + k));
  };
}

uint32_t Sum(const std::vector<uint32_t>& x) {
  uint32_t s = 0;
  for (uint32_t v : x) s += v;
  return s;
}

TEST(AllocatorTest, GreedySpendsExactBudget) {
  auto curve = ConcaveCurve({1.0, 1.0, 1.0}, {0, 0, 0});
  for (uint32_t budget : {0u, 1u, 7u, 100u}) {
    std::vector<uint32_t> x = GreedyAllocate(3, budget, curve);
    EXPECT_EQ(Sum(x), budget);
  }
}

TEST(AllocatorTest, DpSpendsExactBudget) {
  auto curve = ConcaveCurve({1.0, 2.0}, {0, 3});
  std::vector<uint32_t> x = ExactDpAllocate(2, 9, curve);
  EXPECT_EQ(Sum(x), 9u);
}

TEST(AllocatorTest, GreedyFavoursHigherMarginalGain) {
  // Resource 1 already has 10 posts' worth of offset: its marginal gains
  // are tiny, so almost all budget goes to resource 0.
  auto curve = ConcaveCurve({1.0, 1.0}, {0, 10});
  std::vector<uint32_t> x = GreedyAllocate(2, 6, curve);
  EXPECT_GT(x[0], x[1]);
}

TEST(AllocatorTest, GreedyMatchesDpOnConcaveCurves) {
  // Exhaustive cross-check over random concave instances: greedy must be
  // exactly optimal.
  Rng rng(2718);
  for (int trial = 0; trial < 25; ++trial) {
    size_t n = 2 + rng.Uniform(5);
    uint32_t budget = 1 + rng.Uniform(15);
    std::vector<double> scale(n);
    std::vector<uint32_t> offset(n);
    for (size_t i = 0; i < n; ++i) {
      scale[i] = 0.2 + rng.NextDouble();
      offset[i] = rng.Uniform(6);
    }
    auto curve = ConcaveCurve(scale, offset);
    std::vector<uint32_t> g = GreedyAllocate(n, budget, curve);
    std::vector<uint32_t> d = ExactDpAllocate(n, budget, curve);
    EXPECT_NEAR(AllocationValue(g, curve), AllocationValue(d, curve), 1e-9)
        << "trial " << trial;
  }
}

TEST(AllocatorTest, GreedyMatchesDpOnOracleCurves) {
  // The actual curves used by the optimal-allocation comparison: closed-form
  // expected ground-truth quality from Dirichlet-ish θ.
  Rng rng(314);
  std::vector<SparseDist> thetas;
  std::vector<uint32_t> initial;
  for (int i = 0; i < 4; ++i) {
    std::vector<SparseDist::Entry> entries;
    uint32_t support = 2 + rng.Uniform(6);
    for (uint32_t t = 0; t < support; ++t) {
      entries.emplace_back(t, 0.1 + rng.NextDouble());
    }
    thetas.push_back(SparseDist::FromWeights(entries));
    initial.push_back(rng.Uniform(8));
  }
  quality::OracleGainEstimator oracle(thetas, initial, 3.0);
  auto curve = [&](uint32_t i, uint32_t x) {
    return oracle.ExpectedQuality(i, x);
  };
  std::vector<uint32_t> g = GreedyAllocate(4, 12, curve);
  std::vector<uint32_t> d = ExactDpAllocate(4, 12, curve);
  EXPECT_NEAR(AllocationValue(g, curve), AllocationValue(d, curve), 1e-9);
}

TEST(AllocatorTest, ValueMonotoneInBudget) {
  auto curve = ConcaveCurve({1.0, 0.7, 1.3}, {1, 0, 4});
  double prev = AllocationValue(GreedyAllocate(3, 0, curve), curve);
  for (uint32_t b = 1; b <= 20; ++b) {
    double v = AllocationValue(GreedyAllocate(3, b, curve), curve);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(AllocatorTest, ZeroResources) {
  auto curve = ConcaveCurve({}, {});
  EXPECT_TRUE(GreedyAllocate(0, 5, curve).empty());
  EXPECT_TRUE(ExactDpAllocate(0, 5, curve).empty());
}

TEST(AllocatorTest, DeterministicTieBreaking) {
  // Identical resources: greedy distributes evenly, lowest ids first.
  auto curve = ConcaveCurve({1.0, 1.0, 1.0}, {0, 0, 0});
  std::vector<uint32_t> x = GreedyAllocate(3, 4, curve);
  EXPECT_EQ(x[0], 2u);  // ids 0,1,2,0
  EXPECT_EQ(x[1], 1u);
  EXPECT_EQ(x[2], 1u);
}

TEST(AllocatorTest, WarmStartFromAGreedyStateMatchesColdStart) {
  // The greedy's state after any number of steps is a valid start: the
  // remaining steps depend on the counts alone.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.Uniform(8);
    uint32_t budget = rng.Uniform(40);
    std::vector<double> scale(n);
    std::vector<uint32_t> offset(n);
    for (size_t i = 0; i < n; ++i) {
      scale[i] = 0.2 + rng.NextDouble();
      offset[i] = rng.Uniform(6);
    }
    auto curve = ConcaveCurve(scale, offset);
    std::vector<uint32_t> cold = GreedyAllocate(n, budget, curve);
    uint32_t steps = rng.Uniform(budget + 1);
    std::vector<uint32_t> start = GreedyAllocate(n, steps, curve);
    EXPECT_EQ(GreedyAllocate(n, budget, curve, start), cold)
        << "trial " << trial;
  }
}

TEST(AllocatorTest, WarmStartAtThresholdPrefixSkipsTheColdSteps) {
  // n = 128 projection curves (8 of them ramps) and B = 5000: the cold start
  // evaluates the curve 2B + 2n times; the warm start from the threshold
  // prefix reaches the same allocation in at most 8n evaluations.
  constexpr uint32_t kN = 128;
  constexpr uint32_t kBudget = 5000;
  Rng rng(1234);
  std::vector<quality::ProjectionCurve> curves;
  for (uint32_t i = 0; i < kN; ++i) {
    if (i % 16 == 0) {
      curves.emplace_back();
    } else {
      // a < 1 ≤ √k₀: every curve is concave.
      curves.emplace_back(0.05 + 0.9 * rng.NextDouble(), 1 + rng.Uniform(20));
    }
  }
  size_t evals = 0;
  QualityCurve counting = [&](uint32_t i, uint32_t x) {
    ++evals;
    return curves[i].Quality(x);
  };
  std::vector<uint32_t> cold = GreedyAllocate(kN, kBudget, counting);
  EXPECT_EQ(evals, 2u * kBudget + 2u * kN);

  std::vector<uint32_t> start = quality::ThresholdPrefix(curves, kBudget);
  ASSERT_LE(Sum(start), kBudget);
  evals = 0;
  EXPECT_EQ(GreedyAllocate(kN, kBudget, counting, start), cold);
  EXPECT_LE(evals, 8u * kN);
}

class AllocatorPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AllocatorPropertyTest, GreedyOptimalAcrossBudgets) {
  uint32_t budget = GetParam();
  auto curve = ConcaveCurve({0.9, 1.1, 0.5, 1.4}, {2, 0, 5, 1});
  std::vector<uint32_t> g = GreedyAllocate(4, budget, curve);
  std::vector<uint32_t> d = ExactDpAllocate(4, budget, curve);
  EXPECT_EQ(Sum(g), budget);
  EXPECT_EQ(Sum(d), budget);
  EXPECT_NEAR(AllocationValue(g, curve), AllocationValue(d, curve), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, AllocatorPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 25, 60));

}  // namespace
}  // namespace itag::strategy
