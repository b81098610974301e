#include "quality/gain_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace itag::quality {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

double ExpectedQualityClosedForm(const SparseDist& theta, uint32_t k,
                                 double tags_per_post) {
  if (k == 0) return 0.0;
  double n = static_cast<double>(k) * tags_per_post;
  if (n <= 0.0) return 0.0;
  double etv = 0.0;
  for (const auto& [id, p] : theta.entries()) {
    (void)id;
    etv += 0.5 * std::sqrt(2.0 * p * (1.0 - p) / (kPi * n));
  }
  double q = 1.0 - std::min(etv, 1.0);
  return std::clamp(q, 0.0, 1.0);
}

double ExpectedQualityMonteCarlo(const SparseDist& theta, uint32_t k,
                                 uint32_t tags_per_post, uint32_t trials,
                                 Rng* rng) {
  if (k == 0 || theta.empty()) return 0.0;
  std::vector<double> weights;
  std::vector<uint32_t> ids;
  weights.reserve(theta.size());
  ids.reserve(theta.size());
  for (const auto& [id, p] : theta.entries()) {
    ids.push_back(id);
    weights.push_back(p);
  }
  AliasSampler sampler(weights);
  double acc = 0.0;
  std::vector<SparseDist::Entry> entries;
  for (uint32_t t = 0; t < trials; ++t) {
    std::vector<uint32_t> counts(ids.size(), 0);
    uint64_t draws = static_cast<uint64_t>(k) * tags_per_post;
    for (uint64_t d = 0; d < draws; ++d) {
      counts[sampler.Sample(rng)]++;
    }
    entries.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (counts[i] > 0) {
        entries.emplace_back(ids[i], static_cast<double>(counts[i]));
      }
    }
    SparseDist rfd = SparseDist::FromWeights(entries);
    acc += 1.0 - TotalVariation(rfd, theta);
  }
  return acc / static_cast<double>(trials);
}

OracleGainEstimator::OracleGainEstimator(std::vector<SparseDist> truth,
                                         std::vector<uint32_t> initial_posts,
                                         double tags_per_post)
    : truth_(std::move(truth)),
      initial_posts_(std::move(initial_posts)),
      tags_per_post_(tags_per_post) {
  assert(truth_.size() == initial_posts_.size());
  assert(tags_per_post_ > 0.0);
}

double OracleGainEstimator::ExpectedQuality(uint32_t resource,
                                            uint32_t extra) const {
  assert(resource < truth_.size());
  return ExpectedQualityClosedForm(truth_[resource],
                                   initial_posts_[resource] + extra,
                                   tags_per_post_);
}

double OracleGainEstimator::MarginalGain(uint32_t resource,
                                         uint32_t extra) const {
  double g = ExpectedQuality(resource, extra + 1) -
             ExpectedQuality(resource, extra);
  return g < 0.0 ? 0.0 : g;
}

ProjectionCurve::ProjectionCurve(double a, uint32_t posts)
    : a_(a), s_(std::cbrt(0.25 * a * a)), posts_(posts) {
  assert(posts_ > 0);
}

double ProjectionCurve::Quality(uint32_t extra) const {
  if (posts_ == 0) return extra == 0 ? 0.0 : 1.0 - 1.0 / (1.0 + extra);
  double etv = a_ / std::sqrt(static_cast<double>(posts_) + extra);
  return 1.0 - std::min(etv, 1.0);
}

bool ProjectionCurve::Concave() const {
  return posts_ == 0 || a_ / std::sqrt(static_cast<double>(posts_)) < 1.0;
}

uint32_t ProjectionCurve::GainsAbove(double lambda, uint32_t cap) const {
  // Start from the continuous inverse of the gain, (x + 1)(x + 2) = 1/λ for
  // the ramp and k₀ + x + ½ = (a/2λ)^(2/3) for the closed form, then settle
  // on the boundary with the same Gain the greedy evaluates.
  double guess = posts_ == 0
                     ? std::sqrt(1.0 / lambda + 0.25) - 1.5
                     : std::cbrt(a_ * a_ / (4.0 * lambda * lambda)) -
                           posts_ - 0.5;
  uint32_t x = guess > 0.0 ? static_cast<uint32_t>(
                                 std::min(guess, static_cast<double>(cap)))
                           : 0;
  while (x > 0 && Gain(x - 1) <= lambda) --x;
  while (x < cap && Gain(x) > lambda) ++x;
  return x;
}

double ProjectionCurve::CountBound(double mu, double* slope) const {
  if (posts_ == 0) {
    // The ramp's gain is 1/((x + 1)(x + 2)): above λ = μ^(-3/2) only for
    // x < √(μ^1.5 + ¼) − 3/2.
    double root = std::sqrt(mu * std::sqrt(mu) + 0.25);
    *slope = 0.75 * std::sqrt(mu) / root;
    return root - 0.5;
  }
  // Gain(x) = a·(1/√k − 1/√(k+1)) < a/(2·k^1.5) at k = k₀ + x, so a gain
  // above λ needs k < (a/2λ)^(2/3) = s·μ: fewer than s·μ − k₀ + 1 of them.
  double bound = s_ * mu - posts_ + 1.0;
  *slope = bound > 0.0 ? s_ : 0.0;
  return std::max(bound, 0.0);
}

std::vector<uint32_t> ThresholdPrefix(const std::vector<ProjectionCurve>& curves,
                                      uint32_t budget) {
  std::vector<uint32_t> start(curves.size(), 0);
  for (const ProjectionCurve& c : curves) {
    if (!c.Concave()) return start;
  }
  auto bound = [&curves](double mu, double* slope) {
    double sum = 0.0;
    *slope = 0.0;
    for (const ProjectionCurve& c : curves) {
      double d = 0.0;
      sum += c.CountBound(mu, &d);
      *slope += d;
    }
    return sum;
  };
  // Every count is 0 or below its bound, so a μ with Σ bounds ≤ budget + 1
  // keeps Σ counts ≤ budget. Newton steps on the increasing, piecewise
  // smooth Σ bounds, kept inside [lo, hi) by bisection (doubling while no
  // upper end is known), stop within one task of the budget; `lo` is the
  // largest μ seen that keeps the counts within budget.
  double lo = 0.0;
  double hi = HUGE_VAL;
  double mu = 1.0;
  for (int i = 0; i < 64; ++i) {
    double slope = 0.0;
    double f = bound(mu, &slope);
    if (f > budget + 1.0) {
      hi = mu;
    } else {
      lo = mu;
      if (f >= budget - 1.0) break;
    }
    double next = mu - (f - budget) / slope;
    if (!(next > lo && next < hi)) {
      next = hi == HUGE_VAL ? 2.0 * mu : 0.5 * (lo + hi);
    }
    mu = next;
  }
  if (lo == 0.0) return start;
  const double lambda = 1.0 / (lo * std::sqrt(lo));
  uint64_t total = 0;
  for (size_t r = 0; r < curves.size(); ++r) {
    start[r] = curves[r].GainsAbove(lambda, budget);
    total += start[r];
  }
  // Only a gain within rounding of λ could break the bound; a cold start
  // is exact anyway.
  if (total > budget) std::fill(start.begin(), start.end(), 0);
  return start;
}

EmpiricalGainEstimator::EmpiricalGainEstimator(double alpha,
                                               double tags_per_post)
    : alpha_(alpha), tags_per_post_(tags_per_post) {
  assert(alpha_ >= 0.0);
  assert(tags_per_post_ > 0.0);
}

SparseDist EmpiricalGainEstimator::EstimateTheta(
    const tagging::TagStats& stats) const {
  const SparseDist& rfd = stats.Rfd();
  if (rfd.empty()) return rfd;
  double total = static_cast<double>(stats.tag_occurrences());
  std::vector<SparseDist::Entry> entries;
  entries.reserve(rfd.size());
  for (const auto& [id, p] : rfd.entries()) {
    entries.emplace_back(id, SmoothedCount(p, total));
  }
  return SparseDist::FromWeights(std::move(entries));
}

ProjectionCurve EmpiricalGainEstimator::Curve(
    const tagging::TagStats& stats) const {
  const SparseDist& rfd = stats.Rfd();
  if (rfd.empty()) return ProjectionCurve();
  // θ̂ as EstimateTheta normalizes it, without materializing it.
  double total = static_cast<double>(stats.tag_occurrences());
  double weight = 0.0;
  for (const auto& [id, p] : rfd.entries()) weight += SmoothedCount(p, total);
  double a = 0.0;
  for (const auto& [id, p] : rfd.entries()) {
    double theta = SmoothedCount(p, total) / weight;
    a += 0.5 * std::sqrt(2.0 * theta * (1.0 - theta) /
                         (kPi * tags_per_post_));
  }
  return ProjectionCurve(a, stats.post_count());
}

double EmpiricalGainEstimator::MarginalGain(
    const tagging::TagStats& stats) const {
  uint32_t k = stats.post_count();
  if (k == 0) return 1.0;
  SparseDist theta = EstimateTheta(stats);
  double now = ExpectedQualityClosedForm(theta, k, tags_per_post_);
  double next = ExpectedQualityClosedForm(theta, k + 1, tags_per_post_);
  double g = next - now;
  return g < 0.0 ? 0.0 : g;
}

}  // namespace itag::quality
