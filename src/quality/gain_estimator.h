#ifndef ITAG_QUALITY_GAIN_ESTIMATOR_H_
#define ITAG_QUALITY_GAIN_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/distribution.h"
#include "common/random.h"
#include "tagging/tag_stats.h"

namespace itag::quality {

/// Expected ground-truth quality E[q*(k)] = 1 - E[TV(rfd_k, θ)] for a
/// resource whose posts draw `tags_per_post` tags i.i.d. from θ, computed by
/// the folded-normal closed form:
///
///   E|p̂_j - θ_j| ≈ sqrt(2 θ_j (1-θ_j) / (π N)),   N = k * tags_per_post,
///   E[TV] = 0.5 Σ_j E|p̂_j - θ_j|.
///
/// The approximation is the standard CLT estimate, accurate for N θ_j ≳ 1
/// and conservative below; it gives smooth, strictly concave quality curves.
/// Returns 0 for k == 0.
double ExpectedQualityClosedForm(const SparseDist& theta, uint32_t k,
                                 double tags_per_post);

/// Monte-Carlo estimate of the same quantity: simulates `trials` independent
/// histories of k posts with `tags_per_post` tags drawn from θ (alias
/// sampling) and averages 1 - TV(rfd, θ). Used in tests to validate the
/// closed form and by the oracle when exactness matters more than speed.
double ExpectedQualityMonteCarlo(const SparseDist& theta, uint32_t k,
                                 uint32_t tags_per_post, uint32_t trials,
                                 Rng* rng);

/// Oracle gain curves for the optimal-allocation comparison: the simulator
/// hands this estimator every resource's true θ_i; it produces the expected
/// marginal quality gain of the x-th additional task for each resource.
/// Gains are precomputed lazily and cached per resource.
class OracleGainEstimator {
 public:
  /// `truth[i]` is θ of resource i; `initial_posts[i]` is c_i;
  /// `tags_per_post` the mean tags a task contributes.
  OracleGainEstimator(std::vector<SparseDist> truth,
                      std::vector<uint32_t> initial_posts,
                      double tags_per_post);

  /// Expected quality of resource i after c_i + extra posts.
  double ExpectedQuality(uint32_t resource, uint32_t extra) const;

  /// Marginal gain of granting resource i its (extra+1)-th additional task:
  /// ExpectedQuality(i, extra+1) - ExpectedQuality(i, extra).
  double MarginalGain(uint32_t resource, uint32_t extra) const;

  size_t num_resources() const { return truth_.size(); }
  uint32_t initial_posts(uint32_t resource) const {
    return initial_posts_[resource];
  }

 private:
  std::vector<SparseDist> truth_;
  std::vector<uint32_t> initial_posts_;
  double tags_per_post_;
};

/// One resource's projected quality q(x) after x more posts, in the O(1)
/// form the projected-gain plan evaluates thousands of times. With k₀
/// posts so far:
///
///   k₀ = 0:  q(0) = 0, q(x) = 1 − 1/(1 + x)     (optimistic ramp)
///   k₀ ≥ 1:  q(x) = 1 − min(a/√(k₀ + x), 1),
///            a = Σⱼ ½·√(2θ̂ⱼ(1 − θ̂ⱼ)/(π·t)),
///
/// which is ExpectedQualityClosedForm(θ̂, k₀ + x, t) with the θ̂ sum taken
/// out of the per-point work (the two agree up to rounding). The marginal
/// gains fall as x grows unless the min(·, 1) clamp binds at k₀, which
/// takes a ≥ √k₀: about 20 distinct tags per post.
class ProjectionCurve {
 public:
  /// The ramp of a resource with no posts.
  ProjectionCurve() = default;
  /// The closed form with coefficient `a` after `posts` ≥ 1 posts.
  ProjectionCurve(double a, uint32_t posts);

  double Quality(uint32_t extra) const;

  /// Marginal gain of one more post: Quality(extra + 1) − Quality(extra).
  double Gain(uint32_t extra) const {
    return Quality(extra + 1) - Quality(extra);
  }

  /// True when Gain is nonincreasing from extra = 0 (the clamp never binds).
  bool Concave() const;

  /// The smallest x ≤ cap with Gain(x) ≤ λ (λ > 0), else `cap`. On a concave
  /// curve that is the number of gains above λ.
  uint32_t GainsAbove(double lambda, uint32_t cap) const;

  /// Relaxation of GainsAbove(λ) in μ = λ^(-2/3): nondecreasing in μ, and
  /// GainsAbove(λ) is either 0 or below it. `slope` receives d/dμ.
  double CountBound(double mu, double* slope) const;

 private:
  double a_ = 0.0;
  double s_ = 0.0;  // (a/2)^(2/3)
  uint32_t posts_ = 0;
};

/// Warm start for strategy::GreedyAllocate over `curves`: x with
/// Σx ≤ budget where x_r counts r's gains above one threshold λ. On concave
/// curves every gain above λ ranks ahead of every other gain in the greedy's
/// (gain descending, id ascending) order, so x is the greedy's own state
/// after Σx steps. λ solves the continuous relaxation Σ CountBound = budget
/// to within one task, which leaves Σx at most 1.5·n + 1 short of the
/// budget when any gain is positive. All zeros (a cold start) when some
/// curve is not concave.
std::vector<uint32_t> ThresholdPrefix(const std::vector<ProjectionCurve>& curves,
                                      uint32_t budget);

/// Data-driven gain estimator available to the live system (no ground
/// truth): plugs the observed tag counts into a Dirichlet-smoothed point
/// estimate θ̂ (counts + α over total + α·m) and applies the same closed
/// form. This powers the EstimatedGainGreedy strategy and the projected
/// quality gains shown to providers.
class EmpiricalGainEstimator {
 public:
  /// `alpha` is the Dirichlet smoothing pseudo-count per observed tag;
  /// `tags_per_post` the assumed mean tags per future post.
  explicit EmpiricalGainEstimator(double alpha = 0.5,
                                  double tags_per_post = 3.0);

  /// Expected marginal quality gain of one more post for a resource with the
  /// given statistics. Resources with no posts yet get the maximal gain 1.0
  /// (cold start: first evidence is always worth the most).
  double MarginalGain(const tagging::TagStats& stats) const;

  /// θ̂ reconstructed from observed counts (exposed for tests).
  SparseDist EstimateTheta(const tagging::TagStats& stats) const;

  /// The projection curve of a resource with these statistics: the closed
  /// form over θ̂, or the ramp while no tag has been observed.
  ProjectionCurve Curve(const tagging::TagStats& stats) const;

 private:
  /// Dirichlet-smoothed count of a tag with relative frequency `p` among
  /// `occurrences` observed tags: θ̂ is these counts normalized.
  double SmoothedCount(double p, double occurrences) const {
    return p * occurrences + alpha_;
  }

  double alpha_;
  double tags_per_post_;
};

}  // namespace itag::quality

#endif  // ITAG_QUALITY_GAIN_ESTIMATOR_H_
