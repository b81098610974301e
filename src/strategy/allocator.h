#ifndef ITAG_STRATEGY_ALLOCATOR_H_
#define ITAG_STRATEGY_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace itag::strategy {

/// Expected-quality curve: value(resource, extra_posts) -> E[q_i(c_i+extra)].
/// Curves must be nondecreasing in `extra`; the greedy solver is provably
/// optimal when they are additionally concave (diminishing returns), which
/// holds for every estimator in this library.
using QualityCurve = std::function<double(uint32_t resource, uint32_t extra)>;

/// Offline solution of the incentive-based tagging problem of §II:
/// choose x with Σx_i = B maximizing Σ_i E[q_i(c_i + x_i)].
///
/// GreedyAllocate assigns the B tasks one at a time, each to the resource
/// with the largest marginal gain E(i, x_i+1) - E(i, x_i), ties to the lower
/// id. O(B log n).
///
/// A nonempty `start` (one count per resource, Σstart ≤ B) resumes the
/// greedy from that state and runs only the remaining B − Σstart steps:
/// 2n + 2(B − Σstart) curve evaluations instead of 2n + 2B. The result is
/// the cold start's whenever `start` is a state the cold greedy passes
/// through, e.g. quality::ThresholdPrefix of concave curves.
std::vector<uint32_t> GreedyAllocate(size_t num_resources, uint32_t budget,
                                     const QualityCurve& curve,
                                     std::vector<uint32_t> start = {});

/// Exact dynamic program over (resource, budget) for cross-checking greedy
/// optimality on small instances. O(n * B^2) time, O(B) space per layer —
/// use only for n*B^2 within test budgets.
std::vector<uint32_t> ExactDpAllocate(size_t num_resources, uint32_t budget,
                                      const QualityCurve& curve);

/// Objective value Σ_i curve(i, x_i) of an assignment.
double AllocationValue(const std::vector<uint32_t>& x,
                       const QualityCurve& curve);

}  // namespace itag::strategy

#endif  // ITAG_STRATEGY_ALLOCATOR_H_
