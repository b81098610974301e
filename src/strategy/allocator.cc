#include "strategy/allocator.h"

#include <cassert>
#include <numeric>
#include <queue>
#include <tuple>

namespace itag::strategy {

std::vector<uint32_t> GreedyAllocate(size_t num_resources, uint32_t budget,
                                     const QualityCurve& curve,
                                     std::vector<uint32_t> start) {
  std::vector<uint32_t> x = start.empty()
                                ? std::vector<uint32_t>(num_resources, 0)
                                : std::move(start);
  assert(x.size() == num_resources);
  if (num_resources == 0) return x;
  const uint64_t assigned =
      std::accumulate(x.begin(), x.end(), uint64_t{0});
  assert(assigned <= budget);
  // Max-heap of (marginal gain, resource); ties by lower id for determinism.
  using Item = std::tuple<double, uint32_t>;
  auto cmp = [](const Item& a, const Item& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return std::get<0>(a) < std::get<0>(b);
    }
    return std::get<1>(a) > std::get<1>(b);
  };
  std::vector<Item> items;
  items.reserve(num_resources);
  for (uint32_t i = 0; i < num_resources; ++i) {
    items.emplace_back(curve(i, x[i] + 1) - curve(i, x[i]), i);
  }
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(
      cmp, std::move(items));
  for (uint64_t b = assigned; b < budget; ++b) {
    auto [gain, i] = heap.top();
    heap.pop();
    (void)gain;
    ++x[i];
    heap.emplace(curve(i, x[i] + 1) - curve(i, x[i]), i);
  }
  return x;
}

std::vector<uint32_t> ExactDpAllocate(size_t num_resources, uint32_t budget,
                                      const QualityCurve& curve) {
  std::vector<uint32_t> x(num_resources, 0);
  if (num_resources == 0 || budget == 0) return x;
  size_t n = num_resources;
  uint32_t B = budget;
  // dp[i][b]: best value using resources [0, i) and exactly b tasks
  // (monotone curves make "exactly" equivalent to "at most" at the optimum).
  std::vector<std::vector<double>> dp(n + 1,
                                      std::vector<double>(B + 1, 0.0));
  std::vector<std::vector<uint32_t>> pick(
      n, std::vector<uint32_t>(B + 1, 0));
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t b = 0; b <= B; ++b) {
      double best = -1.0;
      uint32_t best_x = 0;
      for (uint32_t xi = 0; xi <= b; ++xi) {
        double v = dp[i][b - xi] + curve(static_cast<uint32_t>(i), xi);
        if (v > best + 1e-15) {
          best = v;
          best_x = xi;
        }
      }
      dp[i + 1][b] = best;
      pick[i][b] = best_x;
    }
  }
  uint32_t b = B;
  for (size_t i = n; i > 0; --i) {
    x[i - 1] = pick[i - 1][b];
    b -= x[i - 1];
  }
  assert(b == 0);
  return x;
}

double AllocationValue(const std::vector<uint32_t>& x,
                       const QualityCurve& curve) {
  double v = 0.0;
  for (uint32_t i = 0; i < x.size(); ++i) {
    v += curve(i, x[i]);
  }
  return v;
}

}  // namespace itag::strategy
