#include "strategy/strategy.h"

#include "strategy/basic_strategies.h"
#include "strategy/greedy_strategies.h"

namespace itag::strategy {

void Strategy::ChooseResources(const StrategyContext& ctx, size_t k,
                               std::vector<tagging::ResourceId>* out) {
  for (size_t i = 0; i < k; ++i) {
    tagging::ResourceId id = Choose(ctx);
    if (id == tagging::kInvalidResource) break;
    out->push_back(id);
  }
}

size_t StrategyContext::EligibleCount() const {
  size_t n = 0;
  for (tagging::ResourceId id = 0; id < size(); ++id) {
    if (!stopped(id)) ++n;
  }
  return n;
}

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFreeChoice:
      return "FC";
    case StrategyKind::kFewestPostsFirst:
      return "FP";
    case StrategyKind::kMostUnstableFirst:
      return "MU";
    case StrategyKind::kHybridFpMu:
      return "FP-MU";
    case StrategyKind::kRandom:
      return "RAND";
    case StrategyKind::kRoundRobin:
      return "RR";
    case StrategyKind::kEstimatedGain:
      return "EG";
  }
  return "?";
}

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFreeChoice:
      return std::make_unique<FreeChoiceStrategy>();
    case StrategyKind::kFewestPostsFirst:
      return std::make_unique<FewestPostsFirstStrategy>();
    case StrategyKind::kMostUnstableFirst:
      return std::make_unique<MostUnstableFirstStrategy>();
    case StrategyKind::kHybridFpMu:
      return std::make_unique<HybridFpMuStrategy>();
    case StrategyKind::kRandom:
      return std::make_unique<RandomStrategy>();
    case StrategyKind::kRoundRobin:
      return std::make_unique<RoundRobinStrategy>();
    case StrategyKind::kEstimatedGain:
      return std::make_unique<EstimatedGainGreedyStrategy>();
  }
  return nullptr;
}

}  // namespace itag::strategy
