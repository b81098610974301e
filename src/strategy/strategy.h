#ifndef ITAG_STRATEGY_STRATEGY_H_
#define ITAG_STRATEGY_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "tagging/corpus.h"

namespace itag::strategy {

/// Read-only view the allocation engine exposes to strategies when asking
/// them to choose the next resource (the CHOOSERESOURCES() hook of
/// Algorithm 1). Eligibility already folds in the provider's per-resource
/// Stop switches; Promote is handled by the engine before the strategy is
/// consulted.
class StrategyContext {
 public:
  StrategyContext(const tagging::Corpus* corpus, Rng* rng)
      : corpus_(corpus), rng_(rng), stopped_(corpus->size(), 0) {}

  const tagging::Corpus& corpus() const { return *corpus_; }
  Rng* rng() const { return rng_; }

  /// Number of resources n.
  size_t size() const { return corpus_->size(); }

  /// True when the provider stopped investment in `id` (§III-A Stop button).
  /// The flags follow corpus growth: a resource uploaded after the context
  /// was built starts eligible.
  bool stopped(tagging::ResourceId id) const {
    return id < stopped_.size() && stopped_[id] != 0;
  }
  void set_stopped(tagging::ResourceId id, bool v) {
    if (id >= stopped_.size()) stopped_.resize(id + 1, 0);
    stopped_[id] = v ? 1 : 0;
  }

  /// Count of resources still eligible for tasks.
  size_t EligibleCount() const;

 private:
  const tagging::Corpus* corpus_;
  Rng* rng_;
  std::vector<uint8_t> stopped_;
};

/// A task-allocation strategy: the pluggable CHOOSERESOURCES()/UPDATE() pair
/// of Algorithm 1. Strategies are stateful (they may maintain priority
/// structures) and are re-Initialized when attached to an engine or when the
/// provider switches strategies mid-run.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Short name used in reports ("FC", "FP", "MU", "FP-MU", ...).
  virtual std::string name() const = 0;

  /// (Re)builds internal state from the context's current corpus.
  virtual void Initialize(const StrategyContext& ctx) = 0;

  /// Chooses the next resource to assign a tagging task to, among eligible
  /// (non-stopped) resources. Returns kInvalidResource when nothing is
  /// eligible.
  virtual tagging::ResourceId Choose(const StrategyContext& ctx) = 0;

  /// UPDATE() hook: a completed task added one post to `id`; the strategy
  /// refreshes whatever priority state depends on it.
  virtual void OnPost(const StrategyContext& ctx, tagging::ResourceId id) = 0;

  /// Batched CHOOSERESOURCES(): appends up to `k` picks to `out` (Algorithm 1
  /// is explicitly plural — it may pick several resources per step). The
  /// default implementation calls Choose() k times and stops at the first
  /// kInvalidResource, so every strategy keeps its single-pick semantics.
  /// Overrides must stay sequence-equivalent to the default under the same
  /// RNG state (batched and repeated single calls are interchangeable); they
  /// exist purely to amortize per-pick work.
  virtual void ChooseResources(const StrategyContext& ctx, size_t k,
                               std::vector<tagging::ResourceId>* out);
};

/// Identifiers for the built-in strategies (Table I plus the baselines and
/// oracle used in the demo's comparison).
enum class StrategyKind {
  kFreeChoice,         ///< FC
  kFewestPostsFirst,   ///< FP
  kMostUnstableFirst,  ///< MU
  kHybridFpMu,         ///< FP-MU
  kRandom,             ///< uniform baseline
  kRoundRobin,         ///< cyclic baseline
  kEstimatedGain,      ///< greedy on data-driven projected gains
};

/// Canonical display name ("FC", "FP", ...).
const char* StrategyKindName(StrategyKind kind);

/// Factory covering every built-in strategy (oracle strategies have their
/// own constructors since they need ground-truth inputs).
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind);

}  // namespace itag::strategy

#endif  // ITAG_STRATEGY_STRATEGY_H_
