#ifndef ITAG_STRATEGY_ENGINE_H_
#define ITAG_STRATEGY_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "strategy/strategy.h"
#include "tagging/corpus.h"

namespace itag::strategy {

/// Configuration of an allocation run.
struct EngineOptions {
  /// Budget B: total number of tagging tasks the provider pays for.
  uint32_t budget = 0;

  /// Seed for the engine's own randomness (FC sampling, RAND baseline).
  uint64_t seed = 42;
};

/// The complete mutable state of a running AllocationEngine, for
/// persistence. Everything else the engine holds (strategy priority
/// structures) is a pure function of (corpus, stopped flags) rebuilt via
/// Strategy::Initialize on restore, so restoring this struct into a freshly
/// constructed engine over the same corpus resumes the run bit-exactly.
struct EngineState {
  uint32_t budget_remaining = 0;
  uint32_t tasks_assigned = 0;
  std::vector<uint32_t> assignment;
  /// Pending §III-A promotions, FIFO order.
  std::vector<tagging::ResourceId> promoted;
  /// Per-resource provider Stop flags (the StrategyContext view).
  std::vector<uint8_t> stopped;
  RngState rng;
};

/// The Algorithm-1 framework: as long as budget remains, CHOOSERESOURCES()
/// picks the next resource(s), tasks are assigned, and UPDATE() refreshes the
/// statistics after each completed task.
///
/// The engine owns the strategy, the per-resource assignment counters x_i,
/// and the provider's live controls from §III-A:
///  * Promote(r): r jumps the queue — guaranteed to be chosen by the next
///    CHOOSERESOURCES() step(s) before the strategy is consulted again;
///  * StopResource(r): r stops receiving tasks (its remaining budget flows
///    to other resources);
///  * SwitchStrategy(s): replaces the strategy mid-run, preserving budget
///    and statistics (the monitoring workflow of Fig. 5);
///  * AddBudget(b): tops the project up.
///
/// The engine deliberately does not talk to the crowdsourcing platform: the
/// caller (simulation driver or QualityManager) takes each chosen resource,
/// gets it tagged, appends the post to the corpus, and calls NotifyPost().
class AllocationEngine {
 public:
  /// `corpus` must outlive the engine. It may gain resources mid-run (an
  /// upload to a running project): the next call grows the engine's
  /// per-resource state to match, so the run allocates exactly like an
  /// engine rebuilt over the grown corpus by RestoreState.
  AllocationEngine(tagging::Corpus* corpus, std::unique_ptr<Strategy> strategy,
                   EngineOptions options);

  /// Chooses the resource for the next tagging task and debits one unit of
  /// budget. Order of precedence: pending promotions first, then the
  /// strategy. Fails with ResourceExhausted when the budget is spent and
  /// FailedPrecondition when no resource is eligible.
  Result<tagging::ResourceId> ChooseNext();

  /// Batched CHOOSERESOURCES(): chooses up to `k` resources in one pass,
  /// debiting one budget unit per pick. Promotions drain first (FIFO,
  /// skipping stopped resources), then the strategy's ChooseResources()
  /// fills the remainder. The result may be shorter than `k` when budget or
  /// eligibility runs out; it is sequence-equivalent to `k` repeated
  /// ChooseNext() calls under the same engine state. Fails with
  /// ResourceExhausted when the budget is already spent and
  /// FailedPrecondition when budget remains but nothing could be chosen.
  Result<std::vector<tagging::ResourceId>> ChooseBatch(size_t k);

  /// UPDATE() — the task on `id` completed and its post is already in the
  /// corpus; refreshes strategy state.
  void NotifyPost(tagging::ResourceId id);

  /// §III-A Promote button. The resource is enqueued for guaranteed
  /// selection (FIFO across repeated promotions). No-op on stopped
  /// resources.
  Status Promote(tagging::ResourceId id);

  /// §III-A Stop button; `stopped=false` re-enables the resource.
  Status SetStopped(tagging::ResourceId id, bool stopped);

  /// Replaces the allocation strategy mid-run.
  void SwitchStrategy(std::unique_ptr<Strategy> strategy);

  /// Adds `amount` tasks to the remaining budget, saturating at UINT32_MAX
  /// instead of wrapping. Returns the new remaining budget.
  uint32_t AddBudget(uint32_t amount);

  /// Remaining budget.
  uint32_t budget_remaining() const { return budget_remaining_; }

  /// Tasks assigned so far, total and per resource (the assignment vector x).
  uint32_t tasks_assigned() const { return tasks_assigned_; }
  const std::vector<uint32_t>& assignment() const { return assignment_; }

  /// Current strategy name.
  std::string strategy_name() const { return strategy_->name(); }

  /// The context (for tests and monitoring).
  const StrategyContext& context() const { return ctx_; }

  /// Snapshots the engine's mutable state for persistence.
  EngineState SaveState() const;

  /// Resumes a saved run: restores counters, promotions and stop flags,
  /// re-initializes the strategy against the (already recovered) corpus,
  /// then rewinds the RNG to the saved stream position so the next pick
  /// matches what the uninterrupted run would have drawn.
  void RestoreState(const EngineState& state);

 private:
  /// Grows the per-resource state to a corpus that gained resources since
  /// the last call (uploads to a running project).
  void FollowCorpus();
  /// Pops the first non-stopped promoted resource, or kInvalidResource.
  tagging::ResourceId PopPromotion();
  /// Records one debited pick.
  void Account(tagging::ResourceId id);

  tagging::Corpus* corpus_;
  std::unique_ptr<Strategy> strategy_;
  Rng rng_;
  StrategyContext ctx_;
  uint32_t budget_remaining_;
  uint32_t tasks_assigned_ = 0;
  std::vector<uint32_t> assignment_;
  std::deque<tagging::ResourceId> promoted_;
};

}  // namespace itag::strategy

#endif  // ITAG_STRATEGY_ENGINE_H_
