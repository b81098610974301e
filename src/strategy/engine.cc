#include "strategy/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace itag::strategy {

using tagging::kInvalidResource;
using tagging::ResourceId;

AllocationEngine::AllocationEngine(tagging::Corpus* corpus,
                                   std::unique_ptr<Strategy> strategy,
                                   EngineOptions options)
    : corpus_(corpus),
      strategy_(std::move(strategy)),
      rng_(options.seed),
      ctx_(corpus, &rng_),
      budget_remaining_(options.budget),
      assignment_(corpus->size(), 0) {
  assert(corpus_ != nullptr);
  assert(strategy_ != nullptr);
  strategy_->Initialize(ctx_);
}

ResourceId AllocationEngine::PopPromotion() {
  // FIFO drain, skipping any resource stopped since its promotion.
  while (!promoted_.empty()) {
    ResourceId cand = promoted_.front();
    promoted_.pop_front();
    if (!ctx_.stopped(cand)) return cand;
  }
  return kInvalidResource;
}

void AllocationEngine::FollowCorpus() {
  if (assignment_.size() == corpus_->size()) return;
  // Resources uploaded since the last call join unassigned and unstopped.
  // The strategy is re-seeded over the grown corpus exactly as RestoreState
  // seeds a recovered engine, and the RNG stream stays where it was, so the
  // live run keeps allocating like one rebuilt from storage.
  assignment_.resize(corpus_->size(), 0);
  const RngState rng = rng_.SaveState();
  strategy_->Initialize(ctx_);
  rng_.RestoreState(rng);
}

void AllocationEngine::Account(ResourceId id) {
  --budget_remaining_;
  ++tasks_assigned_;
  ++assignment_[id];
}

Result<ResourceId> AllocationEngine::ChooseNext() {
  if (budget_remaining_ == 0) {
    return Status::ResourceExhausted("budget spent");
  }
  FollowCorpus();
  ResourceId id = PopPromotion();
  if (id == kInvalidResource) {
    id = strategy_->Choose(ctx_);
  }
  if (id == kInvalidResource) {
    return Status::FailedPrecondition("no eligible resource");
  }
  Account(id);
  return id;
}

Result<std::vector<ResourceId>> AllocationEngine::ChooseBatch(size_t k) {
  // Zero repeated ChooseNext() calls succeed vacuously; so does a 0-batch.
  if (k == 0) return std::vector<ResourceId>{};
  if (budget_remaining_ == 0) {
    return Status::ResourceExhausted("budget spent");
  }
  FollowCorpus();
  size_t want = std::min<size_t>(k, budget_remaining_);
  std::vector<ResourceId> chosen;
  chosen.reserve(want);
  // Promotions keep their guaranteed-next position within the batch.
  while (chosen.size() < want) {
    ResourceId id = PopPromotion();
    if (id == kInvalidResource) break;
    chosen.push_back(id);
  }
  if (chosen.size() < want) {
    strategy_->ChooseResources(ctx_, want - chosen.size(), &chosen);
  }
  if (chosen.empty()) {
    return Status::FailedPrecondition("no eligible resource");
  }
  for (ResourceId id : chosen) Account(id);
  return chosen;
}

uint32_t AllocationEngine::AddBudget(uint32_t amount) {
  // Saturate instead of wrapping: a provider topping an (effectively
  // unbounded) budget up must never see it collapse to a small number.
  uint64_t total = static_cast<uint64_t>(budget_remaining_) + amount;
  budget_remaining_ = total > UINT32_MAX ? UINT32_MAX
                                         : static_cast<uint32_t>(total);
  return budget_remaining_;
}

void AllocationEngine::NotifyPost(ResourceId id) {
  FollowCorpus();
  strategy_->OnPost(ctx_, id);
}

Status AllocationEngine::Promote(ResourceId id) {
  if (!corpus_->IsValid(id)) {
    return Status::NotFound("resource " + std::to_string(id));
  }
  FollowCorpus();
  if (ctx_.stopped(id)) {
    return Status::FailedPrecondition("resource is stopped");
  }
  promoted_.push_back(id);
  return Status::OK();
}

Status AllocationEngine::SetStopped(ResourceId id, bool stopped) {
  if (!corpus_->IsValid(id)) {
    return Status::NotFound("resource " + std::to_string(id));
  }
  FollowCorpus();
  ctx_.set_stopped(id, stopped);
  // Re-seed strategy state so its priority structures drop/readmit the
  // resource. Strategies treat Initialize as idempotent w.r.t. the corpus.
  strategy_->Initialize(ctx_);
  return Status::OK();
}

void AllocationEngine::SwitchStrategy(std::unique_ptr<Strategy> strategy) {
  assert(strategy != nullptr);
  assignment_.resize(corpus_->size(), 0);
  strategy_ = std::move(strategy);
  strategy_->Initialize(ctx_);
}

EngineState AllocationEngine::SaveState() const {
  EngineState s;
  s.budget_remaining = budget_remaining_;
  s.tasks_assigned = tasks_assigned_;
  s.assignment = assignment_;
  s.assignment.resize(corpus_->size(), 0);
  s.promoted.assign(promoted_.begin(), promoted_.end());
  s.stopped.resize(corpus_->size(), 0);
  for (ResourceId r = 0; r < corpus_->size(); ++r) {
    s.stopped[r] = ctx_.stopped(r) ? 1 : 0;
  }
  s.rng = rng_.SaveState();
  return s;
}

void AllocationEngine::RestoreState(const EngineState& state) {
  budget_remaining_ = state.budget_remaining;
  tasks_assigned_ = state.tasks_assigned;
  assignment_ = state.assignment;
  assignment_.resize(corpus_->size(), 0);
  promoted_.assign(state.promoted.begin(), state.promoted.end());
  for (ResourceId r = 0; r < corpus_->size() && r < state.stopped.size();
       ++r) {
    ctx_.set_stopped(r, state.stopped[r] != 0);
  }
  strategy_->Initialize(ctx_);
  // Last, so a strategy whose Initialize consumes randomness cannot move
  // the restored stream off its saved position.
  rng_.RestoreState(state.rng);
}

}  // namespace itag::strategy
