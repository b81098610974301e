#ifndef ITAG_ITAG_PROJECT_H_
#define ITAG_ITAG_PROJECT_H_

#include <string>

#include "itag/ids.h"
#include "strategy/strategy.h"
#include "tagging/resource.h"

namespace itag::core {

/// Project lifecycle (§III-A: providers create, monitor, pause to rethink
/// strategy, stop when quality suffices, and export).
enum class ProjectState : uint8_t {
  kDraft = 0,    ///< created, resources being uploaded
  kRunning = 1,  ///< strategy executing, tasks flowing
  kPaused = 2,   ///< temporarily halted (no new tasks)
  kStopped = 3,  ///< provider ended it (quality good enough / out of money)
};

/// Project state name ("draft", "running", ...).
inline const char* ProjectStateName(ProjectState s) {
  switch (s) {
    case ProjectState::kDraft:
      return "draft";
    case ProjectState::kRunning:
      return "running";
    case ProjectState::kPaused:
      return "paused";
    case ProjectState::kStopped:
      return "stopped";
  }
  return "?";
}

/// Which platform executes the project's tasks (Fig. 4's platform choice).
enum class PlatformChoice : uint8_t {
  kMTurk = 0,
  kSocialNetwork = 1,
  kAudience = 2,  ///< live human taggers through the tagger UI (§IV)
};

/// Platform choice name ("mturk", "social", "audience").
inline const char* PlatformChoiceName(PlatformChoice p) {
  switch (p) {
    case PlatformChoice::kMTurk:
      return "mturk";
    case PlatformChoice::kSocialNetwork:
      return "social";
    case PlatformChoice::kAudience:
      return "audience";
  }
  return "?";
}

/// Everything the Add Project screen (Fig. 4) collects.
struct ProjectSpec {
  std::string name;
  tagging::ResourceKind kind = tagging::ResourceKind::kWebUrl;
  std::string description;
  uint32_t budget = 100;      ///< tasks
  uint32_t pay_cents = 5;     ///< pay/task
  PlatformChoice platform = PlatformChoice::kMTurk;
  strategy::StrategyKind strategy = strategy::StrategyKind::kHybridFpMu;
};

/// The provider console's controls (§III-A): the lifecycle verbs, the
/// per-resource Promote / Stop / Resume buttons, a budget top-up and a
/// strategy switch.
enum class ControlAction : uint8_t {
  kStart,
  kPause,
  kStop,
  kPromoteResource,
  kStopResource,
  kResumeResource,
  kAddBudget,
  kSwitchStrategy,
};

/// One control applied to a project (QualityManager::Control).
struct ControlItem {
  ControlAction action = ControlAction::kStart;
  /// For the per-resource verbs.
  tagging::ResourceId resource = tagging::kInvalidResource;
  /// For kAddBudget.
  uint32_t budget_tasks = 0;
  /// For kSwitchStrategy.
  strategy::StrategyKind strategy = strategy::StrategyKind::kHybridFpMu;
};

/// Snapshot of a project row for listings (Fig. 3's main provider UI).
struct ProjectInfo {
  ProjectId id = 0;
  ProviderId provider = 0;
  ProjectSpec spec;
  ProjectState state = ProjectState::kDraft;
  uint32_t budget_remaining = 0;
  uint32_t tasks_completed = 0;
  size_t num_resources = 0;
  double quality = 0.0;            ///< current observable quality q(R,k)
  double projected_gain = 0.0;     ///< estimated quality gain of remaining budget
};

}  // namespace itag::core

#endif  // ITAG_ITAG_PROJECT_H_
