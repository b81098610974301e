#ifndef ITAG_CROWD_PLATFORM_H_
#define ITAG_CROWD_PLATFORM_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "crowd/task.h"
#include "crowd/worker.h"

namespace itag::crowd {

/// The platform API surface iTag depends on (Fig. 1/2): post tasks, cancel
/// them, advance marketplace time collecting accept/submit events, and close
/// the loop with approve/reject decisions. MTurkSim and SocialNetSim
/// implement this; a live deployment would wire the same interface to the
/// real MTurk REST API.
class CrowdPlatform {
 public:
  virtual ~CrowdPlatform() = default;

  /// Platform display name ("mturk-sim", "social-sim").
  virtual std::string name() const = 0;

  /// Publishes a task; returns its platform id.
  virtual Result<TaskId> PostTask(const TaskSpec& spec) = 0;

  /// Withdraws an Open task (Accepted and later states cannot be recalled).
  /// A cancelled task is settled: the platform forgets it, so a second
  /// cancel answers NotFound.
  virtual Status CancelTask(TaskId id) = 0;

  /// Advances the marketplace to `now`, returning every accept/submit event
  /// that occurred, in time order. Idempotent for now <= previous now.
  virtual std::vector<TaskEvent> AdvanceTo(Tick now) = 0;

  /// Requester decision on a Submitted task (FailedPrecondition for a task
  /// still Open or Accepted). Updates worker approval stats; approval also
  /// releases payment (recorded by the platform's ledger integration, if
  /// any). The decision settles the task and the platform forgets it, so a
  /// second decision answers NotFound.
  virtual Status Approve(TaskId id) = 0;
  virtual Status Reject(TaskId id) = 0;

  /// State of a live task: Open, Accepted or Submitted. NotFound for an
  /// unknown task and for a settled (approved, rejected or cancelled) one.
  virtual Result<TaskState> GetTaskState(TaskId id) const = 0;
  virtual Result<WorkerStats> GetWorkerStats(WorkerId id) const = 0;

  /// Number of tasks currently Open (unaccepted).
  virtual size_t OpenTaskCount() const = 0;

  /// Number of tasks currently Submitted (awaiting decision).
  virtual size_t PendingDecisionCount() const = 0;

  /// The simulated worker pool. This interface models *simulated* platforms
  /// (the tagger model needs each worker's reliability to synthesize their
  /// submissions); a live MTurk connector would return an empty pool since
  /// real humans produce the work.
  virtual const std::vector<WorkerProfile>& worker_profiles() const = 0;
};

}  // namespace itag::crowd

#endif  // ITAG_CROWD_PLATFORM_H_
