#ifndef ITAG_CROWD_SIM_PLATFORM_BASE_H_
#define ITAG_CROWD_SIM_PLATFORM_BASE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/binio.h"
#include "crowd/ledger.h"
#include "crowd/platform.h"

namespace itag::crowd {

/// Shared bookkeeping for the discrete-event platform simulators: task
/// records and lifecycle transitions, worker approval statistics, and the
/// payment hookup. Subclasses implement only the marketplace dynamics
/// (AdvanceTo) that decide which worker takes which task when.
class SimPlatformBase : public CrowdPlatform {
 public:
  /// `workers` seeds the pool; `ledger` (optional, may be null) receives a
  /// payment on every approval.
  SimPlatformBase(std::vector<WorkerProfile> workers, PaymentLedger* ledger);

  Result<TaskId> PostTask(const TaskSpec& spec) override;
  Status CancelTask(TaskId id) override;
  Status Approve(TaskId id) override;
  Status Reject(TaskId id) override;
  Result<TaskState> GetTaskState(TaskId id) const override;
  Result<WorkerStats> GetWorkerStats(WorkerId id) const override;
  size_t OpenTaskCount() const override { return open_.size(); }
  size_t PendingDecisionCount() const override { return pending_; }

  /// The worker pool (tests and the tagger model key off profiles).
  const std::vector<WorkerProfile>& worker_profiles() const override {
    return workers_;
  }

  /// Serializes the simulator's complete mutable state (the records of the
  /// live tasks, worker statistics, clock, id counter, plus whatever the
  /// subclass adds via EncodeExtra — RNG stream, exposure sets). Settled
  /// tasks are erased when they settle, so the blob grows with the tasks in
  /// flight, not with every task ever posted. The worker *pool* is not
  /// included: it is regenerated from the seed at construction, so a blob
  /// restored into an identically-configured simulator resumes the
  /// marketplace bit-exactly. Used by the persistence layer.
  std::string EncodeState() const;

  /// Restores a blob produced by EncodeState on an identically-configured
  /// simulator (same worker pool). Records of settled tasks, which blobs
  /// written before settled tasks were erased still carry, are dropped.
  /// False on malformed input, in which case the simulator state is
  /// unspecified and must be discarded.
  bool RestoreState(const std::string& blob);

  /// Sets the clock to `now` and nothing else: no task, worker or RNG
  /// draw moves. The persistence layer writes a blob only when the state
  /// after its leading clock changed, so after a restore it sets the clock
  /// from its own, which every tick advances.
  void SetClock(Tick now) { now_ = now; }

 protected:
  /// Subclass state riding the EncodeState blob (RNG position, exposure).
  virtual void EncodeExtra(ByteWriter* w) const = 0;
  virtual bool DecodeExtra(ByteReader* r) = 0;
  struct TaskRec {
    TaskSpec spec;
    TaskState state = TaskState::kOpen;
    WorkerId worker = kNoWorker;
    Tick accepted_at = 0;
    Tick completes_at = 0;
  };

  /// Marks `id` accepted by `worker` at `now`, finishing at `completes`.
  void MarkAccepted(TaskId id, WorkerId worker, Tick now, Tick completes,
                    std::vector<TaskEvent>* events);

  /// Marks `id` submitted at `now`.
  void MarkSubmitted(TaskId id, Tick now, std::vector<TaskEvent>* events);

  /// What an accepted task's worker is doing right now. Shared by both
  /// marketplace simulators; fully derivable from `tasks_` (RestoreState
  /// rebuilds it via RebuildWorkerState).
  struct WorkerState {
    bool busy = false;
    TaskId task = 0;
    Tick busy_until = 0;
  };

  /// Recomputes `state_` (and `open_`, `pending_`) from `tasks_`.
  void RebuildWorkerState();

  /// Live (open, accepted or submitted) tasks; a task's record is erased
  /// once it is approved, rejected or cancelled.
  std::map<TaskId, TaskRec> tasks_;
  /// Open tasks ordered by (pay descending, id ascending): the order
  /// pay-sensitive workers browse in.
  std::set<std::pair<int64_t, TaskId>> open_;
  std::vector<WorkerProfile> workers_;
  std::vector<WorkerStats> stats_;
  std::vector<WorkerState> state_;
  PaymentLedger* ledger_;
  TaskId next_task_ = 1;
  size_t pending_ = 0;
  Tick now_ = 0;
};

}  // namespace itag::crowd

#endif  // ITAG_CROWD_SIM_PLATFORM_BASE_H_
