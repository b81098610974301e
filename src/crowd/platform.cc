#include "crowd/sim_platform_base.h"

namespace itag::crowd {

SimPlatformBase::SimPlatformBase(std::vector<WorkerProfile> workers,
                                 PaymentLedger* ledger)
    : workers_(std::move(workers)),
      stats_(workers_.size()),
      state_(workers_.size()),
      ledger_(ledger) {}

Result<TaskId> SimPlatformBase::PostTask(const TaskSpec& spec) {
  TaskId id = next_task_++;
  TaskRec rec;
  rec.spec = spec;
  tasks_.emplace(id, rec);
  open_.emplace(-static_cast<int64_t>(spec.pay_cents), id);
  return id;
}

Status SimPlatformBase::CancelTask(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return Status::NotFound("task " + std::to_string(id));
  if (it->second.state != TaskState::kOpen) {
    return Status::FailedPrecondition(
        std::string("task is ") + TaskStateName(it->second.state));
  }
  open_.erase({-static_cast<int64_t>(it->second.spec.pay_cents), id});
  tasks_.erase(it);
  return Status::OK();
}

Status SimPlatformBase::Approve(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return Status::NotFound("task " + std::to_string(id));
  TaskRec& rec = it->second;
  if (rec.state != TaskState::kSubmitted) {
    return Status::FailedPrecondition(
        std::string("task is ") + TaskStateName(rec.state));
  }
  --pending_;
  if (rec.worker < stats_.size()) ++stats_[rec.worker].approved;
  if (ledger_ != nullptr) ledger_->Pay(rec.spec.pay_cents);
  tasks_.erase(it);
  return Status::OK();
}

Status SimPlatformBase::Reject(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return Status::NotFound("task " + std::to_string(id));
  TaskRec& rec = it->second;
  if (rec.state != TaskState::kSubmitted) {
    return Status::FailedPrecondition(
        std::string("task is ") + TaskStateName(rec.state));
  }
  --pending_;
  if (rec.worker < stats_.size()) ++stats_[rec.worker].rejected;
  tasks_.erase(it);
  return Status::OK();
}

Result<TaskState> SimPlatformBase::GetTaskState(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return Status::NotFound("task " + std::to_string(id));
  return it->second.state;
}

Result<WorkerStats> SimPlatformBase::GetWorkerStats(WorkerId id) const {
  if (id >= stats_.size()) {
    return Status::NotFound("worker " + std::to_string(id));
  }
  return stats_[id];
}

void SimPlatformBase::MarkAccepted(TaskId id, WorkerId worker, Tick now,
                                   Tick completes,
                                   std::vector<TaskEvent>* events) {
  TaskRec& rec = tasks_.at(id);
  open_.erase({-static_cast<int64_t>(rec.spec.pay_cents), id});
  rec.state = TaskState::kAccepted;
  rec.worker = worker;
  rec.accepted_at = now;
  rec.completes_at = completes;
  events->push_back({TaskEventKind::kAccepted, now, id, worker});
}

void SimPlatformBase::MarkSubmitted(TaskId id, Tick now,
                                    std::vector<TaskEvent>* events) {
  TaskRec& rec = tasks_.at(id);
  rec.state = TaskState::kSubmitted;
  ++pending_;
  if (rec.worker < stats_.size()) ++stats_[rec.worker].submitted;
  events->push_back({TaskEventKind::kSubmitted, now, id, rec.worker});
}

// ------------------------------------------------------------- persistence

std::string SimPlatformBase::EncodeState() const {
  ByteWriter w;
  w.I64(now_);
  w.U64(next_task_);
  w.U32(static_cast<uint32_t>(tasks_.size()));
  for (const auto& [id, rec] : tasks_) {
    w.U64(id);
    w.U64(rec.spec.project);
    w.U32(rec.spec.resource);
    w.U32(rec.spec.pay_cents);
    w.F64(rec.spec.requester_approval_rate);
    w.U8(static_cast<uint8_t>(rec.state));
    w.U32(rec.worker);
    w.I64(rec.accepted_at);
    w.I64(rec.completes_at);
  }
  w.U32(static_cast<uint32_t>(stats_.size()));
  for (const WorkerStats& s : stats_) {
    w.U32(s.submitted);
    w.U32(s.approved);
    w.U32(s.rejected);
  }
  EncodeExtra(&w);
  return w.Take();
}

bool SimPlatformBase::RestoreState(const std::string& blob) {
  ByteReader r(blob);
  int64_t now;
  uint64_t next_task;
  uint32_t n_tasks;
  if (!r.I64(&now) || !r.U64(&next_task) || !r.U32(&n_tasks)) return false;
  std::map<TaskId, TaskRec> tasks;
  for (uint32_t i = 0; i < n_tasks; ++i) {
    TaskId id;
    TaskRec rec;
    uint8_t state;
    if (!r.U64(&id) || !r.U64(&rec.spec.project) ||
        !r.U32(&rec.spec.resource) || !r.U32(&rec.spec.pay_cents) ||
        !r.F64(&rec.spec.requester_approval_rate) || !r.U8(&state) ||
        state > static_cast<uint8_t>(TaskState::kCancelled) ||
        !r.U32(&rec.worker) || !r.I64(&rec.accepted_at) ||
        !r.I64(&rec.completes_at)) {
      return false;
    }
    rec.state = static_cast<TaskState>(state);
    // Blobs written before settled tasks were erased still list them.
    if (rec.state <= TaskState::kSubmitted) tasks.emplace(id, rec);
  }
  uint32_t n_stats;
  if (!r.U32(&n_stats) || n_stats != stats_.size()) return false;
  std::vector<WorkerStats> stats(n_stats);
  for (WorkerStats& s : stats) {
    if (!r.U32(&s.submitted) || !r.U32(&s.approved) || !r.U32(&s.rejected)) {
      return false;
    }
  }
  if (!DecodeExtra(&r) || !r.AtEnd()) return false;
  now_ = now;
  next_task_ = next_task;
  tasks_ = std::move(tasks);
  stats_ = std::move(stats);
  RebuildWorkerState();
  return true;
}

void SimPlatformBase::RebuildWorkerState() {
  open_.clear();
  pending_ = 0;
  state_.assign(workers_.size(), WorkerState{});
  for (const auto& [id, rec] : tasks_) {
    switch (rec.state) {
      case TaskState::kOpen:
        open_.emplace(-static_cast<int64_t>(rec.spec.pay_cents), id);
        break;
      case TaskState::kAccepted:
        if (rec.worker < state_.size()) {
          state_[rec.worker] = {true, id, rec.completes_at};
        }
        break;
      case TaskState::kSubmitted:
        ++pending_;
        break;
      case TaskState::kApproved:  // settled tasks are erased
      case TaskState::kRejected:
      case TaskState::kCancelled:
        break;
    }
  }
}

}  // namespace itag::crowd
