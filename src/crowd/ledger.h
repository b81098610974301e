#ifndef ITAG_CROWD_LEDGER_H_
#define ITAG_CROWD_LEDGER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "crowd/task.h"

namespace itag::crowd {

/// Double-entry-lite payment ledger: approved tasks move money from the
/// project's spend account to the worker's balance (the "unit of incentive"
/// the Quality Manager releases on approval, §III-B). Rejected tasks cost
/// nothing — the provider-side approval workflow exists precisely so
/// providers only pay for accepted tags.
class PaymentLedger {
 public:
  /// Records an approved payment of `cents` from `project` to `worker`.
  void Pay(ProjectRef project, WorkerId worker, uint32_t cents);

  /// Total paid out by a project.
  uint64_t ProjectSpend(ProjectRef project) const;

  /// Total earned by a worker.
  uint64_t WorkerEarnings(WorkerId worker) const;

  /// Grand total of all payments.
  uint64_t TotalPaid() const { return total_; }

  /// Number of payment records.
  size_t PaymentCount() const { return count_; }

  /// Observer invoked after every Pay() with the payment just applied. The
  /// iTag layer hooks this to persist the updated balances, once per call
  /// (the crowd layer itself stays storage-agnostic). Pass nullptr to
  /// detach.
  using PaySink = std::function<void(ProjectRef, WorkerId, uint32_t)>;
  void set_pay_sink(PaySink sink) { sink_ = std::move(sink); }

  /// Migration entry points: move a project's spend account between
  /// ledgers wholesale (shard rebalancing). DropProjectSpend removes the
  /// account and returns its balance; AdoptProjectSpend installs it on the
  /// receiving ledger. Both keep total_ consistent so TotalPaid() summed
  /// across shards is invariant under migration; count_ stays put (payment
  /// *events* are history owned by the shard where they happened). Neither
  /// fires the sink — the caller persists the transfer itself.
  uint64_t DropProjectSpend(ProjectRef project) {
    auto it = project_spend_.find(project);
    if (it == project_spend_.end()) return 0;
    uint64_t cents = it->second;
    project_spend_.erase(it);
    total_ -= cents;
    return cents;
  }
  void AdoptProjectSpend(ProjectRef project, uint64_t cents) {
    if (cents == 0) return;
    project_spend_[project] += cents;
    total_ += cents;
  }

  /// Recovery entry points: reinstate balances read back from storage.
  /// Bypass the sink (the rows being restored already exist).
  void RestoreProjectSpend(ProjectRef project, uint64_t cents) {
    project_spend_[project] = cents;
  }
  void RestoreWorkerEarnings(WorkerId worker, uint64_t cents) {
    worker_earnings_[worker] = cents;
  }
  void RestoreTotals(uint64_t total, uint64_t count) {
    total_ = total;
    count_ = count;
  }

 private:
  std::unordered_map<ProjectRef, uint64_t> project_spend_;
  std::unordered_map<WorkerId, uint64_t> worker_earnings_;
  uint64_t total_ = 0;
  size_t count_ = 0;
  PaySink sink_;
};

}  // namespace itag::crowd

#endif  // ITAG_CROWD_LEDGER_H_
