#ifndef ITAG_CROWD_LEDGER_H_
#define ITAG_CROWD_LEDGER_H_

#include <cstddef>
#include <cstdint>

namespace itag::crowd {

/// Payment totals: each approved task releases its pay (the "unit of
/// incentive" the Quality Manager releases on approval, §III-B), and the
/// ledger counts the payments and sums their cents. Rejected tasks cost
/// nothing — the provider-side approval workflow exists precisely so
/// providers only pay for accepted tags. Who earned what is kept where it
/// is read: a tagger's profile carries its earned_cents, and a simulator's
/// worker stats count each worker's approvals.
class PaymentLedger {
 public:
  /// Records one approved payment of `cents`.
  void Pay(uint32_t cents) {
    total_ += cents;
    ++count_;
  }

  /// Grand total of all payments.
  uint64_t TotalPaid() const { return total_; }

  /// Number of payment records.
  size_t PaymentCount() const { return count_; }

  /// Recovery entry point: reinstates the totals read back from storage.
  void RestoreTotals(uint64_t total, uint64_t count) {
    total_ = total;
    count_ = count;
  }

 private:
  uint64_t total_ = 0;
  size_t count_ = 0;
};

}  // namespace itag::crowd

#endif  // ITAG_CROWD_LEDGER_H_
