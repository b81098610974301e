#ifndef ITAG_ITAG_DIRTY_SET_H_
#define ITAG_ITAG_DIRTY_SET_H_

#include <unordered_set>
#include <utility>
#include <vector>

namespace itag::core {

/// The ids marked since the last Take, each once, in first-mark order.
/// Marking is O(1) amortized however many ids a call marks; the order makes
/// whatever is written from the ids (rows, publications) deterministic.
template <typename Id>
class DirtySet {
 public:
  void Mark(Id id) {
    if (seen_.insert(id).second) order_.push_back(id);
  }

  /// The marked ids in first-mark order; leaves the set empty. Fresh
  /// containers rather than clear(), so one large call does not leave its
  /// bucket array to every call after it.
  std::vector<Id> Take() {
    seen_ = std::unordered_set<Id>();
    return std::exchange(order_, {});
  }

 private:
  std::vector<Id> order_;
  std::unordered_set<Id> seen_;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_DIRTY_SET_H_
