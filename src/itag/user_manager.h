#ifndef ITAG_ITAG_USER_MANAGER_H_
#define ITAG_ITAG_USER_MANAGER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "itag/dirty_set.h"
#include "itag/ids.h"
#include "storage/database.h"

namespace itag::core {

/// Profile + approval statistics of a provider. The provider approval rate
/// is the ratio of submissions the provider decided *positively* — the
/// paper's guard against providers who hold back approvals to delay paying
/// incentives (§III-A): taggers can filter projects by it.
struct ProviderProfile {
  ProviderId id = 0;
  std::string name;
  uint32_t approvals_given = 0;
  uint32_t rejections_given = 0;

  double ApprovalRate() const {
    uint32_t d = approvals_given + rejections_given;
    return d == 0 ? 1.0 : static_cast<double>(approvals_given) / d;
  }
};

/// Profile + approval statistics of a registered tagger. The tagger
/// approval rate is the ratio of their tags that providers approved — the
/// guard against consistently low-quality taggers.
struct TaggerProfile {
  UserTaggerId id = 0;
  std::string name;
  uint32_t submitted = 0;
  uint32_t approved = 0;
  uint32_t rejected = 0;
  uint64_t earned_cents = 0;

  double ApprovalRate() const {
    uint32_t d = approved + rejected;
    return d == 0 ? 1.0 : static_cast<double>(approved) / d;
  }
};

/// The User Manager of Fig. 2: registration and approval-rate tracking for
/// both sides of the market, persisted through the storage engine.
///
/// Registration writes its row at once. The Record* methods update the
/// profile in memory and mark its row dirty; with no batch open on the
/// database they write it at once too. Inside an open batch they only
/// mark, however often one call records against the same profile, and the
/// batch's owner calls FlushDirty before it commits, so each row is written
/// once per batch with its final value.
class UserManager {
 public:
  /// `db` must outlive the manager; tables are created on Attach.
  explicit UserManager(storage::Database* db);

  /// Creates the backing tables (idempotent) and loads existing rows.
  Status Attach();

  /// Registers a provider; names need not be unique.
  Result<ProviderId> RegisterProvider(const std::string& name);

  /// Registers a tagger.
  Result<UserTaggerId> RegisterTagger(const std::string& name);

  /// Profile lookups.
  Result<ProviderProfile> GetProvider(ProviderId id) const;
  Result<TaggerProfile> GetTagger(UserTaggerId id) const;

  /// Records a provider decision about a tagger's submission; pays
  /// `pay_cents` to the tagger when approved.
  Status RecordDecision(ProviderId provider, UserTaggerId tagger,
                        bool approved, uint32_t pay_cents);

  /// Records a provider decision about a *platform* worker's submission
  /// (the worker's own stats live on the platform; only the provider's
  /// approval rate moves here).
  Status RecordProviderDecision(ProviderId provider, bool approved);

  /// Marks a submission (pending decision) by a tagger.
  Status RecordSubmission(UserTaggerId tagger);

  /// Writes every row the Record* methods marked dirty, each once with its
  /// current value: providers, then taggers, each in first-mark order.
  Status FlushDirty();

  /// All taggers whose approval rate is at least `min_rate` and who have at
  /// least `min_decided` decided submissions — the reliable-workforce filter.
  std::vector<TaggerProfile> QualifiedTaggers(double min_rate,
                                              uint32_t min_decided) const;

  size_t provider_count() const { return providers_.size(); }
  size_t tagger_count() const { return taggers_.size(); }

 private:
  /// Writes one profile as the row of its id (inserted on registration,
  /// updated in place afterwards).
  Status PersistProvider(const ProviderProfile& p);
  Status PersistTagger(const TaggerProfile& t);
  /// The tail of every Record* method: FlushDirty unless a batch is open.
  Status FlushUnlessBatching();

  storage::Database* db_;
  std::vector<ProviderProfile> providers_;  // index = id
  std::vector<TaggerProfile> taggers_;      // index = id
  DirtySet<ProviderId> dirty_providers_;
  DirtySet<UserTaggerId> dirty_taggers_;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_USER_MANAGER_H_
