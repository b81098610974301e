#include "itag/user_manager.h"

#include "itag/tables.h"

namespace itag::core {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;

UserManager::UserManager(storage::Database* db) : db_(db) {}

Status UserManager::Attach() {
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kProviders,
                                        SchemaBuilder()
                                            .Int("id")
                                            .Str("name")
                                            .Int("approvals")
                                            .Int("rejections")
                                            .Build()));
  ITAG_RETURN_IF_ERROR(db_->AddUniqueIndex(tables::kProviders, "id"));
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kTaggers,
                                        SchemaBuilder()
                                            .Int("id")
                                            .Str("name")
                                            .Int("submitted")
                                            .Int("approved")
                                            .Int("rejected")
                                            .Int("earned_cents")
                                            .Build()));
  ITAG_RETURN_IF_ERROR(db_->AddUniqueIndex(tables::kTaggers, "id"));

  // Reload any persisted rows (recovery path).
  providers_.clear();
  ITAG_RETURN_IF_ERROR(db_->GetTable(tables::kProviders)
      ->Scan([&](storage::RowId, const Row& row) {
        ProviderProfile p;
        p.id = static_cast<ProviderId>(row[0].as_int());
        p.name = row[1].as_string();
        p.approvals_given = static_cast<uint32_t>(row[2].as_int());
        p.rejections_given = static_cast<uint32_t>(row[3].as_int());
        if (p.id >= providers_.size()) providers_.resize(p.id + 1);
        providers_[p.id] = p;
        return true;
      }));
  taggers_.clear();
  ITAG_RETURN_IF_ERROR(db_->GetTable(tables::kTaggers)
      ->Scan([&](storage::RowId, const Row& row) {
        TaggerProfile t;
        t.id = static_cast<UserTaggerId>(row[0].as_int());
        t.name = row[1].as_string();
        t.submitted = static_cast<uint32_t>(row[2].as_int());
        t.approved = static_cast<uint32_t>(row[3].as_int());
        t.rejected = static_cast<uint32_t>(row[4].as_int());
        t.earned_cents = static_cast<uint64_t>(row[5].as_int());
        if (t.id >= taggers_.size()) taggers_.resize(t.id + 1);
        taggers_[t.id] = t;
        return true;
      }));
  return Status::OK();
}

Status UserManager::PersistProvider(const ProviderProfile& p) {
  Row row = {Value::Int(static_cast<int64_t>(p.id)), Value::Str(p.name),
             Value::Int(p.approvals_given), Value::Int(p.rejections_given)};
  return db_->Upsert(tables::kProviders, row).status();
}

Status UserManager::PersistTagger(const TaggerProfile& t) {
  Row row = {Value::Int(static_cast<int64_t>(t.id)),
             Value::Str(t.name),
             Value::Int(t.submitted),
             Value::Int(t.approved),
             Value::Int(t.rejected),
             Value::Int(static_cast<int64_t>(t.earned_cents))};
  return db_->Upsert(tables::kTaggers, row).status();
}

Result<ProviderId> UserManager::RegisterProvider(const std::string& name) {
  ProviderProfile p;
  p.id = providers_.size();
  p.name = name;
  ITAG_RETURN_IF_ERROR(PersistProvider(p));
  providers_.push_back(p);
  return p.id;
}

Result<UserTaggerId> UserManager::RegisterTagger(const std::string& name) {
  TaggerProfile t;
  t.id = taggers_.size();
  t.name = name;
  ITAG_RETURN_IF_ERROR(PersistTagger(t));
  taggers_.push_back(t);
  return t.id;
}

Result<ProviderProfile> UserManager::GetProvider(ProviderId id) const {
  if (id >= providers_.size()) {
    return Status::NotFound("provider " + std::to_string(id));
  }
  return providers_[id];
}

Result<TaggerProfile> UserManager::GetTagger(UserTaggerId id) const {
  if (id >= taggers_.size()) {
    return Status::NotFound("tagger " + std::to_string(id));
  }
  return taggers_[id];
}

Status UserManager::RecordSubmission(UserTaggerId tagger) {
  if (tagger >= taggers_.size()) {
    return Status::NotFound("tagger " + std::to_string(tagger));
  }
  ++taggers_[tagger].submitted;
  dirty_taggers_.Mark(tagger);
  return FlushUnlessBatching();
}

Status UserManager::RecordProviderDecision(ProviderId provider,
                                           bool approved) {
  if (provider >= providers_.size()) {
    return Status::NotFound("provider " + std::to_string(provider));
  }
  if (approved) {
    ++providers_[provider].approvals_given;
  } else {
    ++providers_[provider].rejections_given;
  }
  dirty_providers_.Mark(provider);
  return FlushUnlessBatching();
}

Status UserManager::RecordDecision(ProviderId provider, UserTaggerId tagger,
                                   bool approved, uint32_t pay_cents) {
  if (provider >= providers_.size()) {
    return Status::NotFound("provider " + std::to_string(provider));
  }
  if (tagger >= taggers_.size()) {
    return Status::NotFound("tagger " + std::to_string(tagger));
  }
  if (approved) {
    ++providers_[provider].approvals_given;
    ++taggers_[tagger].approved;
    taggers_[tagger].earned_cents += pay_cents;
  } else {
    ++providers_[provider].rejections_given;
    ++taggers_[tagger].rejected;
  }
  dirty_providers_.Mark(provider);
  dirty_taggers_.Mark(tagger);
  return FlushUnlessBatching();
}

Status UserManager::FlushDirty() {
  for (ProviderId id : dirty_providers_.Take()) {
    ITAG_RETURN_IF_ERROR(PersistProvider(providers_[id]));
  }
  for (UserTaggerId id : dirty_taggers_.Take()) {
    ITAG_RETURN_IF_ERROR(PersistTagger(taggers_[id]));
  }
  return Status::OK();
}

Status UserManager::FlushUnlessBatching() {
  return db_->batch_depth() > 0 ? Status::OK() : FlushDirty();
}

std::vector<TaggerProfile> UserManager::QualifiedTaggers(
    double min_rate, uint32_t min_decided) const {
  std::vector<TaggerProfile> out;
  for (const TaggerProfile& t : taggers_) {
    uint32_t decided = t.approved + t.rejected;
    if (decided >= min_decided && t.ApprovalRate() >= min_rate) {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace itag::core
