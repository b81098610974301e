#include "itag/resource_manager.h"

#include <algorithm>

#include "common/binio.h"
#include "common/string_util.h"
#include "itag/tables.h"
#include "tagging/post.h"

namespace itag::core {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;

ResourceManager::ResourceManager(storage::Database* db) : db_(db) {}

Status ResourceManager::Attach() {
  ITAG_RETURN_IF_ERROR(db_->EnsureTable(tables::kResources,
                                        SchemaBuilder()
                                            .Int("project")
                                            .Int("resource")
                                            .Str("kind")
                                            .Str("uri")
                                            .Str("description")
                                            .Build()));
  // Tag-id assignment order is corpus state: the dict table records every
  // intern in order so recovery reassigns identical ids.
  return db_->EnsureTable(tables::kDict, SchemaBuilder()
                                             .Int("project")
                                             .Int("tag")
                                             .Str("text")
                                             .Build());
}

void ResourceManager::ArmDictHook(ProjectId project,
                                  tagging::Corpus* corpus) {
  storage::Database* db = db_;
  corpus->dict().set_on_new_tag(
      [db, project](tagging::TagId id, const std::string& text) {
        (void)db->Insert(tables::kDict,
                         {Value::Int(static_cast<int64_t>(project)),
                          Value::Int(static_cast<int64_t>(id)),
                          Value::Str(text)});
      });
}

Status ResourceManager::CreateProjectCorpus(ProjectId project) {
  if (corpora_.count(project)) {
    return Status::AlreadyExists("corpus for project " +
                                 std::to_string(project));
  }
  auto corpus = std::make_unique<tagging::Corpus>();
  ArmDictHook(project, corpus.get());
  corpora_.emplace(project, std::move(corpus));
  return Status::OK();
}

Status ResourceManager::RestoreCorpora(const std::vector<ProjectId>& projects) {
  std::unordered_map<ProjectId, std::unique_ptr<tagging::Corpus>> restored;
  for (ProjectId project : projects) {
    if (corpora_.count(project) || restored.count(project)) {
      return Status::AlreadyExists("corpus for project " +
                                   std::to_string(project));
    }
    restored.emplace(project, std::make_unique<tagging::Corpus>());
  }
  // Visits `table` once, in row-id order, handing each row of a restored
  // project to `apply`; a row of any other project id is skipped unread.
  // No table may be written during a scan, which is why the dict hooks are
  // armed only after the last one.
  auto scan = [&](const char* table, auto apply) -> Status {
    const storage::Table* t = db_->GetTable(table);
    if (t == nullptr) return Status::OK();
    Status applied = Status::OK();
    Status scanned = t->Scan([&](storage::RowId, const Row& row) {
      auto it = restored.find(static_cast<ProjectId>(row[0].as_int()));
      if (it == restored.end()) return true;
      applied = apply(it->first, it->second.get(), row);
      return applied.ok();
    });
    return applied.ok() ? scanned : applied;
  };

  // 1. Dictionaries, in intern order.
  ITAG_RETURN_IF_ERROR(scan(tables::kDict, [](ProjectId project,
                                              tagging::Corpus* corpus,
                                              const Row& row) {
    tagging::TagId want = static_cast<tagging::TagId>(row[1].as_int());
    tagging::TagId got = corpus->dict().Intern(row[2].as_string());
    if (got == want) return Status::OK();
    return Status::Corruption(
        "dict replay diverged for project " + std::to_string(project) +
        ": tag '" + row[2].as_string() + "' got id " + std::to_string(got) +
        ", expected " + std::to_string(want));
  }));

  // 2. Resources, in upload order.
  ITAG_RETURN_IF_ERROR(scan(tables::kResources, [](ProjectId project,
                                                   tagging::Corpus* corpus,
                                                   const Row& row) {
    tagging::ResourceId want =
        static_cast<tagging::ResourceId>(row[1].as_int());
    tagging::ResourceId got =
        corpus->AddResource(tagging::ParseResourceKind(row[2].as_string()),
                            row[3].as_string(), row[4].as_string());
    if (got == want) return Status::OK();
    return Status::Corruption("resource replay diverged for project " +
                              std::to_string(project));
  }));

  // 3. The post log (imports and approved submissions interleaved in their
  // original order), folded back into per-resource statistics.
  ITAG_RETURN_IF_ERROR(scan(tables::kPosts, [](ProjectId project,
                                               tagging::Corpus* corpus,
                                               const Row& row) {
    tagging::Post post;
    post.tagger = static_cast<tagging::TaggerId>(row[2].as_int());
    post.time = row[3].as_int();
    ByteReader r(row[4].as_string());
    std::vector<std::string> texts;
    if (!r.StrVec(&texts) || !r.AtEnd()) {
      return Status::Corruption("malformed post tags for project " +
                                std::to_string(project));
    }
    for (const std::string& text : texts) {
      post.tags.push_back(corpus->dict().Intern(text));
    }
    return corpus->AddPost(static_cast<tagging::ResourceId>(row[1].as_int()),
                           post);
  }));

  for (auto& [project, corpus] : restored) {
    ArmDictHook(project, corpus.get());
    corpora_.emplace(project, std::move(corpus));
  }
  return Status::OK();
}

tagging::Corpus* ResourceManager::GetCorpus(ProjectId project) {
  auto it = corpora_.find(project);
  return it == corpora_.end() ? nullptr : it->second.get();
}

const tagging::Corpus* ResourceManager::GetCorpus(ProjectId project) const {
  auto it = corpora_.find(project);
  return it == corpora_.end() ? nullptr : it->second.get();
}

Result<tagging::ResourceId> ResourceManager::UploadResource(
    ProjectId project, tagging::ResourceKind kind, const std::string& uri,
    const std::string& description) {
  tagging::Corpus* corpus = GetCorpus(project);
  if (corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  tagging::ResourceId id = corpus->AddResource(kind, uri, description);
  Row row = {Value::Int(static_cast<int64_t>(project)),
             Value::Int(static_cast<int64_t>(id)),
             Value::Str(tagging::ResourceKindName(kind)), Value::Str(uri),
             Value::Str(description)};
  ITAG_ASSIGN_OR_RETURN(storage::RowId rid,
                        db_->Insert(tables::kResources, row));
  (void)rid;
  return id;
}

Status ResourceManager::ImportPost(ProjectId project,
                                   tagging::ResourceId resource,
                                   const std::vector<std::string>& raw_tags) {
  tagging::Corpus* corpus = GetCorpus(project);
  if (corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  tagging::Post post;
  post.tagger = tagging::kProviderImport;
  for (const std::string& raw : raw_tags) {
    tagging::TagId id = corpus->dict().Intern(raw);
    if (id == tagging::kInvalidTag) continue;
    bool dup = false;
    for (tagging::TagId existing : post.tags) {
      if (existing == id) {
        dup = true;
        break;
      }
    }
    if (!dup) post.tags.push_back(id);
  }
  if (post.tags.empty()) {
    return Status::InvalidArgument("post has no usable tags");
  }
  // Imports ride the same post log as approved submissions (they are the
  // provider-era posts of Fig. 4), so recovery replays them in place.
  ByteWriter tags;
  std::vector<std::string> texts;
  texts.reserve(post.tags.size());
  for (tagging::TagId t : post.tags) texts.push_back(corpus->dict().Text(t));
  tags.StrVec(texts);
  Row row = {Value::Int(static_cast<int64_t>(project)),
             Value::Int(static_cast<int64_t>(resource)),
             Value::Int(static_cast<int64_t>(post.tagger)),
             Value::Int(post.time), Value::Str(tags.Take())};
  ITAG_RETURN_IF_ERROR(corpus->AddPost(resource, post));
  ITAG_ASSIGN_OR_RETURN(storage::RowId rid, db_->Insert(tables::kPosts, row));
  (void)rid;
  return Status::OK();
}

size_t ResourceManager::ResourceCount(ProjectId project) const {
  const tagging::Corpus* corpus = GetCorpus(project);
  return corpus == nullptr ? 0 : corpus->size();
}

Result<ResourceManager::CorpusTransfer> ResourceManager::ExtractCorpus(
    ProjectId project) const {
  const tagging::Corpus* corpus = GetCorpus(project);
  if (corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(project));
  }
  CorpusTransfer out;
  // Dictionary in id order. Taking it wholesale (not just tags reachable
  // from posts) preserves intern order for tags that were uploaded but
  // never landed in an approved post — AdoptCorpus must reassign the same
  // ids or the engine's assignment vectors would shift meaning.
  out.dict.reserve(corpus->dict().size());
  for (tagging::TagId t = 0; t < corpus->dict().size(); ++t) {
    out.dict.push_back(corpus->dict().Text(t));
  }
  out.resources.reserve(corpus->size());
  for (tagging::ResourceId r = 0; r < corpus->size(); ++r) {
    const tagging::Resource& res = corpus->resource(r);
    out.resources.push_back({res.kind, res.uri, res.description});
  }
  // The corpus keeps statistics only; each post lives once, as its row of
  // the post log, which holds its tags as texts already. One scan visits
  // the project's rows in row-id order, the order they were written (it
  // decodes only the project column of another project's row), and a
  // stable sort by resource then groups them with each resource's posts
  // still in arrival order.
  const storage::Table* posts = db_->GetTable(tables::kPosts);
  if (posts == nullptr) return out;
  Status decoded = Status::OK();
  ITAG_RETURN_IF_ERROR(posts->ScanWhereFirst(
      storage::Value::Int(static_cast<int64_t>(project)),
      [&](storage::RowId, const Row& row) {
        CorpusTransfer::PostRec rec;
        rec.resource = static_cast<tagging::ResourceId>(row[1].as_int());
        rec.tagger = static_cast<tagging::TaggerId>(row[2].as_int());
        rec.time = row[3].as_int();
        ByteReader r(row[4].as_string());
        if (!r.StrVec(&rec.tags) || !r.AtEnd()) {
          decoded = Status::Corruption("malformed post tags for project " +
                                       std::to_string(project));
          return false;
        }
        out.posts.push_back(std::move(rec));
        return true;
      }));
  ITAG_RETURN_IF_ERROR(decoded);
  std::stable_sort(out.posts.begin(), out.posts.end(),
                   [](const CorpusTransfer::PostRec& a,
                      const CorpusTransfer::PostRec& b) {
                     return a.resource < b.resource;
                   });
  return out;
}

Status ResourceManager::AdoptCorpus(ProjectId project,
                                    const CorpusTransfer& transfer) {
  if (corpora_.count(project)) {
    return Status::AlreadyExists("corpus for project " +
                                 std::to_string(project));
  }
  auto corpus = std::make_unique<tagging::Corpus>();
  // Arm write-through *before* interning so the destination's dict table
  // records every tag in order, exactly as if it had been interned live.
  ArmDictHook(project, corpus.get());
  for (size_t i = 0; i < transfer.dict.size(); ++i) {
    tagging::TagId got = corpus->dict().Intern(transfer.dict[i]);
    if (got != static_cast<tagging::TagId>(i)) {
      return Status::Corruption("adopted dict diverged for project " +
                                std::to_string(project) + ": tag '" +
                                transfer.dict[i] + "' got id " +
                                std::to_string(got) + ", expected " +
                                std::to_string(i));
    }
  }
  for (size_t i = 0; i < transfer.resources.size(); ++i) {
    const CorpusTransfer::Res& res = transfer.resources[i];
    tagging::ResourceId id =
        corpus->AddResource(res.kind, res.uri, res.description);
    Row row = {Value::Int(static_cast<int64_t>(project)),
               Value::Int(static_cast<int64_t>(id)),
               Value::Str(tagging::ResourceKindName(res.kind)),
               Value::Str(res.uri), Value::Str(res.description)};
    ITAG_ASSIGN_OR_RETURN(storage::RowId rid,
                          db_->Insert(tables::kResources, row));
    (void)rid;
  }
  for (const CorpusTransfer::PostRec& rec : transfer.posts) {
    tagging::Post post;
    post.tagger = rec.tagger;
    post.time = rec.time;
    for (const std::string& text : rec.tags) {
      post.tags.push_back(corpus->dict().Intern(text));
    }
    ByteWriter tags;
    tags.StrVec(rec.tags);
    Row row = {Value::Int(static_cast<int64_t>(project)),
               Value::Int(static_cast<int64_t>(rec.resource)),
               Value::Int(static_cast<int64_t>(rec.tagger)),
               Value::Int(rec.time), Value::Str(tags.Take())};
    ITAG_RETURN_IF_ERROR(corpus->AddPost(rec.resource, post));
    ITAG_ASSIGN_OR_RETURN(storage::RowId rid,
                          db_->Insert(tables::kPosts, row));
    (void)rid;
  }
  corpora_.emplace(project, std::move(corpus));
  return Status::OK();
}

Status ResourceManager::DropCorpus(ProjectId project) {
  auto it = corpora_.find(project);
  if (it == corpora_.end()) {
    return Status::NotFound("project " + std::to_string(project));
  }
  corpora_.erase(it);
  // Delete persisted rows in reverse-dependency order, one scan per table.
  for (const char* table :
       {tables::kPosts, tables::kResources, tables::kDict}) {
    ITAG_RETURN_IF_ERROR(tables::DeleteProjectRows(db_, table, project));
  }
  return Status::OK();
}

}  // namespace itag::core
