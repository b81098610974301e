#include "itag/tag_manager.h"

#include "common/binio.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "itag/tables.h"

namespace itag::core {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;

TagManager::TagManager(storage::Database* db) : db_(db) {}

Status TagManager::Attach() {
  return db_->EnsureTable(tables::kPosts, SchemaBuilder()
                                              .Int("project")
                                              .Int("resource")
                                              .Int("tagger")
                                              .Int("time")
                                              .Str("tags")
                                              .Build());
}

Status TagManager::LinkPost(ProjectId project, tagging::Corpus* corpus,
                            tagging::ResourceId resource,
                            const tagging::Post& post) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("null corpus");
  }
  // Tag texts travel as a length-prefixed list (not a joined string): tags
  // may legally contain any byte after normalization, and recovery re-interns
  // them verbatim to rebuild the corpus.
  std::vector<std::string> texts;
  texts.reserve(post.tags.size());
  for (tagging::TagId t : post.tags) {
    texts.push_back(corpus->dict().Text(t));
  }
  ByteWriter tags;
  tags.StrVec(texts);
  Row row = {Value::Int(static_cast<int64_t>(project)),
             Value::Int(static_cast<int64_t>(resource)),
             Value::Int(static_cast<int64_t>(post.tagger)),
             Value::Int(post.time), Value::Str(tags.Take())};
  ITAG_RETURN_IF_ERROR(corpus->AddPost(resource, post));
  ITAG_ASSIGN_OR_RETURN(storage::RowId rid, db_->Insert(tables::kPosts, row));
  (void)rid;
  ++persisted_posts_;
  return Status::OK();
}

std::vector<TagFrequency> TagManager::ResourceTags(
    const tagging::Corpus& corpus, tagging::ResourceId resource,
    size_t limit) const {
  std::vector<TagFrequency> out;
  if (!corpus.IsValid(resource)) return out;
  for (const auto& [tag, count] : corpus.stats(resource).TopTags(limit)) {
    out.push_back({corpus.dict().Text(tag), count});
  }
  return out;
}

Result<size_t> TagManager::ExportCsv(const tagging::Corpus& corpus,
                                     const std::string& path,
                                     size_t tags_per_resource) const {
  TableWriter table({"uri", "tag", "count"});
  size_t rows = 0;
  for (tagging::ResourceId r = 0; r < corpus.size(); ++r) {
    for (const auto& [tag, count] :
         corpus.stats(r).TopTags(tags_per_resource)) {
      table.BeginRow()
          .Add(corpus.resource(r).uri)
          .Add(corpus.dict().Text(tag))
          .Add(static_cast<uint64_t>(count));
      ++rows;
    }
  }
  ITAG_RETURN_IF_ERROR(table.SaveCsv(path));
  return rows;
}

}  // namespace itag::core
