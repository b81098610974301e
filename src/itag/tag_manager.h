#ifndef ITAG_ITAG_TAG_MANAGER_H_
#define ITAG_ITAG_TAG_MANAGER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "itag/ids.h"
#include "storage/database.h"
#include "tagging/corpus.h"

namespace itag::core {

/// One exported (tag, frequency) pair.
struct TagFrequency {
  std::string tag;
  uint32_t count = 0;
};

/// The Tag Manager of Fig. 2: links approved tags to resources (persisting
/// the post log through the storage engine) and serves the aggregated
/// tag-frequency views shown in the single-resource screen (Fig. 6) and the
/// final export.
class TagManager {
 public:
  explicit TagManager(storage::Database* db);

  /// Creates backing tables (idempotent).
  Status Attach();

  /// Records an approved post: folds it into the project corpus's
  /// statistics and persists the post row. `post.tagger` is the submitting
  /// user.
  Status LinkPost(ProjectId project, tagging::Corpus* corpus,
                  tagging::ResourceId resource, const tagging::Post& post);

  /// The (tag, frequency) view of one resource, most frequent first.
  std::vector<TagFrequency> ResourceTags(const tagging::Corpus& corpus,
                                         tagging::ResourceId resource,
                                         size_t limit = 32) const;

  /// Exports every resource's top tags as CSV rows
  /// (uri, tag, count) — the §III-A "export resources with the desired
  /// tags" action. Returns the number of rows written.
  Result<size_t> ExportCsv(const tagging::Corpus& corpus,
                           const std::string& path,
                           size_t tags_per_resource = 10) const;

  /// Total posts persisted by this manager.
  uint64_t persisted_posts() const { return persisted_posts_; }

 private:
  storage::Database* db_;
  uint64_t persisted_posts_ = 0;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_TAG_MANAGER_H_
