#ifndef ITAG_ITAG_RESOURCE_MANAGER_H_
#define ITAG_ITAG_RESOURCE_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "itag/ids.h"
#include "storage/database.h"
#include "tagging/corpus.h"

namespace itag::core {

/// The Resource Manager of Fig. 2: "in charge of controlling the operations
/// on resources and their related tags, and is responsible for storing
/// resource and tagging information." Each project owns a Corpus (working
/// set: resources, dictionary, per-resource TagStats); the manager persists
/// resource rows, the tag dictionary (in intern order — tag ids are
/// positional) and imported posts in the storage engine, and can rebuild a
/// project's complete corpus from those tables on recovery. A post lives
/// only as its `posts` row: what reads posts (recovery, migration) scans
/// that table.
class ResourceManager {
 public:
  explicit ResourceManager(storage::Database* db);

  /// Creates backing tables (idempotent).
  Status Attach();

  /// Creates the working corpus for a project.
  Status CreateProjectCorpus(ProjectId project);

  /// Recovery: recreates the corpus of every persisted project in
  /// `projects` from one scan each of the dict, resources and posts tables,
  /// each row going to its project's corpus; rows of other projects are
  /// skipped. A scan visits a project's rows in row-id order, the order
  /// they were written in, so the dictionary (tag-id assignment order),
  /// the resources and the post log replay as they happened, and the
  /// rebuilt corpora are bit-equal to the ones the original process held —
  /// statistics included, since TagStats is a pure fold over the post
  /// sequence. Write-through is armed after the last scan.
  Status RestoreCorpora(const std::vector<ProjectId>& projects);

  /// The project's corpus (nullptr when the project is unknown).
  tagging::Corpus* GetCorpus(ProjectId project);
  const tagging::Corpus* GetCorpus(ProjectId project) const;

  /// Uploads one resource into a project. Returns the project-local
  /// resource id.
  Result<tagging::ResourceId> UploadResource(ProjectId project,
                                             tagging::ResourceKind kind,
                                             const std::string& uri,
                                             const std::string& description);

  /// Imports a provider's pre-existing post (Upload File with "possible
  /// tags", Fig. 4). Raw tag strings are normalized and interned; the post
  /// is appended to the shared post log so recovery replays it in place.
  Status ImportPost(ProjectId project, tagging::ResourceId resource,
                    const std::vector<std::string>& raw_tags);

  /// Number of resources in a project (0 for unknown projects).
  size_t ResourceCount(ProjectId project) const;

  /// Self-contained, storage-free image of one project's corpus: dictionary
  /// in intern order, resources in upload order, posts with tag *texts*
  /// (ids are corpus-local and do not survive the move). Shard migration
  /// extracts this on the source shard and adopts it on the destination
  /// under a different project id; replaying it rebuilds a bit-equal corpus
  /// for the same reason RestoreCorpora does — TagStats is a pure fold over
  /// the per-resource post sequence.
  struct CorpusTransfer {
    std::vector<std::string> dict;  ///< tag texts, id order (0, 1, ...)
    struct Res {
      tagging::ResourceKind kind;
      std::string uri;
      std::string description;
    };
    std::vector<Res> resources;
    struct PostRec {
      tagging::ResourceId resource;
      tagging::TaggerId tagger;
      int64_t time;
      std::vector<std::string> tags;
    };
    std::vector<PostRec> posts;  ///< grouped by resource, in-order within
  };

  /// Serializes a project's corpus: the dictionary and resources from
  /// memory, the posts from one scan of the `posts` table.
  Result<CorpusTransfer> ExtractCorpus(ProjectId project) const;

  /// Installs a transferred corpus under `project` (which must be free):
  /// re-interns the dictionary in order, re-adds resources and posts, and
  /// writes the resource/post rows through to this database. The dict rows
  /// are written by the write-through hook, as in CreateProjectCorpus.
  Status AdoptCorpus(ProjectId project, const CorpusTransfer& transfer);

  /// Removes a project's corpus and its post, resource and dict rows, found
  /// with one scan per table (the migration source's cleanup half).
  Status DropCorpus(ProjectId project);

 private:
  /// Arms the corpus dictionary's new-tag hook to write-through into the
  /// dict table.
  void ArmDictHook(ProjectId project, tagging::Corpus* corpus);

  storage::Database* db_;
  std::unordered_map<ProjectId, std::unique_ptr<tagging::Corpus>> corpora_;
};

}  // namespace itag::core

#endif  // ITAG_ITAG_RESOURCE_MANAGER_H_
