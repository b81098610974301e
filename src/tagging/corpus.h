#ifndef ITAG_TAGGING_CORPUS_H_
#define ITAG_TAGGING_CORPUS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "tagging/post.h"
#include "tagging/resource.h"
#include "tagging/tag_dictionary.h"
#include "tagging/tag_stats.h"

namespace itag::tagging {

/// The set R of resources under one provider's management, the tag
/// dictionary, and the incremental statistics (TagStats) of each resource.
/// This is the in-memory working set the quality metrics and allocation
/// strategies operate on: they read each resource's statistics, never its
/// post sequence, so a post is folded into its resource's TagStats and not
/// kept. The iTag layer persists the post log through the storage engine.
class Corpus {
 public:
  /// `history_window` is forwarded to every resource's TagStats.
  explicit Corpus(size_t history_window = 16);

  /// Registers a resource and returns its id.
  ResourceId AddResource(ResourceKind kind, std::string uri,
                         std::string description = "");

  /// Number of resources n.
  size_t size() const { return resources_.size(); }

  /// True when `id` names a registered resource.
  bool IsValid(ResourceId id) const { return id < resources_.size(); }

  /// Metadata accessors.
  const Resource& resource(ResourceId id) const { return resources_[id]; }
  const TagStats& stats(ResourceId id) const { return stats_[id]; }

  /// Folds a post into the statistics of resource `id`. Fails on unknown
  /// resource or an empty post (posts are nonempty tag sets by definition).
  Status AddPost(ResourceId id, const Post& post);

  /// Post count of resource `id` (k_i).
  uint32_t PostCount(ResourceId id) const { return stats_[id].post_count(); }

  /// Sum of post counts over all resources.
  uint64_t TotalPosts() const;

  /// The shared tag dictionary.
  TagDictionary& dict() { return dict_; }
  const TagDictionary& dict() const { return dict_; }

  size_t history_window() const { return history_window_; }

 private:
  size_t history_window_;
  TagDictionary dict_;
  std::vector<Resource> resources_;
  std::vector<TagStats> stats_;
};

}  // namespace itag::tagging

#endif  // ITAG_TAGGING_CORPUS_H_
