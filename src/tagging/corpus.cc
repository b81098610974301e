#include "tagging/corpus.h"

namespace itag::tagging {

Corpus::Corpus(size_t history_window) : history_window_(history_window) {}

ResourceId Corpus::AddResource(ResourceKind kind, std::string uri,
                               std::string description) {
  ResourceId id = static_cast<ResourceId>(resources_.size());
  Resource r;
  r.id = id;
  r.kind = kind;
  r.uri = std::move(uri);
  r.description = std::move(description);
  resources_.push_back(std::move(r));
  stats_.emplace_back(history_window_);
  return id;
}

Status Corpus::AddPost(ResourceId id, const Post& post) {
  if (!IsValid(id)) {
    return Status::NotFound("resource " + std::to_string(id));
  }
  if (post.tags.empty()) {
    return Status::InvalidArgument("a post must contain at least one tag");
  }
  stats_[id].AddPost(post);
  return Status::OK();
}

uint64_t Corpus::TotalPosts() const {
  uint64_t n = 0;
  for (const TagStats& s : stats_) n += s.post_count();
  return n;
}

}  // namespace itag::tagging
