#include "tagging/tag_stats.h"

#include <algorithm>

namespace itag::tagging {

TagStats::TagStats(size_t history_window)
    : history_window_(history_window == 0 ? 1 : history_window) {}

void TagStats::AddPost(const Post& post) {
  // Count each distinct tag in the post once.
  for (TagId t : post.tags) {
    ++counts_[t];
    ++total_;
  }
  ++post_count_;
  rfd_dirty_ = true;
  SnapshotRfd();
}

uint32_t TagStats::TagCount(TagId id) const {
  auto it = counts_.find(id);
  return it == counts_.end() ? 0u : it->second;
}

const SparseDist& TagStats::Rfd() const {
  if (rfd_dirty_) {
    std::vector<SparseDist::Entry> entries;
    entries.reserve(counts_.size());
    for (const auto& [tag, count] : counts_) {
      entries.emplace_back(tag, static_cast<double>(count));
    }
    rfd_cache_ = SparseDist::FromWeights(std::move(entries));
    rfd_dirty_ = false;
  }
  return rfd_cache_;
}

void TagStats::SnapshotRfd() {
  if (snapshots_.size() < history_window_ + 1) {
    snapshots_.push_back(Rfd());
    return;
  }
  // Full: the newest snapshot takes the oldest one's slot.
  snapshots_[oldest_] = Rfd();
  oldest_ = (oldest_ + 1) % snapshots_.size();
}

SparseDist TagStats::RfdBefore(size_t back) const {
  if (back == 0) return Rfd();
  if (back >= snapshots_.size()) {
    // Beyond retained history. If the resource has had fewer than `back`
    // posts in total, the rfd back then was empty; otherwise the snapshot
    // was evicted and we conservatively return the oldest retained one.
    if (post_count_ <= back) return SparseDist();
    return snapshots_.empty() ? SparseDist() : Snapshot(0);
  }
  return Snapshot(snapshots_.size() - 1 - back);
}

double TagStats::StabilityDistance(DistanceKind kind, size_t back) const {
  if (post_count_ < 2) return 1.0;
  size_t effective = std::min<size_t>(back, post_count_ - 1);
  SparseDist past = RfdBefore(effective);
  if (past.empty()) return 1.0;
  return Distance(kind, Rfd(), past);
}

std::vector<std::pair<TagId, uint32_t>> TagStats::TopTags(size_t limit) const {
  std::vector<std::pair<TagId, uint32_t>> all(counts_.begin(), counts_.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (all.size() > limit) all.resize(limit);
  return all;
}

}  // namespace itag::tagging
