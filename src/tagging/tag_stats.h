#ifndef ITAG_TAGGING_TAG_STATS_H_
#define ITAG_TAGGING_TAG_STATS_H_

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/distribution.h"
#include "tagging/post.h"

namespace itag::tagging {

/// Incremental per-resource tag statistics: tag counts, the current relative
/// frequency distribution (rfd), and a bounded ring of recent rfd snapshots
/// used by the stability-based quality metric (q compares rfd after k posts
/// with the rfd w posts earlier).
///
/// All updates are O(|post| + rfd materialization is deferred): counts update
/// in O(tags per post); the sparse rfd is materialized lazily and cached
/// until the next post.
class TagStats {
 public:
  /// `history_window` is the maximum number of past rfd snapshots retained
  /// (the stability window W). Snapshots are taken once per post.
  explicit TagStats(size_t history_window = 16);

  /// Applies one post (duplicate tags within the post are counted once; a
  /// well-formed Post has unique tags already).
  void AddPost(const Post& post);

  /// Number of posts applied.
  uint32_t post_count() const { return post_count_; }

  /// Total tag occurrences (sum over posts of tags per post).
  uint64_t tag_occurrences() const { return total_; }

  /// Number of distinct tags seen.
  size_t distinct_tags() const { return counts_.size(); }

  /// Count of one tag (0 if unseen).
  uint32_t TagCount(TagId id) const;

  /// Current rfd (empty when no posts yet). Cached between posts.
  const SparseDist& Rfd() const;

  /// Rfd as it was `back` posts ago (back=0 is the current rfd). Returns an
  /// empty distribution when the history does not reach that far (fewer than
  /// `back` posts, or beyond the retained window).
  SparseDist RfdBefore(size_t back) const;

  /// Distance between the current rfd and the rfd `back` posts earlier.
  /// Defined as 1 (maximally unstable) while fewer than 2 posts exist, since
  /// no stability evidence is available yet — this makes untouched resources
  /// look maximally attractive to the Most-Unstable-first strategy, matching
  /// the model's cold-start behaviour.
  double StabilityDistance(DistanceKind kind, size_t back) const;

  /// The `limit` most frequent (tag, count) pairs, by descending count then
  /// ascending id — the "tags and their frequencies" view of Fig. 6.
  std::vector<std::pair<TagId, uint32_t>> TopTags(size_t limit) const;

  size_t history_window() const { return history_window_; }

 private:
  void SnapshotRfd();
  /// The i-th oldest retained snapshot (i < snapshots_.size()).
  const SparseDist& Snapshot(size_t i) const {
    return snapshots_[(oldest_ + i) % snapshots_.size()];
  }

  size_t history_window_;
  std::unordered_map<TagId, uint32_t> counts_;
  uint64_t total_ = 0;
  uint32_t post_count_ = 0;

  mutable bool rfd_dirty_ = true;
  mutable SparseDist rfd_cache_;

  /// A ring of at most history_window_ + 1 snapshots, oldest at
  /// snapshots_[oldest_]: Snapshot(i) is the rfd after
  /// (post_count_ - snapshots_.size() + 1 + i) posts, so the last one is
  /// the rfd after the latest post. A vector, unlike a deque, moves without
  /// allocating, so a growing Corpus moves its stats instead of copying.
  std::vector<SparseDist> snapshots_;
  size_t oldest_ = 0;
};

static_assert(std::is_nothrow_move_constructible_v<TagStats>,
              "Corpus growth must move resource stats, not copy them");

}  // namespace itag::tagging

#endif  // ITAG_TAGGING_TAG_STATS_H_
