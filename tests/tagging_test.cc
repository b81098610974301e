#include <gtest/gtest.h>

#include "tagging/corpus.h"
#include "tagging/tag_dictionary.h"
#include "tagging/tag_stats.h"

namespace itag::tagging {
namespace {

// ------------------------------------------------------------- dictionary

TEST(TagDictionaryTest, InternAssignsSequentialIds) {
  TagDictionary d;
  EXPECT_EQ(d.Intern("alpha"), 0u);
  EXPECT_EQ(d.Intern("beta"), 1u);
  EXPECT_EQ(d.Intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(d.size(), 2u);
}

TEST(TagDictionaryTest, NormalizesBeforeInterning) {
  TagDictionary d;
  TagId a = d.Intern("Machine Learning");
  EXPECT_EQ(d.Intern("machine   learning"), a);
  EXPECT_EQ(d.Intern(" MACHINE LEARNING "), a);
  EXPECT_EQ(d.Text(a), "machine-learning");
}

TEST(TagDictionaryTest, TyposAreDistinctTags) {
  TagDictionary d;
  TagId good = d.Intern("database");
  TagId typo = d.Intern("databse");
  EXPECT_NE(good, typo);
  EXPECT_EQ(d.size(), 2u);
}

TEST(TagDictionaryTest, EmptyNormalizationRejected) {
  TagDictionary d;
  EXPECT_EQ(d.Intern("   "), kInvalidTag);
  EXPECT_EQ(d.Intern(""), kInvalidTag);
  EXPECT_EQ(d.size(), 0u);
}

TEST(TagDictionaryTest, FindDoesNotIntern) {
  TagDictionary d;
  EXPECT_EQ(d.Find("ghost"), kInvalidTag);
  EXPECT_EQ(d.size(), 0u);
  TagId id = d.Intern("real");
  EXPECT_EQ(d.Find("Real"), id);
}

TEST(TagDictionaryTest, IsValid) {
  TagDictionary d;
  TagId id = d.Intern("x");
  EXPECT_TRUE(d.IsValid(id));
  EXPECT_FALSE(d.IsValid(id + 1));
  EXPECT_FALSE(d.IsValid(kInvalidTag));
}

// ------------------------------------------------------------- tag stats

Post MakePost(std::vector<TagId> tags, TaggerId tagger = 1) {
  Post p;
  p.tagger = tagger;
  p.tags = std::move(tags);
  return p;
}

TEST(TagStatsTest, CountsAndTotals) {
  TagStats s;
  s.AddPost(MakePost({0, 1}));
  s.AddPost(MakePost({1, 2}));
  EXPECT_EQ(s.post_count(), 2u);
  EXPECT_EQ(s.tag_occurrences(), 4u);
  EXPECT_EQ(s.distinct_tags(), 3u);
  EXPECT_EQ(s.TagCount(1), 2u);
  EXPECT_EQ(s.TagCount(0), 1u);
  EXPECT_EQ(s.TagCount(9), 0u);
}

TEST(TagStatsTest, RfdNormalized) {
  TagStats s;
  s.AddPost(MakePost({0, 1}));
  s.AddPost(MakePost({1}));
  const SparseDist& rfd = s.Rfd();
  EXPECT_NEAR(rfd.Sum(), 1.0, 1e-12);
  EXPECT_NEAR(rfd.Prob(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rfd.Prob(0), 1.0 / 3.0, 1e-12);
}

TEST(TagStatsTest, EmptyRfdBeforePosts) {
  TagStats s;
  EXPECT_TRUE(s.Rfd().empty());
  EXPECT_EQ(s.post_count(), 0u);
}

TEST(TagStatsTest, RfdBeforeWalksHistory) {
  TagStats s(/*history_window=*/8);
  s.AddPost(MakePost({0}));
  s.AddPost(MakePost({1}));
  s.AddPost(MakePost({1}));
  // Current rfd: {0: 1/3, 1: 2/3}; one post ago: {0: 1/2, 1: 1/2}.
  SparseDist prev = s.RfdBefore(1);
  EXPECT_NEAR(prev.Prob(0), 0.5, 1e-12);
  // Two posts ago: {0: 1}.
  SparseDist prev2 = s.RfdBefore(2);
  EXPECT_NEAR(prev2.Prob(0), 1.0, 1e-12);
  // Before any post: empty.
  EXPECT_TRUE(s.RfdBefore(3).empty());
}

TEST(TagStatsTest, StabilityDistanceIsOneWithoutEvidence) {
  TagStats s;
  EXPECT_EQ(s.StabilityDistance(DistanceKind::kTotalVariation, 4), 1.0);
  s.AddPost(MakePost({0}));
  EXPECT_EQ(s.StabilityDistance(DistanceKind::kTotalVariation, 4), 1.0);
}

TEST(TagStatsTest, StabilityDistanceShrinksUnderRepetition) {
  TagStats s;
  // Identical posts: the rfd never moves after the first post.
  for (int i = 0; i < 10; ++i) s.AddPost(MakePost({0, 1}));
  EXPECT_NEAR(s.StabilityDistance(DistanceKind::kTotalVariation, 1), 0.0,
              1e-12);
  EXPECT_NEAR(s.StabilityDistance(DistanceKind::kTotalVariation, 8), 0.0,
              1e-12);
}

TEST(TagStatsTest, StabilityDistanceSeesChange) {
  TagStats s;
  for (int i = 0; i < 5; ++i) s.AddPost(MakePost({0}));
  s.AddPost(MakePost({1}));  // sudden new tag
  double d = s.StabilityDistance(DistanceKind::kTotalVariation, 1);
  EXPECT_GT(d, 0.0);
}

TEST(TagStatsTest, HistoryWindowEvictsOldSnapshots) {
  TagStats s(/*history_window=*/2);
  for (int i = 0; i < 10; ++i) s.AddPost(MakePost({static_cast<TagId>(i)}));
  // Asking beyond the window falls back to the oldest retained snapshot —
  // still defined, still in [0,1].
  double d = s.StabilityDistance(DistanceKind::kTotalVariation, 9);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(TagStatsTest, DuplicateTagsWithinPostCountOnce) {
  TagStats s;
  // Well-formed posts have unique tags, but AddPost counts each entry; the
  // data model enforces uniqueness upstream. Feed a unique-tags post here.
  s.AddPost(MakePost({0, 1, 2}));
  EXPECT_EQ(s.tag_occurrences(), 3u);
}

TEST(TagStatsTest, TopTagsOrderedByCountThenId) {
  TagStats s;
  s.AddPost(MakePost({2, 3}));
  s.AddPost(MakePost({2}));
  s.AddPost(MakePost({1}));
  auto top = s.TopTags(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 2u);   // count 2
  EXPECT_EQ(top[1].first, 1u);   // count 1, lower id first
  EXPECT_EQ(top[2].first, 3u);
  auto top1 = s.TopTags(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].first, 2u);
}

// ------------------------------------------------------------- corpus

TEST(CorpusTest, AddResourceAssignsIds) {
  Corpus c;
  ResourceId a = c.AddResource(ResourceKind::kWebUrl, "http://a");
  ResourceId b = c.AddResource(ResourceKind::kImage, "b.jpg", "desc");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.IsValid(a));
  EXPECT_FALSE(c.IsValid(2));
  EXPECT_EQ(c.resource(b).kind, ResourceKind::kImage);
  EXPECT_EQ(c.resource(b).description, "desc");
}

TEST(CorpusTest, AddPostUpdatesStats) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  TagId t = c.dict().Intern("tag");
  ASSERT_TRUE(c.AddPost(r, MakePost({t})).ok());
  EXPECT_EQ(c.PostCount(r), 1u);
  EXPECT_EQ(c.stats(r).post_count(), 1u);
  EXPECT_EQ(c.stats(r).tag_occurrences(), 1u);
  EXPECT_EQ(c.stats(r).TagCount(t), 1u);
  EXPECT_EQ(c.TotalPosts(), 1u);
}

TEST(CorpusTest, AddPostRejectsUnknownResource) {
  Corpus c;
  EXPECT_TRUE(c.AddPost(5, MakePost({0})).IsNotFound());
}

TEST(CorpusTest, AddPostRejectsEmptyPost) {
  Corpus c;
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  EXPECT_TRUE(c.AddPost(r, MakePost({})).IsInvalidArgument());
  EXPECT_EQ(c.PostCount(r), 0u);
}

TEST(CorpusTest, ResourceKindNames) {
  EXPECT_STREQ(ResourceKindName(ResourceKind::kWebUrl), "web_url");
  EXPECT_STREQ(ResourceKindName(ResourceKind::kImage), "image");
  EXPECT_STREQ(ResourceKindName(ResourceKind::kVideo), "video");
  EXPECT_STREQ(ResourceKindName(ResourceKind::kSoundClip), "sound_clip");
  EXPECT_STREQ(ResourceKindName(ResourceKind::kScientificPaper),
               "scientific_paper");
}

TEST(CorpusTest, HistoryWindowPropagates) {
  Corpus c(/*history_window=*/4);
  ResourceId r = c.AddResource(ResourceKind::kWebUrl, "u");
  EXPECT_EQ(c.stats(r).history_window(), 4u);
}

}  // namespace
}  // namespace itag::tagging
