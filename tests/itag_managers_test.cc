// Direct tests of the Resource, Tag and User managers below the facade —
// persistence, validation, aggregation and export behaviour.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "itag/resource_manager.h"
#include "itag/tag_manager.h"
#include "itag/user_manager.h"

namespace itag::core {
namespace {

namespace fs = std::filesystem;
using tagging::ResourceKind;

class ManagersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Open(storage::DatabaseOptions{}).ok());
    users_ = std::make_unique<UserManager>(&db_);
    ASSERT_TRUE(users_->Attach().ok());
    resources_ = std::make_unique<ResourceManager>(&db_);
    ASSERT_TRUE(resources_->Attach().ok());
    tags_ = std::make_unique<TagManager>(&db_);
    ASSERT_TRUE(tags_->Attach().ok());
  }

  storage::Database db_;
  std::unique_ptr<UserManager> users_;
  std::unique_ptr<ResourceManager> resources_;
  std::unique_ptr<TagManager> tags_;
};

// ------------------------------------------------------ resource manager

TEST_F(ManagersTest, CorpusPerProjectIsolation) {
  ASSERT_TRUE(resources_->CreateProjectCorpus(1).ok());
  ASSERT_TRUE(resources_->CreateProjectCorpus(2).ok());
  EXPECT_TRUE(resources_->CreateProjectCorpus(1).IsAlreadyExists());
  auto r1 = resources_->UploadResource(1, ResourceKind::kWebUrl, "a", "");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(resources_->ResourceCount(1), 1u);
  EXPECT_EQ(resources_->ResourceCount(2), 0u);
  EXPECT_EQ(resources_->ResourceCount(99), 0u);
  EXPECT_EQ(resources_->GetCorpus(99), nullptr);
}

TEST_F(ManagersTest, UploadPersistsRows) {
  ASSERT_TRUE(resources_->CreateProjectCorpus(7).ok());
  ASSERT_TRUE(
      resources_->UploadResource(7, ResourceKind::kVideo, "v.mp4", "d").ok());
  ASSERT_TRUE(
      resources_->UploadResource(7, ResourceKind::kImage, "i.jpg", "").ok());
  const storage::Table* t = db_.GetTable("resources");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 2u);
  // Both rows carry their project id, which a scan finds them by.
  auto rows_of = [t](int64_t project) {
    return t->CountWhere([project](const storage::Row& row) {
      return row[0] == storage::Value::Int(project);
    });
  };
  EXPECT_EQ(rows_of(7), 2u);
  EXPECT_EQ(rows_of(8), 0u);
}

TEST_F(ManagersTest, ImportPostNormalizesAndDedups) {
  ASSERT_TRUE(resources_->CreateProjectCorpus(1).ok());
  auto r = resources_->UploadResource(1, ResourceKind::kWebUrl, "u", "");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(
      resources_->ImportPost(1, r.value(), {"Big Data", "big  data", "ai"})
          .ok());
  const tagging::Corpus* corpus = resources_->GetCorpus(1);
  // "Big Data" and "big  data" normalize identically: the post's row holds
  // 2 unique tags, and the statistics count 2 occurrences.
  ASSERT_EQ(corpus->dict().size(), 2u);
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(db_.GetTable("posts")
                  ->Scan([&](storage::RowId, const storage::Row& row) {
                    ByteReader in(row[4].as_string());
                    rows.emplace_back();
                    EXPECT_TRUE(in.StrVec(&rows.back()) && in.AtEnd());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(rows, (std::vector<std::vector<std::string>>{
                      {corpus->dict().Text(0), corpus->dict().Text(1)}}));
  EXPECT_EQ(corpus->PostCount(r.value()), 1u);
  EXPECT_EQ(corpus->stats(r.value()).tag_occurrences(), 2u);
  EXPECT_TRUE(resources_->ImportPost(1, r.value(), {"  "})
                  .IsInvalidArgument());
  EXPECT_TRUE(resources_->ImportPost(42, 0, {"x"}).IsNotFound());
}

// ----------------------------------------------------------- tag manager

TEST_F(ManagersTest, LinkPostPersistsAndAggregates) {
  ASSERT_TRUE(resources_->CreateProjectCorpus(1).ok());
  tagging::Corpus* corpus = resources_->GetCorpus(1);
  auto r = resources_->UploadResource(1, ResourceKind::kWebUrl, "u", "");
  ASSERT_TRUE(r.ok());

  tagging::Post post;
  post.tagger = 5;
  post.time = 17;
  post.tags = {corpus->dict().Intern("alpha"), corpus->dict().Intern("beta")};
  ASSERT_TRUE(tags_->LinkPost(1, corpus, r.value(), post).ok());
  tagging::Post post2;
  post2.tags = {corpus->dict().Intern("alpha")};
  ASSERT_TRUE(tags_->LinkPost(1, corpus, r.value(), post2).ok());

  EXPECT_EQ(tags_->persisted_posts(), 2u);
  EXPECT_EQ(db_.GetTable("posts")->row_count(), 2u);

  auto freq = tags_->ResourceTags(*corpus, r.value(), 10);
  ASSERT_EQ(freq.size(), 2u);
  EXPECT_EQ(freq[0].tag, "alpha");
  EXPECT_EQ(freq[0].count, 2u);
  EXPECT_EQ(freq[1].tag, "beta");
  // Unknown resource -> empty.
  EXPECT_TRUE(tags_->ResourceTags(*corpus, 99, 10).empty());
}

TEST_F(ManagersTest, ExportCsvWritesRankedRows) {
  ASSERT_TRUE(resources_->CreateProjectCorpus(1).ok());
  tagging::Corpus* corpus = resources_->GetCorpus(1);
  auto r = resources_->UploadResource(1, ResourceKind::kWebUrl,
                                      "http://x", "");
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 3; ++i) {
    tagging::Post post;
    post.tags = {corpus->dict().Intern("top")};
    if (i == 0) post.tags.push_back(corpus->dict().Intern("rare"));
    ASSERT_TRUE(tags_->LinkPost(1, corpus, r.value(), post).ok());
  }
  std::string path = "/tmp/itag_managers_export_test.csv";
  auto rows = tags_->ExportCsv(*corpus, path, 5);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), 2u);
  std::ifstream in(path);
  std::string header, first;
  std::getline(in, header);
  std::getline(in, first);
  EXPECT_EQ(header, "uri,tag,count");
  EXPECT_EQ(first, "http://x,top,3");
  fs::remove(path);
}

// ---------------------------------------------------------- user manager

TEST_F(ManagersTest, ApprovalRatesBothDirections) {
  ProviderId p = users_->RegisterProvider("prov").value();
  UserTaggerId t = users_->RegisterTagger("tagg").value();
  ASSERT_TRUE(users_->RecordSubmission(t).ok());
  ASSERT_TRUE(users_->RecordDecision(p, t, true, 5).ok());
  ASSERT_TRUE(users_->RecordSubmission(t).ok());
  ASSERT_TRUE(users_->RecordDecision(p, t, false, 0).ok());

  TaggerProfile tp = users_->GetTagger(t).value();
  EXPECT_EQ(tp.submitted, 2u);
  EXPECT_NEAR(tp.ApprovalRate(), 0.5, 1e-12);
  EXPECT_EQ(tp.earned_cents, 5u);

  ProviderProfile pp = users_->GetProvider(p).value();
  EXPECT_NEAR(pp.ApprovalRate(), 0.5, 1e-12);

  ASSERT_TRUE(users_->RecordProviderDecision(p, true).ok());
  EXPECT_NEAR(users_->GetProvider(p).value().ApprovalRate(), 2.0 / 3.0,
              1e-12);
}

TEST_F(ManagersTest, QualifiedTaggersFilter) {
  ProviderId p = users_->RegisterProvider("prov").value();
  UserTaggerId good = users_->RegisterTagger("good").value();
  UserTaggerId bad = users_->RegisterTagger("bad").value();
  UserTaggerId fresh = users_->RegisterTagger("fresh").value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(users_->RecordDecision(p, good, true, 1).ok());
    ASSERT_TRUE(users_->RecordDecision(p, bad, false, 0).ok());
  }
  auto qualified = users_->QualifiedTaggers(0.8, 3);
  ASSERT_EQ(qualified.size(), 1u);
  EXPECT_EQ(qualified[0].id, good);
  // Fresh taggers (no decisions) are excluded by min_decided but would pass
  // the optimistic rate.
  EXPECT_EQ(users_->GetTagger(fresh).value().ApprovalRate(), 1.0);
  EXPECT_EQ(users_->QualifiedTaggers(0.8, 0).size(), 2u);  // good + fresh
}

TEST_F(ManagersTest, DecisionValidation) {
  EXPECT_TRUE(users_->RecordDecision(0, 0, true, 1).IsNotFound());
  ProviderId p = users_->RegisterProvider("p").value();
  EXPECT_TRUE(users_->RecordDecision(p, 7, true, 1).IsNotFound());
  EXPECT_TRUE(users_->RecordSubmission(7).IsNotFound());
  EXPECT_TRUE(users_->RecordProviderDecision(9, true).IsNotFound());
}

}  // namespace
}  // namespace itag::core
