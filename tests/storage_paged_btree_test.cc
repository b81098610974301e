#include "storage/pager/paged_btree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/pager/page_cache.h"
#include "storage/pager/pager.h"

namespace itag::storage::pager {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Val(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// Tiny pages + tiny cache: a few hundred keys already exercise splits,
/// merges, multi-level descent, overflow chains, and eviction.
class PagedBTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("itag_btree_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    PagerOptions opts;
    opts.path = dir_ + "/pages.db";
    opts.page_size = 512;
    ASSERT_TRUE(pager_.Open(opts).ok());
    cache_ = std::make_unique<PageCache>(&pager_, 8 * 512);
    tree_ = std::make_unique<PagedBTree>(&pager_, cache_.get(), kNullPage);
  }
  void TearDown() override {
    tree_.reset();
    cache_.reset();
    pager_.Close();
    fs::remove_all(dir_);
  }

  /// Asserts tree contents == `model` via point gets, a full scan, and the
  /// structural invariant walk.
  void ExpectMatchesModel(const std::map<uint64_t, std::vector<uint8_t>>& model) {
    Result<uint64_t> count = tree_->CheckInvariants();
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count.value(), model.size());
    for (const auto& [k, v] : model) {
      std::vector<uint8_t> got;
      Result<bool> found = tree_->Get(k, &got);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      ASSERT_TRUE(found.value()) << "missing key " << k;
      ASSERT_EQ(got, v) << "wrong value for key " << k;
    }
    std::vector<uint64_t> scanned;
    Status s = tree_->Scan(0, [&](uint64_t k, const std::vector<uint8_t>& v) {
      scanned.push_back(k);
      auto it = model.find(k);
      EXPECT_TRUE(it != model.end() && it->second == v) << "scan key " << k;
      return true;
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(scanned.size(), model.size());
    EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  }

  std::string dir_;
  Pager pager_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<PagedBTree> tree_;
};

TEST_F(PagedBTreeTest, EmptyTreeBehaves) {
  EXPECT_TRUE(tree_->empty());
  std::vector<uint8_t> v;
  Result<bool> got = tree_->Get(1, &v);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
  Result<bool> erased = tree_->Erase(1);
  ASSERT_TRUE(erased.ok());
  EXPECT_FALSE(erased.value());
  size_t visits = 0;
  ASSERT_TRUE(tree_->Scan(0, [&](uint64_t, const std::vector<uint8_t>&) {
                       ++visits;
                       return true;
                     }).ok());
  EXPECT_EQ(visits, 0u);
}

TEST_F(PagedBTreeTest, PutGetReplaceErase) {
  Result<bool> r = tree_->Put(7, Val("seven"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());  // new key
  r = tree_->Put(7, Val("SEVEN"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());  // replaced
  std::vector<uint8_t> v;
  Result<bool> got = tree_->Get(7, &v);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(v, Val("SEVEN"));
  Result<bool> erased = tree_->Erase(7);
  ASSERT_TRUE(erased.ok());
  EXPECT_TRUE(erased.value());
  EXPECT_TRUE(tree_->empty());
}

TEST_F(PagedBTreeTest, SequentialInsertSplitsToMultipleLevels) {
  std::map<uint64_t, std::vector<uint8_t>> model;
  for (uint64_t k = 0; k < 500; ++k) {
    std::vector<uint8_t> v = Val("value-" + std::to_string(k));
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, ReverseInsertThenDrainForward) {
  std::map<uint64_t, std::vector<uint8_t>> model;
  for (uint64_t k = 400; k > 0; --k) {
    std::vector<uint8_t> v = Val("v" + std::to_string(k));
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ExpectMatchesModel(model);
  // Draining forward forces merges/borrows at the left edge all the way up.
  for (uint64_t k = 1; k <= 400; ++k) {
    Result<bool> erased = tree_->Erase(k);
    ASSERT_TRUE(erased.ok()) << erased.status().ToString();
    ASSERT_TRUE(erased.value());
    model.erase(k);
    if (k % 50 == 0) ExpectMatchesModel(model);
  }
  EXPECT_TRUE(tree_->empty());
}

TEST_F(PagedBTreeTest, OverflowValuesRoundTripAndFreeTheirChains) {
  // payload/4 = 120 at 512-byte pages: these spill to multi-page chains.
  std::map<uint64_t, std::vector<uint8_t>> model;
  std::mt19937 rng(3);
  for (uint64_t k = 0; k < 20; ++k) {
    std::vector<uint8_t> v(200 + k * 97);
    for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ExpectMatchesModel(model);

  // Replacing an overflow value must free the old chain: page usage stays
  // bounded across many replacements instead of leaking a chain per Put.
  for (int round = 0; round < 30; ++round) {
    std::vector<uint8_t> v(1500);
    for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE(tree_->Put(5, v).ok());
    model[5] = std::move(v);
  }
  ASSERT_TRUE(pager_.Commit(tree_->root(), 1).ok());
  uint32_t count_after_commit = pager_.page_count();
  for (int round = 0; round < 30; ++round) {
    std::vector<uint8_t> v(1500);
    for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE(tree_->Put(5, v).ok());
    model[5] = std::move(v);
  }
  // One epoch of churn may COW the path once, but 30 replaced chains (~4
  // pages each) must have been recycled, not appended.
  EXPECT_LT(pager_.page_count(), count_after_commit + 30);
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, RandomizedOpsMatchReferenceModel) {
  std::map<uint64_t, std::vector<uint8_t>> model;
  std::mt19937 rng(12345);
  for (int op = 0; op < 3000; ++op) {
    uint64_t key = rng() % 300;
    int action = static_cast<int>(rng() % 10);
    if (action < 6) {  // put
      size_t len = rng() % 2 == 0 ? rng() % 40            // inline
                                  : 150 + rng() % 400;    // overflow
      std::vector<uint8_t> v(len);
      for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
      Result<bool> r = tree_->Put(key, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), model.count(key) == 0);
      model[key] = std::move(v);
    } else if (action < 9) {  // erase
      Result<bool> r = tree_->Erase(key);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), model.erase(key) == 1);
    } else {  // point lookup
      std::vector<uint8_t> v;
      Result<bool> r = tree_->Get(key, &v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      auto it = model.find(key);
      ASSERT_EQ(r.value(), it != model.end());
      if (it != model.end()) {
        ASSERT_EQ(v, it->second);
      }
    }
    if (op % 500 == 499) ExpectMatchesModel(model);
  }
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, ScanFromMidpointAndEarlyStop) {
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Put(k * 3, Val(std::to_string(k))).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->Scan(100, [&](uint64_t k, const std::vector<uint8_t>&) {
                       seen.push_back(k);
                       return seen.size() < 10;
                     }).ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 102u);  // first multiple of 3 >= 100
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 3);
  }
}

TEST_F(PagedBTreeTest, PersistsAcrossCommitAndReopen) {
  std::map<uint64_t, std::vector<uint8_t>> model;
  std::mt19937 rng(9);
  for (uint64_t k = 0; k < 250; ++k) {
    std::vector<uint8_t> v(k % 7 == 0 ? 300 : 20);  // mix overflow + inline
    for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  ASSERT_TRUE(pager_.Commit(tree_->root(), 42).ok());
  PageId root = tree_->root();

  // Tear the whole stack down and reopen from the committed root.
  tree_.reset();
  cache_.reset();
  pager_.Close();
  PagerOptions opts;
  opts.path = dir_ + "/pages.db";
  opts.page_size = 512;
  ASSERT_TRUE(pager_.Open(opts).ok());
  EXPECT_EQ(pager_.catalog_head(), root);
  cache_ = std::make_unique<PageCache>(&pager_, 8 * 512);
  tree_ = std::make_unique<PagedBTree>(&pager_, cache_.get(), root);
  ExpectMatchesModel(model);

  // The reopened tree keeps working: COW against the committed epoch.
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(tree_->Erase(k * 2).ok());
    model.erase(k * 2);
  }
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, UncommittedMutationsVanishOnReopen) {
  std::map<uint64_t, std::vector<uint8_t>> model;
  for (uint64_t k = 0; k < 100; ++k) {
    std::vector<uint8_t> v = Val("committed-" + std::to_string(k));
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  ASSERT_TRUE(pager_.Commit(tree_->root(), 1).ok());
  PageId committed_root = tree_->root();

  // Mutate heavily after the commit, flush the cache (dirty pages reach
  // disk), but do NOT commit — the meta slot still points at the old epoch.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Put(k, Val("uncommitted")).ok());
  }
  for (uint64_t k = 100; k < 150; ++k) {
    ASSERT_TRUE(tree_->Put(k, Val("extra")).ok());
  }
  ASSERT_TRUE(cache_->FlushAll().ok());

  tree_.reset();
  cache_.reset();
  pager_.Close();
  PagerOptions opts;
  opts.path = dir_ + "/pages.db";
  opts.page_size = 512;
  ASSERT_TRUE(pager_.Open(opts).ok());
  // COW guarantee: the committed tree is byte-identical after the crash.
  EXPECT_EQ(pager_.catalog_head(), committed_root);
  cache_ = std::make_unique<PageCache>(&pager_, 8 * 512);
  tree_ = std::make_unique<PagedBTree>(&pager_, cache_.get(),
                                       pager_.catalog_head());
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, DestroyFreesEveryPage) {
  ASSERT_TRUE(pager_.Commit(kNullPage, 1).ok());
  size_t free_before = pager_.free_now();
  uint32_t count_before = pager_.page_count();
  std::mt19937 rng(5);
  for (uint64_t k = 0; k < 300; ++k) {
    std::vector<uint8_t> v(k % 11 == 0 ? 400 : 16);  // some overflow chains
    for (uint8_t& b : v) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE(tree_->Put(k, v).ok());
  }
  ASSERT_TRUE(tree_->Destroy().ok());
  EXPECT_TRUE(tree_->empty());
  // Every page the tree grew is free again (fresh pages go straight back to
  // free_now): what was allocatable before plus everything the file grew.
  EXPECT_EQ(pager_.free_now(), free_before + (pager_.page_count() - count_before));
}

}  // namespace
}  // namespace itag::storage::pager
