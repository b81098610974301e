#include "storage/pager/paged_btree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "storage/pager/page_cache.h"
#include "storage/pager/pager.h"

namespace itag::storage::pager {
namespace {

namespace fs = std::filesystem;

using Model = std::map<uint64_t, std::string>;

/// `n` seeded random bytes.
std::string RandomBytes(std::mt19937* rng, size_t n) {
  std::string v(n, '\0');
  for (char& b : v) b = static_cast<char>((*rng)());
  return v;
}

/// Looks `key` up, copying its value into `*out`.
Result<bool> GetValue(PagedBTree* tree, uint64_t key, std::string* out) {
  return tree->Get(key, [&](std::string_view v) {
    out->assign(v);
    return Status::OK();
  });
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
  void ExpectMatchesModel(const Model& model) {
    Result<uint64_t> count = tree_->CheckInvariants();
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count.value(), model.size());
    for (const auto& [k, v] : model) {
      std::string got;
      Result<bool> found = GetValue(tree_.get(), k, &got);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      ASSERT_TRUE(found.value()) << "missing key " << k;
      ASSERT_EQ(got, v) << "wrong value for key " << k;
    }
    std::vector<uint64_t> scanned;
    Status s = tree_->Scan(0, [&](uint64_t k, std::string_view v) {
      scanned.push_back(k);
      auto it = model.find(k);
      EXPECT_TRUE(it != model.end() && it->second == v) << "scan key " << k;
      return true;
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(scanned.size(), model.size());
    EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  }

  /// Writes back every dirty page and commits the tree's current root.
  void Commit(uint64_t lsn) {
    ASSERT_TRUE(cache_->FlushAll().ok());
    ASSERT_TRUE(pager_.Commit(tree_->root(), lsn).ok());
  }

  /// The tree's node count on each level, root first.
  std::vector<size_t> PagesPerLevel() {
    std::vector<size_t> pages;
    for (std::vector<PageId> level = {tree_->root()}; !level.empty();) {
      pages.push_back(level.size());
      std::vector<PageId> below;
      for (PageId id : level) {
        Result<PageRef> ref = cache_->Pin(id);
        EXPECT_TRUE(ref.ok());
        if (!ref.ok() || ref.value().header().type != PageType::kInternal) {
          return pages;
        }
        const uint8_t* p = ref.value().payload().data();
        for (size_t i = 0; i <= size_t{p[0]} + (size_t{p[1]} << 8); ++i) {
          const uint8_t* c = p + 2 + 4 * i;
          below.push_back(PageId{c[0]} | PageId{c[1]} << 8 |
                          PageId{c[2]} << 16 | PageId{c[3]} << 24);
        }
      }
      level = std::move(below);
    }
    return pages;
  }

  /// Tears the stack down and reopens the tree at the committed root.
  void Reopen() {
    tree_.reset();
    cache_.reset();
    pager_.Close();
    PagerOptions opts;
    opts.path = dir_ + "/pages.db";
    opts.page_size = 512;
    ASSERT_TRUE(pager_.Open(opts).ok());
    cache_ = std::make_unique<PageCache>(&pager_, 8 * 512);
    tree_ = std::make_unique<PagedBTree>(&pager_, cache_.get(),
                                         pager_.catalog_head());
  }

  /// Writes a CRC-valid node page of `type` holding `payload` and points a
  /// fresh cache and tree at it, so every visit reads it from disk.
  void UseCraftedRoot(PageType type, std::vector<uint8_t> payload) {
    Result<PageId> id = pager_.Allocate();
    ASSERT_TRUE(id.ok());
    PageImage img;
    img.header.page_id = id.value();
    img.header.type = type;
    img.payload = std::move(payload);
    ASSERT_TRUE(pager_.WritePage(&img).ok());
    tree_.reset();
    cache_ = std::make_unique<PageCache>(&pager_, 8 * 512);
    tree_ = std::make_unique<PagedBTree>(&pager_, cache_.get(), id.value());
  }

  /// Get, Put, Replace, Erase and Scan each answer Corruption naming
  /// `what`, for a key the crafted node holds (5) and one it does not (9).
  void ExpectEveryVisitFails(const std::string& what) {
    auto check = [&](const Status& s, const std::string& op) {
      EXPECT_TRUE(s.IsCorruption()) << op << ": " << s.ToString();
      EXPECT_NE(s.message().find(what), std::string::npos)
          << op << ": " << s.ToString();
    };
    auto keep = [](std::string_view) { return Status::OK(); };
    for (uint64_t key : {5, 9}) {
      const std::string k = " of key " + std::to_string(key);
      std::string v;
      check(GetValue(tree_.get(), key, &v).status(), "Get" + k);
      check(tree_->Put(key, "value").status(), "Put" + k);
      check(tree_->Replace(key, "value", keep).status(), "Replace" + k);
      check(tree_->Erase(key, keep).status(), "Erase" + k);
      check(tree_->Scan(key, [](uint64_t, std::string_view) { return true; }),
            "Scan" + k);
    }
  }

  std::string dir_;
  Pager pager_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<PagedBTree> tree_;
};

/// Node payload bytes, little-endian, built field by field.
class NodeBytes {
 public:
  NodeBytes& U8(uint8_t v) {
    bytes_.push_back(v);
    return *this;
  }
  NodeBytes& U16(uint16_t v) { return Le(v, 2); }
  NodeBytes& U32(uint32_t v) { return Le(v, 4); }
  NodeBytes& U64(uint64_t v) { return Le(v, 8); }
  /// A well-formed inline leaf entry.
  NodeBytes& Inline(uint64_t key, const std::string& value) {
    U64(key).U8(0).U16(static_cast<uint16_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
    return *this;
  }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  NodeBytes& Le(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
    return *this;
  }
  std::vector<uint8_t> bytes_;
};

TEST_F(PagedBTreeTest, EmptyTreeBehaves) {
  EXPECT_TRUE(tree_->empty());
  std::string v;
  Result<bool> got = GetValue(tree_.get(), 1, &v);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
  Result<bool> erased = tree_->Erase(1);
  ASSERT_TRUE(erased.ok());
  EXPECT_FALSE(erased.value());
  size_t visits = 0;
  ASSERT_TRUE(tree_->Scan(0, [&](uint64_t, std::string_view) {
                       ++visits;
                       return true;
                     }).ok());
  EXPECT_EQ(visits, 0u);
}

TEST_F(PagedBTreeTest, PutGetReplaceErase) {
  Result<bool> r = tree_->Put(7, std::string("seven"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());  // new key
  r = tree_->Put(7, std::string("SEVEN"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());  // replaced
  std::string v;
  Result<bool> got = GetValue(tree_.get(), 7, &v);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(v, std::string("SEVEN"));
  Result<bool> erased = tree_->Erase(7);
  ASSERT_TRUE(erased.ok());
  EXPECT_TRUE(erased.value());
  EXPECT_TRUE(tree_->empty());
}

TEST_F(PagedBTreeTest, SequentialInsertSplitsToMultipleLevels) {
  Model model;
  for (uint64_t k = 0; k < 500; ++k) {
    std::string v = std::string("value-" + std::to_string(k));
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ExpectMatchesModel(model);
}

// Appended rows fill their pages: a leaf that overflows on a key past its
// last entry keeps its entries, and an internal node whose last child split
// keeps all but two children. After a commit the live pages are within 15%
// of what the entries need, and the level over the leaves is as full;
// splits at the midpoint leave every node about half full and need about
// twice that.
TEST_F(PagedBTreeTest, AscendingPutsFillTheirPages) {
  Model model;
  std::mt19937 rng(7);
  size_t entry_bytes = 0;
  for (uint64_t k = 0; k < 3000; ++k) {
    std::string v = RandomBytes(&rng, 4 + rng() % 29);
    entry_bytes += 8 + 1 + 2 + v.size();
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  Commit(1);
  const std::vector<size_t> levels = PagesPerLevel();
  ASSERT_EQ(levels.size(), 3u);
  // Packed leaves, the internal levels over them at full fan-out, the two
  // meta slots and the one page of the free list.
  const size_t payload = pager_.payload_size();
  const size_t fanout = (payload - 2 - 4) / 12 + 1;
  size_t level = (entry_bytes + payload - 3) / (payload - 2);
  size_t needed = level + 3;
  while (level > 1) {
    level = (level + fanout - 1) / fanout;
    needed += level;
  }
  const size_t live = pager_.page_count() - pager_.free_now();
  EXPECT_LE(live, needed * 115 / 100) << live << " live pages, " << needed
                                      << " needed";
  // An internal node that overflows on its last child keeps `fanout - 1`.
  const size_t packed = (levels[2] + fanout - 2) / (fanout - 1);
  EXPECT_LE(levels[1], packed + 1) << "over " << levels[2] << " leaves";
  RecordProperty("live_pages", std::to_string(live));
  RecordProperty("needed_pages", std::to_string(needed));
  ExpectMatchesModel(model);
}

// Appends interleaved with puts below a leaf's last key, replaces and
// erases, with a commit every 250 steps so edits meet both fresh pages,
// edited in place, and committed ones, copied on write. The tree matches
// the model and keeps its invariants after every step.
TEST_F(PagedBTreeTest, AppendsMixedWithEditsMatchReferenceModel) {
  Model model;
  std::mt19937 rng(31);
  uint64_t next = 0;
  for (int step = 1; step <= 2000; ++step) {
    const int action = static_cast<int>(rng() % 10);
    // Inline mostly, an overflow chain now and then (payload/4 = 120).
    const size_t len = rng() % 8 == 0 ? 130 + rng() % 300 : rng() % 60;
    std::string v = RandomBytes(&rng, len);
    if (action < 5 || model.empty()) {
      next += 1 + rng() % 4;
      Result<bool> r = tree_->Put(next, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value());
      model[next] = std::move(v);
    } else if (action < 7) {
      const uint64_t key = rng() % next;
      Result<bool> r = tree_->Put(key, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), model.count(key) == 0);
      model[key] = std::move(v);
    } else {
      auto it = model.lower_bound(rng() % (next + 1));
      if (it == model.end()) it = std::prev(it);
      std::string displaced;
      auto capture = [&](std::string_view old) {
        displaced.assign(old);
        return Status::OK();
      };
      Result<bool> r = action < 9 ? tree_->Replace(it->first, v, capture)
                                  : tree_->Erase(it->first, capture);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value());
      EXPECT_EQ(displaced, it->second) << "key " << it->first;
      if (action < 9) {
        it->second = std::move(v);
      } else {
        model.erase(it);
      }
    }
    Result<uint64_t> count = tree_->CheckInvariants();
    ASSERT_TRUE(count.ok()) << "step " << step << ": "
                            << count.status().ToString();
    ASSERT_EQ(count.value(), model.size()) << "step " << step;
    if (step % 250 == 0) {
      Commit(static_cast<uint64_t>(step));
      ExpectMatchesModel(model);
    }
  }
  ExpectMatchesModel(model);
}

// A fresh leaf's values cross the inline limit both ways: the replace that
// writes a chain and the one that frees it splice a copy, the inline edits
// between them work in place, and each replace hands back the old value. An
// erase that empties a fresh leaf leaves it to be merged away.
TEST_F(PagedBTreeTest, FreshLeafEditsCrossTheInlineLimitAndEmptyALeaf) {
  Model model;
  std::mt19937 rng(11);
  for (uint64_t k = 0; k < 60; ++k) {
    std::string v = RandomBytes(&rng, 20);
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ASSERT_EQ(PagesPerLevel().size(), 2u);
  for (uint64_t key : {0, 30, 59}) {
    for (size_t len : {300, 10, 700, 0, 25}) {
      std::string v = RandomBytes(&rng, len);
      std::string displaced;
      Result<bool> r = tree_->Replace(key, v, [&](std::string_view old) {
        displaced.assign(old);
        return Status::OK();
      });
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r.value());
      EXPECT_EQ(displaced, model[key]) << "key " << key << " len " << len;
      model[key] = std::move(v);
      ExpectMatchesModel(model);
    }
  }
  // An append that overflows the last leaf end-splits it, so the new key
  // sits alone in a fresh leaf, and erasing it empties that leaf.
  for (uint64_t k = 60; k < 200; ++k) {
    const std::string v = RandomBytes(&rng, 20);
    ASSERT_TRUE(tree_->Put(k, v).ok());
    Result<bool> r = tree_->Erase(k);
    ASSERT_TRUE(r.ok() && r.value()) << r.status().ToString();
    ExpectMatchesModel(model);
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = v;
  }
  ExpectMatchesModel(model);
  // Drain the tree from the back: every leaf empties in place in turn.
  for (uint64_t k = 200; k-- > 0;) {
    Result<bool> r = tree_->Erase(k);
    ASSERT_TRUE(r.ok() && r.value()) << r.status().ToString();
    model.erase(k);
    if (k % 20 == 0) ExpectMatchesModel(model);
  }
  EXPECT_TRUE(tree_->empty());
}

TEST_F(PagedBTreeTest, ReverseInsertThenDrainForward) {
  Model model;
  for (uint64_t k = 400; k > 0; --k) {
    std::string v = std::string("v" + std::to_string(k));
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
  Model model;
  std::mt19937 rng(3);
  for (uint64_t k = 0; k < 20; ++k) {
    std::string v = RandomBytes(&rng, 200 + k * 97);
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ExpectMatchesModel(model);

  // Replacing an overflow value must free the old chain: page usage stays
  // bounded across many replacements instead of leaking a chain per Put.
  for (int round = 0; round < 30; ++round) {
    std::string v = RandomBytes(&rng, 1500);
    ASSERT_TRUE(tree_->Put(5, v).ok());
    model[5] = std::move(v);
  }
  ASSERT_TRUE(pager_.Commit(tree_->root(), 1).ok());
  uint32_t count_after_commit = pager_.page_count();
  for (int round = 0; round < 30; ++round) {
    std::string v = RandomBytes(&rng, 1500);
    ASSERT_TRUE(tree_->Put(5, v).ok());
    model[5] = std::move(v);
  }
  // One epoch of churn may COW the path once, but 30 replaced chains (~4
  // pages each) must have been recycled, not appended.
  EXPECT_LT(pager_.page_count(), count_after_commit + 30);
  ExpectMatchesModel(model);
}

TEST_F(PagedBTreeTest, RandomizedOpsMatchReferenceModel) {
  Model model;
  std::mt19937 rng(12345);
  for (int op = 0; op < 3000; ++op) {
    uint64_t key = rng() % 300;
    int action = static_cast<int>(rng() % 10);
    if (action < 6) {  // put
      size_t len = rng() % 2 == 0 ? rng() % 40            // inline
                                  : 150 + rng() % 400;    // overflow
      std::string v = RandomBytes(&rng, len);
      Result<bool> r = tree_->Put(key, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), model.count(key) == 0);
      model[key] = std::move(v);
    } else if (action < 9) {  // erase
      Result<bool> r = tree_->Erase(key);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), model.erase(key) == 1);
    } else {  // point lookup
      std::string v;
      Result<bool> r = GetValue(tree_.get(), key, &v);
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

// The copy-on-write path and the unchanged-ancestor rule against the
// model: a commit every 200 ops makes every page durable, so the next write
// through it copies it to a fresh page, and a reopen every 1,000 ops reads
// the committed tree back from disk. Values are inline or overflow chains
// at random, so replaces move values across the inline limit both ways,
// and every replace and erase must hand back the value it displaced.
TEST_F(PagedBTreeTest, RandomizedOpsWithCommitsAndReopensMatchReferenceModel) {
  Model model;
  std::mt19937 rng(2026);
  uint64_t lsn = 0;
  for (int op = 1; op <= 6000; ++op) {
    const uint64_t key = rng() % 400;
    const int action = static_cast<int>(rng() % 10);
    // payload/4 = 120 at 512-byte pages.
    const size_t len = rng() % 2 == 0 ? rng() % 100 : 130 + rng() % 700;
    auto it = model.find(key);
    const bool present = it != model.end();
    std::string displaced;
    auto capture = [&](std::string_view old) {
      displaced.assign(old);
      return Status::OK();
    };
    if (action < 4) {
      std::string v = RandomBytes(&rng, len);
      Result<bool> r = tree_->Put(key, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), !present);
      model[key] = std::move(v);
    } else if (action < 7) {
      std::string v = RandomBytes(&rng, len);
      Result<bool> r = tree_->Replace(key, v, capture);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value(), present);
      if (present) {
        EXPECT_EQ(displaced, it->second) << "replace of key " << key;
        it->second = std::move(v);
      }
    } else if (action < 9) {
      Result<bool> r = tree_->Erase(key, capture);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value(), present);
      if (present) {
        EXPECT_EQ(displaced, it->second) << "erase of key " << key;
        model.erase(it);
      }
    } else {
      std::string v;
      Result<bool> r = GetValue(tree_.get(), key, &v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value(), present);
      if (present) {
        EXPECT_EQ(v, it->second);
      }
    }
    if (op % 200 == 0) {
      ASSERT_TRUE(cache_->FlushAll().ok());
      ASSERT_TRUE(pager_.Commit(tree_->root(), ++lsn).ok());
      Result<uint64_t> count = tree_->CheckInvariants();
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      ASSERT_EQ(count.value(), model.size());
    }
    if (op % 1000 == 0) {
      Reopen();
      ExpectMatchesModel(model);
    }
  }
  ExpectMatchesModel(model);
}

// A replace or erase of an absent key descends, finds nothing and writes
// nothing: no node of the committed path is copied, and the callback that
// would receive the old value is not called. A callback that fails stops
// the write before anything changes.
TEST_F(PagedBTreeTest, ReplaceAndEraseOfAnAbsentKeyWriteNothing) {
  for (uint64_t k = 0; k < 300; k += 2) {
    ASSERT_TRUE(tree_->Put(k, std::string("even-" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  ASSERT_TRUE(pager_.Commit(tree_->root(), 1).ok());
  const PageId root = tree_->root();
  const uint32_t pages = pager_.page_count();
  const size_t free_now = pager_.free_now();
  bool called = false;
  auto seen = [&](std::string_view) {
    called = true;
    return Status::OK();
  };
  Result<bool> r = tree_->Replace(151, "odd", seen);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value());
  r = tree_->Erase(151, seen);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value());
  EXPECT_FALSE(called);

  r = tree_->Replace(150, "changed", [](std::string_view old) {
    EXPECT_EQ(old, "even-150");
    return Status::Aborted("keep it");
  });
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  r = tree_->Erase(150, [](std::string_view) {
    return Status::Aborted("keep it");
  });
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);

  EXPECT_EQ(tree_->root(), root);
  EXPECT_EQ(pager_.page_count(), pages);
  EXPECT_EQ(pager_.free_now(), free_now);
  EXPECT_EQ(pager_.free_pending(), 0u);
  std::string v;
  ASSERT_TRUE(GetValue(tree_.get(), 150, &v).ok());
  EXPECT_EQ(v, "even-150");
}

// Once a write has copied the path to a leaf, later writes to that leaf
// edit it in place and keep its page id, so its parent still points at it
// and is neither re-encoded nor dirtied: one write-back, the leaf's.
TEST_F(PagedBTreeTest, AncestorOfALeafThatKeptItsPageIsNotRewritten) {
  for (uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree_->Put(k, std::string("value-" + std::to_string(k))).ok());
  }
  {
    Result<PageRef> ref = cache_->Pin(tree_->root());
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref.value().header().type, PageType::kInternal);
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  const PageId root = tree_->root();
  for (uint64_t k : {150, 151, 7}) {
    const uint64_t before = cache_->stats().dirty_writebacks;
    ASSERT_TRUE(tree_->Put(k, std::string("new-" + std::to_string(k))).ok());
    ASSERT_TRUE(tree_->Erase(k + 1000).ok());  // absent: writes nothing
    EXPECT_EQ(tree_->root(), root);
    ASSERT_TRUE(cache_->FlushAll().ok());
    EXPECT_EQ(cache_->stats().dirty_writebacks - before, 1u) << "key " << k;
  }
  std::string v;
  ASSERT_TRUE(GetValue(tree_.get(), 151, &v).ok());
  EXPECT_EQ(v, "new-151");
}

// Crafted, CRC-valid node pages, one fault each: every visit reads the node
// through the one reader, which must answer Corruption with the fault's
// message and, under ASan, read nothing past the payload.
TEST_F(PagedBTreeTest, LeafCountPastThePayloadIsCorruption) {
  UseCraftedRoot(PageType::kLeaf, NodeBytes().U16(3).Inline(5, "ab").Take());
  ExpectEveryVisitFails("truncated leaf entry");
}

TEST_F(PagedBTreeTest, TruncatedLeafEntryIsCorruption) {
  UseCraftedRoot(PageType::kLeaf,
                 NodeBytes().U16(2).Inline(5, "ab").U64(9).U8(1).U32(500).Take());
  ExpectEveryVisitFails("truncated overflow ref");
}

TEST_F(PagedBTreeTest, InlineLengthPastTheEndIsCorruption) {
  UseCraftedRoot(PageType::kLeaf,
                 NodeBytes().U16(1).U64(5).U8(0).U16(100).U32(0).Take());
  ExpectEveryVisitFails("truncated inline value");
}

TEST_F(PagedBTreeTest, UnknownValueKindIsCorruption) {
  UseCraftedRoot(PageType::kLeaf,
                 NodeBytes().U16(2).Inline(5, "ab").U64(9).U8(7).U16(0).Take());
  ExpectEveryVisitFails("unknown value kind");
}

TEST_F(PagedBTreeTest, NullOverflowHeadIsCorruption) {
  UseCraftedRoot(PageType::kLeaf,
                 NodeBytes().U16(1).U64(5).U8(1).U32(500).U32(0).Take());
  ExpectEveryVisitFails("null overflow head");
}

TEST_F(PagedBTreeTest, LeafTrailingBytesAreCorruption) {
  UseCraftedRoot(PageType::kLeaf,
                 NodeBytes().U16(1).Inline(5, "ab").U8(0).Take());
  ExpectEveryVisitFails("leaf trailing bytes");
}

TEST_F(PagedBTreeTest, TruncatedLeafIsCorruption) {
  UseCraftedRoot(PageType::kLeaf, NodeBytes().U8(1).Take());
  ExpectEveryVisitFails("truncated leaf");
}

// An internal payload is exactly 2 + 4 * (count + 1) + 8 * count bytes.
TEST_F(PagedBTreeTest, InternalPayloadOfTheWrongSizeIsCorruption) {
  const std::vector<uint8_t> whole =
      NodeBytes().U16(1).U32(100).U32(101).U64(7).Take();
  ASSERT_EQ(whole.size(), 2u + 4 * 2 + 8);
  std::vector<uint8_t> one_short(whole.begin(), whole.end() - 1);
  UseCraftedRoot(PageType::kInternal, one_short);
  ExpectEveryVisitFails("truncated keys");
  std::vector<uint8_t> one_long = whole;
  one_long.push_back(0);
  UseCraftedRoot(PageType::kInternal, one_long);
  ExpectEveryVisitFails("internal trailing bytes");
  UseCraftedRoot(PageType::kInternal, NodeBytes().U16(1).U32(100).Take());
  ExpectEveryVisitFails("truncated child list");
  UseCraftedRoot(PageType::kInternal, NodeBytes().U16(400).Take());
  ExpectEveryVisitFails("truncated child list");
  UseCraftedRoot(PageType::kInternal, NodeBytes().U8(0).Take());
  ExpectEveryVisitFails("truncated internal");
}

TEST_F(PagedBTreeTest, ScanFromMidpointAndEarlyStop) {
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Put(k * 3, std::string(std::to_string(k))).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->Scan(100, [&](uint64_t k, std::string_view) {
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
  Model model;
  std::mt19937 rng(9);
  for (uint64_t k = 0; k < 250; ++k) {
    std::string v = RandomBytes(&rng, k % 7 == 0 ? 300 : 20);  // mixed
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
  Model model;
  for (uint64_t k = 0; k < 100; ++k) {
    std::string v = std::string("committed-" + std::to_string(k));
    ASSERT_TRUE(tree_->Put(k, v).ok());
    model[k] = std::move(v);
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  ASSERT_TRUE(pager_.Commit(tree_->root(), 1).ok());
  PageId committed_root = tree_->root();

  // Mutate heavily after the commit, flush the cache (dirty pages reach
  // disk), but do NOT commit — the meta slot still points at the old epoch.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Put(k, std::string("uncommitted")).ok());
  }
  for (uint64_t k = 100; k < 150; ++k) {
    ASSERT_TRUE(tree_->Put(k, std::string("extra")).ok());
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

// The epoch rule under in-place edits. After a commit, appends, replaces and
// erases at the right edge copy the committed last leaf once and then edit
// the fresh copy where it lies. Flushed but not committed, none of it
// reaches the committed tree; committed, all of it reads back.
TEST_F(PagedBTreeTest, InPlaceEditsOfTheRightEdgeLeafVanishUntilCommitted) {
  Model committed;
  for (uint64_t k = 0; k < 100; ++k) {
    committed[k] = "committed-" + std::to_string(k);
    ASSERT_TRUE(tree_->Put(k, committed[k]).ok());
  }
  Commit(1);
  const PageId committed_root = tree_->root();

  // Returns the model after the edits.
  auto edit = [&] {
    Model model = committed;
    // Enough appends that the erases leave the new right leaf above a
    // quarter page: a rebalance would copy the committed leaf and so hide
    // an edit made to it in place.
    for (uint64_t k = 100; k < 116; ++k) {
      model[k] = "appended-" + std::to_string(k);
      EXPECT_TRUE(tree_->Put(k, model[k]).ok());
    }
    for (uint64_t k : {99, 103, 115}) {
      model[k] = "replaced-" + std::to_string(k);
      EXPECT_TRUE(tree_->Replace(k, model[k], [](std::string_view) {
                           return Status::OK();
                         }).value());
    }
    for (uint64_t k : {98, 104}) {
      EXPECT_TRUE(tree_->Erase(k).value());
      model.erase(k);
    }
    return model;
  };
  const Model edited = edit();
  ExpectMatchesModel(edited);
  ASSERT_TRUE(cache_->FlushAll().ok());

  Reopen();
  EXPECT_EQ(pager_.catalog_head(), committed_root);
  ExpectMatchesModel(committed);

  EXPECT_EQ(edit(), edited);
  Commit(2);
  Reopen();
  ExpectMatchesModel(edited);
}

TEST_F(PagedBTreeTest, DestroyFreesEveryPage) {
  ASSERT_TRUE(pager_.Commit(kNullPage, 1).ok());
  size_t free_before = pager_.free_now();
  uint32_t count_before = pager_.page_count();
  std::mt19937 rng(5);
  for (uint64_t k = 0; k < 300; ++k) {
    std::string v = RandomBytes(&rng, k % 11 == 0 ? 400 : 16);
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
