#include "storage/pager/pager.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/crc32.h"
#include "storage/pager/page_cache.h"

namespace itag::storage::pager {
namespace {

namespace fs = std::filesystem;

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("itag_pager_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/pages.db";
  }
  void TearDown() override { fs::remove_all(dir_); }

  PagerOptions Opts() {
    PagerOptions o;
    o.path = path_;
    o.page_size = 512;  // small pages keep multi-page structures cheap
    return o;
  }

  std::string dir_;
  std::string path_;
};

// --------------------------------------------------------------------------
// Pager: format, read/write, reopen

TEST_F(PagerTest, FormatsAndReopensEmptyFile) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  EXPECT_EQ(pager.epoch(), 1u);
  EXPECT_EQ(pager.page_count(), kFirstDataPage);
  pager.Close();

  Pager again;
  ASSERT_TRUE(again.Open(Opts()).ok());
  EXPECT_EQ(again.page_count(), kFirstDataPage);
}

TEST_F(PagerTest, RejectsPageSizeMismatchOnReopen) {
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    // Commit once so the even-epoch meta lands in slot A (offset 0), which
    // is readable at any assumed page size — the mismatch then surfaces as
    // InvalidArgument instead of "no valid meta slot".
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
  }
  PagerOptions other = Opts();
  other.page_size = 1024;
  Pager pager;
  EXPECT_TRUE(pager.Open(other).IsInvalidArgument());
}

TEST_F(PagerTest, WriteReadRoundTripSurvivesReopenAfterCommit) {
  PageId id;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    id = alloc.value();
    PageImage img;
    img.header.page_id = id;
    img.header.type = PageType::kLeaf;
    img.payload = {1, 2, 3, 4, 5};
    ASSERT_TRUE(pager.WritePage(&img).ok());
    ASSERT_TRUE(pager.Commit(kNullPage, 7).ok());
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  EXPECT_EQ(pager.epoch(), 2u);
  EXPECT_EQ(pager.checkpoint_lsn(), 7u);
  PageImage img;
  ASSERT_TRUE(pager.ReadPage(id, &img).ok());
  EXPECT_EQ(img.payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(img.header.type, PageType::kLeaf);
}

TEST_F(PagerTest, TornPageReadsAsTypedCorruption) {
  PageId id;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    id = alloc.value();
    PageImage img;
    img.header.page_id = id;
    img.header.type = PageType::kLeaf;
    img.payload = std::vector<uint8_t>(100, 0xAB);
    ASSERT_TRUE(pager.WritePage(&img).ok());
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
  }
  {
    // Flip one payload byte on disk — simulates a torn/corrupted sector.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(id) * 512 + kPageHeaderSize + 10);
    char b = 0x00;
    f.write(&b, 1);
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageImage img;
  Status s = pager.ReadPage(id, &img);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos);
}

// The writer never sets flag bit 0 and always stores a payload as it is, so
// a slot with a valid checksum that carries the flag, or a stored length
// unequal to its payload length, is corrupt, not a page to decode.
TEST_F(PagerTest, FlaggedOrLengthMismatchedSlotReadsAsTypedCorruption) {
  PageId id;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    id = alloc.value();
    PageImage img;
    img.header.page_id = id;
    img.header.type = PageType::kLeaf;
    img.payload = std::vector<uint8_t>(100, 0xAB);
    ASSERT_TRUE(pager.WritePage(&img).ok());
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
  }
  const std::streamoff slot_at = static_cast<std::streamoff>(id) * 512;
  std::vector<char> written(512);
  {
    std::ifstream f(path_, std::ios::binary);
    f.seekg(slot_at);
    f.read(written.data(), 512);
  }
  // Header byte 9 is the flags byte; bytes 10-11 hold payload_len (LE).
  const std::vector<std::pair<size_t, char>> edits = {{9, 0x01}, {10, 99}};
  for (const auto& [offset, value] : edits) {
    SCOPED_TRACE("header byte " + std::to_string(offset));
    std::vector<char> slot = written;
    slot[offset] = value;
    // Restamp the checksum over the header (crc zeroed) and the 100 stored
    // bytes, so only the edited field is wrong.
    std::fill(slot.begin(), slot.begin() + 4, 0);
    const uint32_t crc = Crc32(slot.data(), kPageHeaderSize + 100);
    for (int i = 0; i < 4; ++i) slot[i] = static_cast<char>(crc >> (8 * i));
    {
      std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(slot_at);
      f.write(slot.data(), 512);
    }
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    PageImage img;
    Status s = pager.ReadPage(id, &img);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("reserved flag"), std::string::npos);
  }
}

TEST_F(PagerTest, MisdirectedWriteDetectedBySelfId) {
  PageId a, b;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> ra = pager.Allocate();
    Result<PageId> rb = pager.Allocate();
    ASSERT_TRUE(ra.ok() && rb.ok());
    a = ra.value();
    b = rb.value();
    for (PageId id : {a, b}) {
      PageImage img;
      img.header.page_id = id;
      img.header.type = PageType::kLeaf;
      img.payload = {static_cast<uint8_t>(id)};
      ASSERT_TRUE(pager.WritePage(&img).ok());
    }
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
  }
  {
    // Copy page a's slot over page b's slot: the copy has a valid CRC but
    // the wrong self-id — a misdirected write.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    std::vector<char> buf(512);
    f.seekg(static_cast<std::streamoff>(a) * 512);
    f.read(buf.data(), 512);
    f.seekp(static_cast<std::streamoff>(b) * 512);
    f.write(buf.data(), 512);
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageImage img;
  Status s = pager.ReadPage(b, &img);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("misdirected"), std::string::npos);
}

// --------------------------------------------------------------------------
// Free-list epochs and the dual-meta commit protocol

TEST_F(PagerTest, FreedPageNotReusedUntilNextCommit) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  Result<PageId> ra = pager.Allocate();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());

  // Freed after the commit: the committed tree may reference it, so it must
  // sit in pending and not be handed out this epoch.
  pager.Free(ra.value());
  EXPECT_EQ(pager.free_pending(), 1u);
  Result<PageId> rb = pager.Allocate();
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(rb.value(), ra.value());

  // After the next commit the page is allocatable again.
  ASSERT_TRUE(pager.Commit(kNullPage, 2).ok());
  bool seen = false;
  for (int i = 0; i < 8 && !seen; ++i) {
    Result<PageId> r = pager.Allocate();
    ASSERT_TRUE(r.ok());
    seen = r.value() == ra.value();
  }
  EXPECT_TRUE(seen);
}

TEST_F(PagerTest, FreshPageFreedReturnsToAllocatable) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  Result<PageId> ra = pager.Allocate();
  ASSERT_TRUE(ra.ok());
  EXPECT_TRUE(pager.IsFresh(ra.value()));
  uint32_t count_before = pager.page_count();
  // Never committed, so nothing durable references it — free_now directly.
  pager.Free(ra.value());
  Result<PageId> rb = pager.Allocate();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value(), ra.value());
  EXPECT_EQ(pager.page_count(), count_before);
}

TEST_F(PagerTest, FreeListSurvivesReopen) {
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> ra = pager.Allocate();
    Result<PageId> rb = pager.Allocate();
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
    pager.Free(ra.value());
    ASSERT_TRUE(pager.Commit(kNullPage, 2).ok());
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  // The freed page is on the durable free list and gets reused before the
  // file grows.
  uint32_t count_before = pager.page_count();
  Result<PageId> r = pager.Allocate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(pager.page_count(), count_before);
}

// Allocate hands free-list ids out as fresh pages, so Open refuses a list
// that names a meta slot, a page at or past the page count, or one page
// twice: any of them would have a new node written over a live page.
TEST_F(PagerTest, FreeListNamingABadPageFailsOpen) {
  PageId a = 0;
  uint32_t count = 0;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    a = pager.Allocate().value();
    PageId b = pager.Allocate().value();
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());
    pager.Free(a);
    pager.Free(b);
    ASSERT_TRUE(pager.Commit(kNullPage, 2).ok());
    count = pager.page_count();
  }
  const std::string good = path_ + ".good";
  fs::copy_file(path_, good);
  const std::vector<std::vector<uint32_t>> bad_lists = {
      {0}, {1}, {count}, {a, count + 7}, {a, a}};
  for (const std::vector<uint32_t>& bad : bad_lists) {
    fs::copy_file(good, path_, fs::copy_options::overwrite_existing);
    {
      // With no catalog, the only catalog-typed page is the free list.
      Pager pager;
      ASSERT_TRUE(pager.Open(Opts()).ok());
      bool rewritten = false;
      for (PageId id = kFirstDataPage; id < pager.page_count(); ++id) {
        PageImage img;
        if (!pager.ReadPage(id, &img).ok() ||
            img.header.type != PageType::kCatalog) {
          continue;
        }
        ByteWriter w;
        w.U32Vec(bad);
        img.payload.assign(w.buffer().begin(), w.buffer().end());
        ASSERT_TRUE(pager.WritePage(&img).ok());
        rewritten = true;
      }
      ASSERT_TRUE(rewritten);
    }
    Pager pager;
    Status s = pager.Open(Opts());
    EXPECT_TRUE(s.IsCorruption()) << bad.size() << " ids: " << s.ToString();
  }
  fs::copy_file(good, path_, fs::copy_options::overwrite_existing);
  Pager pager;
  EXPECT_TRUE(pager.Open(Opts()).ok());
}

// A fresh page is never cached, so PinNew refuses one that is, in every
// build, rather than framing it over the live frame.
TEST_F(PagerTest, PinNewOfACachedPageIsCorruption) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 8 * 512);
  const PageId id = pager.Allocate().value();
  Result<PageRef> live = cache.PinNew(id, PageType::kLeaf);
  ASSERT_TRUE(live.ok());
  live.value().payload().assign(3, 7);
  live.value().MarkDirty();
  Result<PageRef> again = cache.PinNew(id, PageType::kOverflow);
  EXPECT_TRUE(again.status().IsCorruption()) << again.status().ToString();
  EXPECT_EQ(live.value().header().type, PageType::kLeaf);
  EXPECT_EQ(live.value().payload(), std::vector<uint8_t>(3, 7));
  EXPECT_EQ(cache.resident(), 1u);
}

TEST_F(PagerTest, TornMetaWriteFallsBackToPreviousEpoch) {
  PageId id;
  {
    Pager pager;
    ASSERT_TRUE(pager.Open(Opts()).ok());
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    id = alloc.value();
    PageImage img;
    img.header.page_id = id;
    img.header.type = PageType::kLeaf;
    img.payload = {42};
    ASSERT_TRUE(pager.WritePage(&img).ok());
    ASSERT_TRUE(pager.Commit(kNullPage, 1).ok());  // epoch 2 -> slot A
    ASSERT_TRUE(pager.Commit(kNullPage, 2).ok());  // epoch 3 -> slot B
  }
  {
    // Corrupt the epoch-3 meta (slot B): simulates a torn meta write. Open
    // must fall back to epoch 2 in slot A.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kMetaSlotB) * 512 + kPageHeaderSize);
    char junk[4] = {0, 0, 0, 0};
    f.write(junk, 4);
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  EXPECT_EQ(pager.epoch(), 2u);
  EXPECT_EQ(pager.checkpoint_lsn(), 1u);
  PageImage img;
  ASSERT_TRUE(pager.ReadPage(id, &img).ok());
  EXPECT_EQ(img.payload, std::vector<uint8_t>{42});
}

// --------------------------------------------------------------------------
// PageCache

TEST_F(PagerTest, CacheHitsMissesAndWriteBack) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 8 * 512);

  Result<PageId> alloc = pager.Allocate();
  ASSERT_TRUE(alloc.ok());
  PageId id = alloc.value();
  {
    Result<PageRef> ref = cache.PinNew(id, PageType::kLeaf);
    ASSERT_TRUE(ref.ok());
    ref.value().payload() = {9, 9, 9};
  }
  {
    Result<PageRef> ref = cache.Pin(id);  // hit: still resident
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().payload(), (std::vector<uint8_t>{9, 9, 9}));
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(cache.stats().dirty_writebacks, 1u);

  PageImage img;
  ASSERT_TRUE(pager.ReadPage(id, &img).ok());
  EXPECT_EQ(img.payload, (std::vector<uint8_t>{9, 9, 9}));
}

TEST_F(PagerTest, CacheEvictsUnpinnedAndWritesBackDirtyVictims) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 4 * 512);  // 4 frames

  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    ids.push_back(alloc.value());
    Result<PageRef> ref = cache.PinNew(alloc.value(), PageType::kLeaf);
    ASSERT_TRUE(ref.ok());
    ref.value().payload() = {static_cast<uint8_t>(i)};
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.resident(), 4u);
  // Every dirty victim was written back: all 12 payloads are readable.
  for (int i = 0; i < 12; ++i) {
    Result<PageRef> ref = cache.Pin(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().payload(),
              std::vector<uint8_t>{static_cast<uint8_t>(i)});
  }
}

TEST_F(PagerTest, CacheGrowsPastBudgetUnderPinPressureThenShrinksBack) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 2 * 512);  // 2 frames

  std::vector<PageRef> pins;
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    ids.push_back(alloc.value());
    Result<PageRef> ref = cache.PinNew(alloc.value(), PageType::kLeaf);
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref.value()));
  }
  // All six frames pinned: the cache had no choice but to exceed budget.
  EXPECT_EQ(cache.resident(), 6u);

  pins.clear();  // unpin everything
  // The next miss finds victims again and drains the cache back to budget.
  Result<PageId> extra = pager.Allocate();
  ASSERT_TRUE(extra.ok());
  {
    Result<PageRef> ref = cache.PinNew(extra.value(), PageType::kLeaf);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_LE(cache.resident(), 2u);
}

// A cache larger than its working set never sweeps, so only the drop
// itself can retire the ticket a freed page leaves in the clock ring; the
// ring must not grow by one id per copy-on-write or freed overflow page.
TEST_F(PagerTest, ClockRingStaysNearResidentFramesWhenCacheNeverFills) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 64 * 512);  // 64 frames; at most 9 ever resident

  std::vector<PageId> resident;
  for (int i = 0; i < 8; ++i) {
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    resident.push_back(alloc.value());
    ASSERT_TRUE(cache.PinNew(alloc.value(), PageType::kLeaf).ok());
  }
  size_t widest = 0;
  for (int i = 0; i < 100000; ++i) {
    // The pager hands a freed fresh page straight out again, so this is
    // also the same page id dropped and pinned anew, over and over.
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    ASSERT_TRUE(cache.PinNew(alloc.value(), PageType::kOverflow).ok());
    ASSERT_TRUE(cache.Pin(resident[static_cast<size_t>(i) % 8]).ok());
    widest = std::max(widest, cache.clock_ring_size());
    cache.Drop(alloc.value());
    pager.Free(alloc.value());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.resident(), 8u);
  EXPECT_LE(widest, 4 * (cache.resident() + 1) + 1);
  EXPECT_LE(cache.clock_ring_size(), 4 * cache.resident());
}

// Compacting the ring keeps the clock's order: the sweep skips stale
// tickets without a step, so a compacted ring evicts what the full one
// would have, in the same order.
TEST_F(PagerTest, ClockRingCompactionKeepsEvictionOrder) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 8 * 512);  // 8 frames

  auto pin_new = [&]() {
    Result<PageId> alloc = pager.Allocate();
    EXPECT_TRUE(alloc.ok());
    EXPECT_TRUE(cache.PinNew(alloc.value(), PageType::kLeaf).ok());
    return alloc.value();
  };
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(pin_new());
  // Seven drops leave one frame and seven stale tickets; the drop that
  // left more than four tickets per frame compacted the ring.
  for (int i = 1; i <= 7; ++i) cache.Drop(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(cache.clock_ring_size(), 1u);
  // Refill to budget, then two more: every frame is referenced, so the
  // first lap clears every bit and the frames go in ring order, oldest
  // first: ids[0], then the first refill.
  std::vector<PageId> later;
  for (int i = 0; i < 7; ++i) later.push_back(pin_new());
  EXPECT_EQ(cache.stats().evictions, 0u);
  pin_new();
  pin_new();
  EXPECT_EQ(cache.stats().evictions, 2u);
  ASSERT_TRUE(cache.Pin(later[1]).ok());
  EXPECT_EQ(cache.stats().misses, 0u);
  ASSERT_TRUE(cache.Pin(later[0]).ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.Pin(ids[0]).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
}


// A page freed and framed again before the hand passes its old ticket
// still has one ticket: the sweep gives the re-framed page its second
// chance like every other frame and evicts the oldest one instead.
TEST_F(PagerTest, ReframedPageKeepsOneClockTicket) {
  Pager pager;
  ASSERT_TRUE(pager.Open(Opts()).ok());
  PageCache cache(&pager, 4 * 512);  // 4 frames

  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    Result<PageId> alloc = pager.Allocate();
    ASSERT_TRUE(alloc.ok());
    ids.push_back(alloc.value());
    ASSERT_TRUE(cache.PinNew(alloc.value(), PageType::kLeaf).ok());
  }
  // Free ids[1] and allocate again: the pager hands the same page back.
  cache.Drop(ids[1]);
  pager.Free(ids[1]);
  Result<PageId> again = pager.Allocate();
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value(), ids[1]);
  ASSERT_TRUE(cache.PinNew(again.value(), PageType::kOverflow).ok());
  EXPECT_EQ(cache.resident(), 4u);

  // A fifth page: the first lap clears every reference bit, so the oldest
  // frame, ids[0], goes, and the re-framed page stays.
  Result<PageId> fifth = pager.Allocate();
  ASSERT_TRUE(fifth.ok());
  ASSERT_TRUE(cache.PinNew(fifth.value(), PageType::kLeaf).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_TRUE(cache.Pin(ids[1]).ok());
  EXPECT_EQ(cache.stats().misses, 0u);
  ASSERT_TRUE(cache.Pin(ids[0]).ok());
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace itag::storage::pager
