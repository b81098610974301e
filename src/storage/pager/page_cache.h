#ifndef ITAG_STORAGE_PAGER_PAGE_CACHE_H_
#define ITAG_STORAGE_PAGER_PAGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager/page.h"
#include "storage/pager/pager.h"

namespace itag::storage::pager {

/// One resident page: its image, pin count and clock state. Frames live in
/// a node-based map, so a frame's address is stable while it is resident.
struct PageFrame {
  PageImage image;
  uint32_t pins = 0;
  bool dirty = false;
  bool referenced = false;  // clock second-chance bit
  uint64_t stamp = 0;       // stamp of the frame's one live clock ticket
};

/// RAII pin on one cached page. While any PageRef to a page is alive the
/// frame cannot be evicted; destruction unpins. Mutators go through
/// image()/MarkDirty so write-back happens on eviction or FlushAll. The ref
/// holds its frame, so none of these looks the page up again.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return frame_ != nullptr; }
  PageImage& image() { return frame_->image; }
  const PageImage& image() const { return frame_->image; }
  PageHeader& header() { return image().header; }
  std::vector<uint8_t>& payload() { return image().payload; }
  const std::vector<uint8_t>& payload() const { return image().payload; }
  /// Marks the frame dirty — it will be written back before eviction and
  /// at FlushAll. Every mutation of image() must be paired with this.
  void MarkDirty() { frame_->dirty = true; }
  /// Drops the pin early (idempotent).
  void Release() {
    if (frame_ != nullptr) --frame_->pins;
    frame_ = nullptr;
  }

 private:
  friend class PageCache;
  explicit PageRef(PageFrame* frame) : frame_(frame) {}
  PageFrame* frame_ = nullptr;
};

/// Per-cache counters (the process-wide storage.page.* metrics aggregate
/// across caches; tests want per-instance numbers).
struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// Bounded cache of decoded page frames over one Pager, with pin counts
/// and clock (second-chance) eviction.
///
///  * `Pin` faults the page in on miss, evicting the first unpinned frame
///    whose reference bit is clear (dirty victims are written back first).
///  * Pinned frames are never evicted. When every frame is pinned the cache
///    grows past its budget instead of failing — pin pressure is a caller
///    bug the engine survives — and shrinks back to budget as soon as later
///    Pins find unpinned victims; the `storage.page.cache_resident` gauge
///    makes an over-budget cache visible.
///  * Single-writer like the Pager; no internal locking.
class PageCache {
 public:
  /// `capacity_bytes` is a budget, floored at one frame.
  PageCache(Pager* pager, size_t capacity_bytes);
  ~PageCache();
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Pins page `id`, reading it from the pager on miss.
  Result<PageRef> Pin(PageId id);

  /// Pins a brand-new frame for freshly allocated page `id` without reading
  /// the (garbage) slot; the frame starts dirty with the given type.
  Result<PageRef> PinNew(PageId id, PageType type);

  /// Discards the frame for `id` (page was freed): no write-back. Its
  /// ticket goes stale, and stays stale if the page is framed again (the
  /// new frame gets a ticket of its own). Once the clock ring holds more
  /// than kTicketsPerFrame tickets per resident frame its stale tickets are
  /// retired, so a cache that never fills, and so never sweeps, keeps a
  /// ring a few times the size of its frames.
  void Drop(PageId id);

  /// Writes back every dirty frame (checkpoint). Frames stay resident.
  Status FlushAll();

  size_t resident() const { return frames_.size(); }
  size_t capacity_frames() const { return capacity_frames_; }
  /// Tickets in the clock ring, stale ones included (test hook).
  size_t clock_ring_size() const { return clock_order_.size(); }
  const PageCacheStats& stats() const { return stats_; }

 private:
  static constexpr size_t kTicketsPerFrame = 4;

  /// One entry of the clock ring: a page id and the stamp of the frame it
  /// was made for. It is live while a frame of that page holds that stamp.
  struct Ticket {
    PageId id;
    uint64_t stamp;
  };

  /// Evicts down to capacity; stops early when only pinned frames remain.
  Status EvictForSpace();
  Status WriteBack(PageFrame* frame);
  /// Frames `frame` as page `id`, with a new stamp and a ticket at the
  /// ring's end.
  PageFrame* AddFrame(PageId id, PageFrame frame);
  /// The frame `ticket` is live for, or null when the ticket is stale.
  PageFrame* LiveFrame(const Ticket& ticket);
  /// Retires the stale tickets, keeping the order of the rest and the hand
  /// on the same next ticket.
  void CompactRing();

  Pager* pager_;
  size_t capacity_frames_;
  std::unordered_map<PageId, PageFrame> frames_;
  /// Insertion ring the clock hand walks; each resident frame has exactly
  /// one live ticket in it. A dropped or evicted frame's ticket stays stale
  /// until the hand retires it or the ring is compacted.
  std::vector<Ticket> clock_order_;
  size_t clock_hand_ = 0;
  uint64_t next_stamp_ = 0;
  PageCacheStats stats_;
};

}  // namespace itag::storage::pager

#endif  // ITAG_STORAGE_PAGER_PAGE_CACHE_H_
