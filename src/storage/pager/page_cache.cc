#include "storage/pager/page_cache.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace itag::storage::pager {

namespace {

/// Process-wide storage.page.* cache metrics (docs/observability.md).
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Gauge* resident;

  static const CacheMetrics& Get() {
    static const CacheMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      CacheMetrics s;
      s.hits = reg.GetCounter("storage.page.cache_hits");
      s.misses = reg.GetCounter("storage.page.cache_misses");
      s.evictions = reg.GetCounter("storage.page.evictions");
      s.resident = reg.GetGauge("storage.page.cache_resident");
      return s;
    }();
    return m;
  }
};

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = other.frame_;
    other.frame_ = nullptr;
  }
  return *this;
}

PageCache::PageCache(Pager* pager, size_t capacity_bytes) : pager_(pager) {
  size_t frame_bytes = pager->page_size();
  capacity_frames_ = capacity_bytes / frame_bytes;
  if (capacity_frames_ == 0) capacity_frames_ = 1;
}

PageCache::~PageCache() {
  CacheMetrics::Get().resident->Sub(static_cast<int64_t>(frames_.size()));
}

Result<PageRef> PageCache::Pin(PageId id) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++it->second.pins;
    it->second.referenced = true;
    ++stats_.hits;
    CacheMetrics::Get().hits->Inc();
    return PageRef(&it->second);
  }
  ++stats_.misses;
  CacheMetrics::Get().misses->Inc();
  // A miss is the cache's only IO-bearing path (evict may write, the fill
  // always reads) — worth a span of its own on traced requests.
  obs::Span span("storage.page_cache.miss");
  span.Annotate("page", static_cast<uint64_t>(id));
  ITAG_RETURN_IF_ERROR(EvictForSpace());
  PageFrame frame;
  ITAG_RETURN_IF_ERROR(pager_->ReadPage(id, &frame.image));
  frame.pins = 1;
  frame.referenced = true;
  return PageRef(AddFrame(id, std::move(frame)));
}

Result<PageRef> PageCache::PinNew(PageId id, PageType type) {
  // A fresh page is never cached; one that is came from a corrupted free
  // list, and framing it anew would write over a live page.
  if (frames_.count(id) != 0) {
    return Status::Corruption("allocated page " + std::to_string(id) +
                              " is still cached");
  }
  ITAG_RETURN_IF_ERROR(EvictForSpace());
  PageFrame frame;
  frame.image.header.page_id = id;
  frame.image.header.type = type;
  frame.pins = 1;
  frame.dirty = true;
  frame.referenced = true;
  return PageRef(AddFrame(id, std::move(frame)));
}

PageFrame* PageCache::AddFrame(PageId id, PageFrame frame) {
  frame.stamp = ++next_stamp_;
  clock_order_.push_back({id, frame.stamp});
  CacheMetrics::Get().resident->Add(1);
  return &frames_.emplace(id, std::move(frame)).first->second;
}

PageFrame* PageCache::LiveFrame(const Ticket& ticket) {
  auto it = frames_.find(ticket.id);
  return it == frames_.end() || it->second.stamp != ticket.stamp
             ? nullptr
             : &it->second;
}

void PageCache::Drop(PageId id) {
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  assert(it->second.pins == 0 && "dropping a pinned page");
  frames_.erase(it);  // ring entry goes stale; the clock skips it
  CacheMetrics::Get().resident->Sub(1);
  if (clock_order_.size() > kTicketsPerFrame * frames_.size()) CompactRing();
}

void PageCache::CompactRing() {
  // The sweep retires a stale ticket without moving the hand or counting a
  // step, so retiring it early changes no sweep. A full cache's sweep
  // retires stale tickets as it goes, so its ring seldom reaches the
  // threshold; a cache that never fills picks no victim at all.
  size_t kept = 0;
  size_t hand = 0;
  for (size_t i = 0; i < clock_order_.size(); ++i) {
    if (i == clock_hand_) hand = kept;
    if (LiveFrame(clock_order_[i]) != nullptr) {
      clock_order_[kept++] = clock_order_[i];
    }
  }
  if (clock_hand_ >= clock_order_.size()) hand = kept;
  clock_order_.resize(kept);
  clock_hand_ = hand;
}

Status PageCache::WriteBack(PageFrame* frame) {
  ITAG_RETURN_IF_ERROR(pager_->WritePage(&frame->image));
  frame->dirty = false;
  ++stats_.dirty_writebacks;
  return Status::OK();
}

Status PageCache::EvictForSpace() {
  // Second-chance sweep; gives up (and lets the cache exceed budget) when a
  // full lap finds only pinned frames.
  while (frames_.size() >= capacity_frames_) {
    bool evicted = false;
    size_t steps = 0;
    const size_t max_steps = 2 * clock_order_.size();
    while (steps < max_steps && !clock_order_.empty()) {
      if (clock_hand_ >= clock_order_.size()) clock_hand_ = 0;
      const Ticket ticket = clock_order_[clock_hand_];
      PageFrame* live = LiveFrame(ticket);
      if (live == nullptr) {
        // Stale ticket of an evicted/dropped frame, or of an earlier frame
        // of a page framed again — retire it.
        clock_order_.erase(clock_order_.begin() +
                           static_cast<ptrdiff_t>(clock_hand_));
        continue;
      }
      ++steps;
      PageFrame& frame = *live;
      if (frame.pins > 0) {
        ++clock_hand_;
        continue;
      }
      if (frame.referenced) {
        frame.referenced = false;
        ++clock_hand_;
        continue;
      }
      if (frame.dirty) {
        ITAG_RETURN_IF_ERROR(WriteBack(&frame));
      }
      frames_.erase(ticket.id);
      clock_order_.erase(clock_order_.begin() +
                         static_cast<ptrdiff_t>(clock_hand_));
      ++stats_.evictions;
      CacheMetrics::Get().evictions->Inc();
      CacheMetrics::Get().resident->Sub(1);
      evicted = true;
      break;
    }
    if (!evicted) break;  // pin pressure: grow past budget rather than fail
  }
  return Status::OK();
}

Status PageCache::FlushAll() {
  for (auto& entry : frames_) {
    if (entry.second.dirty) {
      ITAG_RETURN_IF_ERROR(WriteBack(&entry.second));
    }
  }
  return Status::OK();
}

}  // namespace itag::storage::pager
