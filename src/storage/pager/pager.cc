#include "storage/pager/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/binio.h"
#include "common/crc32.h"
#include "obs/metrics.h"

namespace itag::storage::pager {

namespace {

/// Process-wide storage.page.* physical-IO counters (see
/// docs/observability.md); shards aggregate, tests use Pager::stats().
struct PageIoMetrics {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* bytes_written;

  static const PageIoMetrics& Get() {
    static const PageIoMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      PageIoMetrics s;
      s.reads = reg.GetCounter("storage.page.reads");
      s.writes = reg.GetCounter("storage.page.writes");
      s.bytes_written = reg.GetCounter("storage.page.bytes_written");
      return s;
    }();
    return m;
  }
};

/// Meta-slot payload layout (little-endian, via common/binio.h).
struct MetaBlock {
  uint32_t page_size = 0;
  uint64_t epoch = 0;
  uint32_t page_count = 0;
  PageId catalog_head = kNullPage;
  PageId freelist_head = kNullPage;
  uint64_t checkpoint_lsn = 0;
};

std::string EncodeMeta(const MetaBlock& m) {
  ByteWriter w;
  w.U32(kPagerMagic);
  w.U32(kPagerVersion);
  w.U32(m.page_size);
  w.U64(m.epoch);
  w.U32(m.page_count);
  w.U32(m.catalog_head);
  w.U32(m.freelist_head);
  w.U64(m.checkpoint_lsn);
  return w.Take();
}

bool DecodeMeta(const uint8_t* data, size_t n, MetaBlock* out) {
  ByteReader r(std::string_view(reinterpret_cast<const char*>(data), n));
  uint32_t magic = 0, version = 0;
  if (!r.U32(&magic) || !r.U32(&version)) return false;
  if (magic != kPagerMagic || version != kPagerVersion) return false;
  return r.U32(&out->page_size) && r.U64(&out->epoch) &&
         r.U32(&out->page_count) && r.U32(&out->catalog_head) &&
         r.U32(&out->freelist_head) && r.U64(&out->checkpoint_lsn) &&
         r.AtEnd();
}

/// Serializes a page header into the first kPageHeaderSize bytes of `buf`
/// with an explicit field-by-field layout (no struct memcpy — padding and
/// endianness stay out of the file format).
void PutHeader(const PageHeader& h, uint8_t* buf) {
  auto put32 = [&](size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[off + i] = (v >> (8 * i)) & 0xFF;
  };
  auto put16 = [&](size_t off, uint16_t v) {
    buf[off] = v & 0xFF;
    buf[off + 1] = (v >> 8) & 0xFF;
  };
  put32(0, h.crc);
  put32(4, h.page_id);
  buf[8] = static_cast<uint8_t>(h.type);
  buf[9] = h.flags;
  put16(10, h.payload_len);
  put16(12, h.stored_len);
  buf[14] = buf[15] = 0;
  for (int i = 0; i < 8; ++i) buf[16 + i] = (h.lsn >> (8 * i)) & 0xFF;
  put32(24, h.next);
  put32(28, 0);  // reserved tail
}

void GetHeader(const uint8_t* buf, PageHeader* h) {
  auto get32 = [&](size_t off) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf[off + i]) << (8 * i);
    return v;
  };
  h->crc = get32(0);
  h->page_id = get32(4);
  h->type = static_cast<PageType>(buf[8]);
  h->flags = buf[9];
  h->payload_len = static_cast<uint16_t>(buf[10] | (buf[11] << 8));
  h->stored_len = static_cast<uint16_t>(buf[12] | (buf[13] << 8));
  uint64_t lsn = 0;
  for (int i = 0; i < 8; ++i) lsn |= static_cast<uint64_t>(buf[16 + i]) << (8 * i);
  h->lsn = lsn;
  h->next = get32(24);
}

}  // namespace

const char* PageTypeName(PageType t) {
  switch (t) {
    case PageType::kFree: return "free";
    case PageType::kMeta: return "meta";
    case PageType::kCatalog: return "catalog";
    case PageType::kInternal: return "internal";
    case PageType::kLeaf: return "leaf";
    case PageType::kOverflow: return "overflow";
  }
  return "?";
}

Pager::~Pager() { Close(); }

void Pager::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Pager::Open(const PagerOptions& options) {
  Close();
  options_ = options;
  if (options.page_size < kMinPageSize || options.page_size > kMaxPageSize ||
      (options.page_size & (options.page_size - 1)) != 0) {
    return Status::InvalidArgument("page size must be a power of two in [" +
                                   std::to_string(kMinPageSize) + "," +
                                   std::to_string(kMaxPageSize) + "]");
  }
  page_size_ = options.page_size;
  fd_ = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot open page file " + options.path + ": " +
                           std::strerror(errno));
  }
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < static_cast<off_t>(kMinPageSize)) return Format();

  // Pick the valid meta slot with the higher epoch (a torn checkpoint
  // leaves exactly one valid slot — the previous commit).
  bool valid_a = false, valid_b = false;
  uint64_t epoch_a = 0, epoch_b = 0;
  std::vector<uint8_t> payload_a, payload_b;
  ITAG_RETURN_IF_ERROR(ReadMetaSlot(kMetaSlotA, &valid_a, &epoch_a, &payload_a));
  ITAG_RETURN_IF_ERROR(ReadMetaSlot(kMetaSlotB, &valid_b, &epoch_b, &payload_b));
  if (!valid_a && !valid_b) {
    return Status::Corruption("page file " + options.path +
                              " has no valid meta slot");
  }
  const std::vector<uint8_t>& payload =
      (valid_a && (!valid_b || epoch_a > epoch_b)) ? payload_a : payload_b;
  MetaBlock meta;
  if (!DecodeMeta(payload.data(), payload.size(), &meta)) {
    return Status::Corruption("page file meta malformed in " + options.path);
  }
  if (meta.page_size != page_size_) {
    return Status::InvalidArgument(
        "page file " + options.path + " has page size " +
        std::to_string(meta.page_size) + ", options say " +
        std::to_string(page_size_) + " (the size is a format property)");
  }
  epoch_ = meta.epoch;
  page_count_ = meta.page_count;
  catalog_head_ = meta.catalog_head;
  freelist_head_ = meta.freelist_head;
  checkpoint_lsn_ = meta.checkpoint_lsn;
  free_now_.clear();
  free_pending_.clear();
  fresh_.clear();
  return LoadFreeList(freelist_head_);
}

Status Pager::Format() {
  epoch_ = 1;
  page_count_ = kFirstDataPage;
  catalog_head_ = kNullPage;
  freelist_head_ = kNullPage;
  checkpoint_lsn_ = 0;
  free_now_.clear();
  free_pending_.clear();
  fresh_.clear();

  MetaBlock meta;
  meta.page_size = static_cast<uint32_t>(page_size_);
  meta.epoch = epoch_;
  meta.page_count = page_count_;
  PageImage img;
  img.header.page_id = static_cast<PageId>(epoch_ & 1);
  img.header.type = PageType::kMeta;
  img.header.lsn = epoch_;  // meta slots carry their epoch here
  std::string blob = EncodeMeta(meta);
  img.payload.assign(blob.begin(), blob.end());
  ITAG_RETURN_IF_ERROR(WritePage(&img));
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync failed on " + options_.path);
  }
  return Status::OK();
}

Status Pager::ReadMetaSlot(PageId slot, bool* valid, uint64_t* epoch,
                           std::vector<uint8_t>* payload) {
  *valid = false;
  // A meta slot is header + a few dozen payload bytes; 512 covers it at
  // any legal page size, which sidesteps the bootstrap problem of needing
  // the page size (it is *in* the meta) to know slot offsets. Slot B sits
  // at `page_size`, which Open already validated against the options.
  std::vector<uint8_t> buf(kMinPageSize, 0);
  off_t off = static_cast<off_t>(slot) * static_cast<off_t>(page_size_);
  ssize_t n = ::pread(fd_, buf.data(), buf.size(), off);
  if (n < 0) return Status::IOError("pread meta: " + options_.path);
  if (static_cast<size_t>(n) < kPageHeaderSize) return Status::OK();
  PageHeader h;
  GetHeader(buf.data(), &h);
  if (h.type != PageType::kMeta || h.page_id != slot) return Status::OK();
  if (h.stored_len > buf.size() - kPageHeaderSize) return Status::OK();
  PageHeader zeroed = h;
  zeroed.crc = 0;
  uint8_t hdr[kPageHeaderSize];
  PutHeader(zeroed, hdr);
  uint32_t crc = Crc32(hdr, kPageHeaderSize);
  crc = Crc32Extend(crc, buf.data() + kPageHeaderSize, h.stored_len);
  if (crc != h.crc) return Status::OK();
  payload->assign(buf.begin() + kPageHeaderSize,
                  buf.begin() + kPageHeaderSize + h.stored_len);
  *valid = true;
  *epoch = h.lsn;  // meta slots reuse the lsn field for their epoch
  return Status::OK();
}

Status Pager::ReadRaw(PageId id, std::vector<uint8_t>* buf) {
  buf->assign(page_size_, 0);
  off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  ssize_t n = ::pread(fd_, buf->data(), page_size_, off);
  if (n < 0) {
    return Status::IOError("pread page " + std::to_string(id) + ": " +
                           std::strerror(errno));
  }
  // Short reads zero-fill: a slot past EOF simply fails its CRC.
  return Status::OK();
}

Status Pager::WriteRaw(PageId id, const uint8_t* data, size_t n) {
  off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::pwrite(fd_, data + done, n - done, off + done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite page " + std::to_string(id) + ": " +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status Pager::ReadPage(PageId id, PageImage* out) {
  if (id >= page_count_ && id >= kFirstDataPage) {
    return Status::Corruption("page " + std::to_string(id) +
                              " beyond allocated count " +
                              std::to_string(page_count_));
  }
  std::vector<uint8_t> buf;
  ITAG_RETURN_IF_ERROR(ReadRaw(id, &buf));
  PageHeader h;
  GetHeader(buf.data(), &h);
  if (h.stored_len > page_size_ - kPageHeaderSize) {
    return Status::Corruption("page " + std::to_string(id) +
                              " stored length out of range");
  }
  PageHeader zeroed = h;
  zeroed.crc = 0;
  uint8_t hdr[kPageHeaderSize];
  PutHeader(zeroed, hdr);
  uint32_t crc = Crc32(hdr, kPageHeaderSize);
  crc = Crc32Extend(crc, buf.data() + kPageHeaderSize, h.stored_len);
  if (crc != h.crc) {
    return Status::Corruption("torn page " + std::to_string(id) +
                              ": checksum mismatch");
  }
  if (h.page_id != id) {
    return Status::Corruption("page " + std::to_string(id) +
                              " carries id " + std::to_string(h.page_id) +
                              " (misdirected write)");
  }
  // WritePage stores every payload as it is and never sets the reserved
  // flag, so a checksummed slot with either oddity is not one it wrote.
  if ((h.flags & kPageFlagReserved) || h.stored_len != h.payload_len) {
    return Status::Corruption("page " + std::to_string(id) +
                              " has the reserved flag or a stored length "
                              "unequal to its payload length");
  }
  out->header = h;
  out->payload.assign(buf.begin() + kPageHeaderSize,
                      buf.begin() + kPageHeaderSize + h.stored_len);
  ++stats_.page_reads;
  PageIoMetrics::Get().reads->Inc();
  return Status::OK();
}

Status Pager::WritePage(PageImage* img) {
  PageHeader& h = img->header;
  if (img->payload.size() > page_size_ - kPageHeaderSize) {
    return Status::InvalidArgument("page payload " +
                                   std::to_string(img->payload.size()) +
                                   " exceeds capacity");
  }
  h.payload_len = static_cast<uint16_t>(img->payload.size());
  h.stored_len = h.payload_len;
  h.flags &= static_cast<uint8_t>(~kPageFlagReserved);

  std::vector<uint8_t> buf(kPageHeaderSize + img->payload.size());
  h.crc = 0;
  PutHeader(h, buf.data());
  if (!img->payload.empty()) {
    std::memcpy(buf.data() + kPageHeaderSize, img->payload.data(),
                img->payload.size());
  }
  h.crc = Crc32(buf.data(), buf.size());
  PutHeader(h, buf.data());
  ITAG_RETURN_IF_ERROR(WriteRaw(h.page_id, buf.data(), buf.size()));
  ++stats_.page_writes;
  stats_.bytes_written += buf.size();
  PageIoMetrics::Get().writes->Inc();
  PageIoMetrics::Get().bytes_written->Inc(buf.size());
  return Status::OK();
}

Result<PageId> Pager::Allocate() {
  PageId id;
  if (!free_now_.empty()) {
    id = free_now_.back();
    free_now_.pop_back();
  } else {
    if (page_count_ == UINT32_MAX) {
      return Status::ResourceExhausted("page file full");
    }
    id = page_count_++;
  }
  fresh_.insert(id);
  return id;
}

void Pager::Free(PageId id) {
  if (id < kFirstDataPage) return;
  // A page born this epoch is referenced by no committed meta — it can be
  // reused immediately; anything older must cool off until the next commit.
  if (fresh_.erase(id) > 0) {
    free_now_.push_back(id);
  } else {
    free_pending_.push_back(id);
  }
}

Status Pager::LoadFreeList(PageId head) {
  std::string blob;
  uint32_t hops = 0;
  for (PageId id = head; id != kNullPage;) {
    if (++hops > page_count_) {
      return Status::Corruption("free-list chain cycles");
    }
    PageImage img;
    ITAG_RETURN_IF_ERROR(ReadPage(id, &img));
    if (img.header.type != PageType::kCatalog) {
      return Status::Corruption("free-list chain page " + std::to_string(id) +
                                " has type " +
                                PageTypeName(img.header.type));
    }
    blob.append(reinterpret_cast<const char*>(img.payload.data()),
                img.payload.size());
    id = img.header.next;
  }
  if (blob.empty()) return Status::OK();
  ByteReader r(blob);
  std::vector<uint32_t> ids;
  if (!r.U32Vec(&ids) || !r.AtEnd()) {
    return Status::Corruption("free list malformed");
  }
  // Allocate hands these ids out as fresh pages, so an id that is not a
  // data page, or one listed twice, would have a new node written over a
  // live page.
  for (PageId id : ids) {
    if (id < kFirstDataPage || id >= page_count_) {
      return Status::Corruption("free list names page " + std::to_string(id) +
                                " outside the data pages [" +
                                std::to_string(kFirstDataPage) + ", " +
                                std::to_string(page_count_) + ")");
    }
  }
  std::vector<uint32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  auto twice = std::adjacent_find(sorted.begin(), sorted.end());
  if (twice != sorted.end()) {
    return Status::Corruption("free list names page " +
                              std::to_string(*twice) + " twice");
  }
  free_now_.assign(ids.begin(), ids.end());
  return Status::OK();
}

Status Pager::Commit(PageId catalog_head, uint64_t checkpoint_lsn) {
  // Retire the old free-list chain; its pages join the pending set and ride
  // the new durable list (reusable next epoch).
  for (PageId id = freelist_head_; id != kNullPage;) {
    PageImage img;
    ITAG_RETURN_IF_ERROR(ReadPage(id, &img));
    PageId next = img.header.next;
    Free(id);
    id = next;
  }
  freelist_head_ = kNullPage;

  // Size the chain before allocating it: allocation only pops from
  // free_now_, so the blob can only shrink and one pass suffices. Chain
  // pages must come from free_now_ (or growth) — pending pages are still
  // referenced by the fallback meta if this commit's meta write tears.
  const size_t cap = payload_size();
  size_t upper = 4 + 4 * (free_now_.size() + free_pending_.size());
  size_t npages = (upper + cap - 1) / cap;
  std::vector<PageId> chain;
  chain.reserve(npages);
  for (size_t i = 0; i < npages; ++i) {
    Result<PageId> id = Allocate();
    ITAG_RETURN_IF_ERROR(id.status());
    chain.push_back(id.value());
  }
  ByteWriter w;
  {
    std::vector<uint32_t> ids;
    ids.reserve(free_now_.size() + free_pending_.size());
    for (PageId id : free_now_) ids.push_back(id);
    for (PageId id : free_pending_) ids.push_back(id);
    w.U32Vec(ids);
  }
  const std::string blob = w.Take();
  size_t off = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    PageImage img;
    img.header.page_id = chain[i];
    img.header.type = PageType::kCatalog;
    img.header.lsn = checkpoint_lsn;
    img.header.next = i + 1 < chain.size() ? chain[i + 1] : kNullPage;
    size_t take = blob.size() - off < cap ? blob.size() - off : cap;
    img.payload.assign(blob.begin() + off, blob.begin() + off + take);
    off += take;
    ITAG_RETURN_IF_ERROR(WritePage(&img));
  }
  PageId new_freelist_head = chain.empty() ? kNullPage : chain[0];

  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync failed on " + options_.path);
  }

  // One meta-slot write commits the epoch; until it lands, the previous
  // slot still describes a fully intact tree.
  MetaBlock meta;
  meta.page_size = static_cast<uint32_t>(page_size_);
  meta.epoch = epoch_ + 1;
  meta.page_count = page_count_;
  meta.catalog_head = catalog_head;
  meta.freelist_head = new_freelist_head;
  meta.checkpoint_lsn = checkpoint_lsn;
  PageImage img;
  img.header.page_id = static_cast<PageId>(meta.epoch & 1);
  img.header.type = PageType::kMeta;
  img.header.lsn = meta.epoch;  // meta slots carry their epoch here
  std::string mblob = EncodeMeta(meta);
  img.payload.assign(mblob.begin(), mblob.end());
  ITAG_RETURN_IF_ERROR(WritePage(&img));
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync failed on " + options_.path);
  }

  epoch_ = meta.epoch;
  checkpoint_lsn_ = checkpoint_lsn;
  catalog_head_ = catalog_head;
  freelist_head_ = new_freelist_head;
  free_now_.insert(free_now_.end(), free_pending_.begin(),
                   free_pending_.end());
  free_pending_.clear();
  fresh_.clear();
  return Status::OK();
}

}  // namespace itag::storage::pager
