#ifndef ITAG_STORAGE_PAGER_PAGE_H_
#define ITAG_STORAGE_PAGER_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace itag::storage::pager {

/// Page number inside the page file. Pages 0 and 1 are the two alternating
/// meta slots; data pages start at 2, so 0 doubles as the null link.
using PageId = uint32_t;

inline constexpr PageId kNullPage = 0;
inline constexpr PageId kMetaSlotA = 0;
inline constexpr PageId kMetaSlotB = 1;
inline constexpr PageId kFirstDataPage = 2;

/// "ITGP" little-endian — the first field of every meta slot.
inline constexpr uint32_t kPagerMagic = 0x50475449;
inline constexpr uint32_t kPagerVersion = 1;

/// Fixed page size of a file is chosen at creation time and recorded in the
/// meta slots; every later open must agree. 4 KiB matches the common
/// filesystem block; payload_len is a u16 so sizes above 64 KiB are invalid.
inline constexpr size_t kDefaultPageSize = 4096;
inline constexpr size_t kMinPageSize = 512;
inline constexpr size_t kMaxPageSize = 65536;

/// On-disk kinds a page slot can hold. kFree slots exist only logically (a
/// freed slot keeps its stale image until reused); the type survives in the
/// header so a dangling pointer that lands on the wrong kind is a typed
/// Corruption, not a misparse.
enum class PageType : uint8_t {
  kFree = 0,
  kMeta = 1,
  kCatalog = 2,   ///< chained checkpoint blob (table directory + free list)
  kInternal = 3,  ///< B+tree internal node
  kLeaf = 4,      ///< B+tree leaf node
  kOverflow = 5,  ///< chained continuation of a value too big for its leaf
};

/// Stable display name for diagnostics ("leaf", "overflow", ...).
const char* PageTypeName(PageType t);

/// bit0 of PageHeader::flags is reserved: no writer sets it, and a slot
/// that carries it reads as Corruption.
inline constexpr uint8_t kPageFlagReserved = 0x1;

/// Fixed 32-byte header at the start of every page slot. CRC-32 (the same
/// common/crc32.h polynomial framing the WAL) covers the header with the
/// crc field zeroed plus the `stored_len` payload bytes that follow it, so
/// a torn write, a bit flip, or a write that landed in the wrong slot
/// (`page_id` is part of the covered bytes) all surface as typed
/// Corruption on read. Only `32 + stored_len` bytes of a slot are ever
/// written.
struct PageHeader {
  uint32_t crc = 0;
  PageId page_id = kNullPage;    ///< self id; catches misdirected IO
  PageType type = PageType::kFree;
  uint8_t flags = 0;
  uint16_t payload_len = 0;      ///< payload bytes
  uint16_t stored_len = 0;       ///< payload bytes in the slot; equal to
                                 ///< payload_len in every written slot
  uint8_t reserved[2] = {0, 0};
  uint64_t lsn = 0;              ///< WAL frame lsn of the last mutation
  PageId next = kNullPage;       ///< chain link (catalog, overflow)
};

inline constexpr size_t kPageHeaderSize = 32;
static_assert(sizeof(PageHeader) == kPageHeaderSize,
              "page header layout is part of the file format");

/// Decoded in-memory image of one page: header plus payload bytes. The
/// pager's ReadPage/WritePage translate between this and the on-disk slot
/// (CRC check/stamp).
struct PageImage {
  PageHeader header;
  std::vector<uint8_t> payload;  ///< capacity page_size - kPageHeaderSize

  uint8_t* data() { return payload.data(); }
  const uint8_t* data() const { return payload.data(); }
};

}  // namespace itag::storage::pager

#endif  // ITAG_STORAGE_PAGER_PAGE_H_
