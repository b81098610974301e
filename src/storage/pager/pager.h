#ifndef ITAG_STORAGE_PAGER_PAGER_H_
#define ITAG_STORAGE_PAGER_PAGER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager/page.h"

namespace itag::storage::pager {

/// Configuration for one page file.
struct PagerOptions {
  std::string path;
  /// Page size used when the file is created; an existing file's recorded
  /// size wins and a mismatch is an InvalidArgument.
  size_t page_size = kDefaultPageSize;
};

/// Local physical-IO counters (the process-wide storage.page.* metrics
/// aggregate across pagers; tests want per-instance numbers).
struct PagerStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t bytes_written = 0;  ///< header + payload bytes written
};

/// The paged file underneath the storage engine: fixed-size CRC'd slots, a
/// free list, and a two-slot copy-on-write commit protocol.
///
/// Epoch discipline (the crash-safety contract every layer above relies on):
///  * Pages 0 and 1 are alternating meta slots. A slot is committed by one
///    header+payload write; Open picks the valid slot with the higher epoch,
///    so a torn meta write falls back to the previous checkpoint.
///  * Between two commits (one "epoch") the durable tree of the last commit
///    is never overwritten: Allocate() hands out only pages the last commit
///    recorded as free (or file growth), and Free() parks pages in a pending
///    list that becomes allocatable only after the *next* commit. Writers
///    above (the B+tree) copy-on-write any page that predates the epoch
///    (`IsFresh`), so a crash at any instant leaves the last committed state
///    fully intact and the WAL tail replays on top of it.
///  * Commit flushes nothing itself — the caller flushes its page cache
///    first — then persists the free list (a chained blob), fdatasyncs the
///    data, writes the next meta slot, and fdatasyncs again.
///
/// Single-writer, like the Database that owns it.
class Pager {
 public:
  Pager() = default;
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Opens `options.path`, creating and formatting it when absent/empty.
  Status Open(const PagerOptions& options);
  void Close();
  bool is_open() const { return fd_ >= 0; }

  size_t page_size() const { return page_size_; }
  /// Payload bytes available per page.
  size_t payload_size() const { return page_size_ - kPageHeaderSize; }
  uint64_t epoch() const { return epoch_; }
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  PageId catalog_head() const { return catalog_head_; }
  uint32_t page_count() const { return page_count_; }
  size_t free_now() const { return free_now_.size(); }
  size_t free_pending() const { return free_pending_.size(); }
  const PagerStats& stats() const { return stats_; }

  /// Reads slot `id`, CRC-verified. Corruption on checksum or self-id
  /// mismatch (torn page / misdirected write), and on a slot carrying the
  /// reserved flag or a stored length unequal to its payload length.
  Status ReadPage(PageId id, PageImage* out);

  /// Writes `img` to slot `img.header.page_id`: stamps the lengths, clears
  /// the reserved flag, stamps the crc, writes header + payload bytes.
  Status WritePage(PageImage* img);

  /// Hands out a page that is free *as of the last commit* (or grows the
  /// file). The slot's stale on-disk image is garbage by contract.
  Result<PageId> Allocate();

  /// Parks `id` for reuse after the next Commit. Never reuses it within the
  /// current epoch — the durable tree may still reference it.
  void Free(PageId id);

  /// True iff `id` was allocated in the current epoch (safe to modify in
  /// place; anything else must be copy-on-written first).
  bool IsFresh(PageId id) const { return fresh_.count(id) != 0; }

  /// Commits a checkpoint: persists the free list, fdatasyncs data, writes
  /// the next meta slot (epoch+1, `catalog_head`, `checkpoint_lsn`),
  /// fdatasyncs, then merges pending frees and clears the fresh set. The
  /// caller must have written back every dirty page first.
  Status Commit(PageId catalog_head, uint64_t checkpoint_lsn);

 private:
  Status Format();
  Status ReadMetaSlot(PageId slot, bool* valid, uint64_t* epoch,
                      std::vector<uint8_t>* payload);
  Status LoadFreeList(PageId head);
  Status WriteRaw(PageId id, const uint8_t* data, size_t n);
  Status ReadRaw(PageId id, std::vector<uint8_t>* buf);

  PagerOptions options_;
  int fd_ = -1;
  size_t page_size_ = kDefaultPageSize;
  uint64_t epoch_ = 0;
  uint64_t checkpoint_lsn_ = 0;
  uint32_t page_count_ = kFirstDataPage;
  PageId catalog_head_ = kNullPage;
  PageId freelist_head_ = kNullPage;
  std::vector<PageId> free_now_;      ///< allocatable in this epoch
  std::vector<PageId> free_pending_;  ///< freed this epoch; reusable next
  std::unordered_set<PageId> fresh_;  ///< allocated this epoch (no COW needed)
  PagerStats stats_;
};

}  // namespace itag::storage::pager

#endif  // ITAG_STORAGE_PAGER_PAGER_H_
