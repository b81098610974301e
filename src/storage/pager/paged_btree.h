#ifndef ITAG_STORAGE_PAGER_PAGED_BTREE_H_
#define ITAG_STORAGE_PAGER_PAGED_BTREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager/page.h"
#include "storage/pager/page_cache.h"
#include "storage/pager/pager.h"

namespace itag::storage::pager {

/// On-disk B+tree mapping u64 keys to byte-string values, built on the
/// copy-on-write Pager/PageCache pair.
///
/// Layout:
///  * Internal pages (kInternal): `count` separator keys and `count + 1`
///    child page ids; child[i] covers keys < key[i], the last child covers
///    the rest.
///  * Leaf pages (kLeaf): sorted (key, value) entries. Values above
///    ~payload/4 spill into a chain of kOverflow pages linked by
///    `header.next`; the leaf keeps the head id and total length.
///  * No sibling links between leaves — copy-on-write would have to rewrite
///    every left neighbour of a relocated leaf. Ordered scans instead walk a
///    parent stack, which the COW discipline keeps valid for the duration
///    of a read.
///
/// Visits read the page bytes in place through one bounds-checked node
/// reader. An insert, replace or erase that fits a fresh leaf (one
/// allocated since the last commit, so no committed tree points at it) and
/// writes or frees no overflow chain edits the cached payload where it
/// lies. Any other edit that fits splices the entry's bytes into a copy of
/// the payload, which the page takes by move; only a midpoint split, a
/// borrow or a merge decodes nodes into vectors. A mutated page that
/// predates the epoch is copied on write to a fresh page, which gives it a
/// new id, so its parent is rewritten to point at it. A parent whose child
/// kept its id and neither split nor underflowed is left as it is: only a
/// fresh child keeps its id, and under the epoch rule a fresh page's parent
/// is fresh too, so the parent's bytes are already right. The root id may
/// change on any mutation: callers must re-read `root()` and persist it at
/// checkpoint. Splits trigger on encoded size overflow, borrows/merges when
/// a node falls under a quarter of the payload budget. A leaf that
/// overflows on a key past its last entry splits at its end: it keeps its
/// entries and the new right leaf holds the new one, and an internal node
/// whose last child split promotes its second-to-last separator, so rows
/// appended in key order fill their pages. Every other split is at the
/// midpoint. Single-writer, like the layers below.
class PagedBTree {
 public:
  /// Receives a stored value's bytes, valid only during the call. A non-OK
  /// status is handed back to the caller, and from Replace or Erase it
  /// stops the write before anything is changed.
  using ValueFn = std::function<Status(std::string_view)>;
  using ScanFn = std::function<bool(uint64_t, std::string_view)>;

  /// `root` is the committed root id, or kNullPage for an empty tree.
  PagedBTree(Pager* pager, PageCache* cache, PageId root);

  PageId root() const { return root_; }
  bool empty() const { return root_ == kNullPage; }

  /// Looks `key` up and hands its value to `fn` (an inline value straight
  /// from the pinned leaf); returns false when absent. An empty `fn` only
  /// asks whether the key is present.
  Result<bool> Get(uint64_t key, const ValueFn& fn);

  /// Inserts or replaces `key`; returns true when the key was new.
  Result<bool> Put(uint64_t key, std::string_view value);

  /// Replaces the value of a present `key`, handing the old value to `old`
  /// first; returns false, writing nothing, when `key` is absent.
  Result<bool> Replace(uint64_t key, std::string_view value,
                       const ValueFn& old);

  /// Removes `key`, handing its value to `old` first when `old` is set;
  /// returns false when it was absent.
  Result<bool> Erase(uint64_t key, const ValueFn& old = {});

  /// In-order visit of every entry with key >= `start`. `fn` returns false
  /// to stop early, and runs with no page pinned. The tree must not be
  /// mutated during the scan.
  Status Scan(uint64_t start, const ScanFn& fn);

  /// Frees every page of the tree (leaves, internals, overflow chains) and
  /// resets the root — used by DropTable and Clear.
  Status Destroy();

  /// Test hook: walks the whole tree validating key order, child separators,
  /// uniform leaf depth, and per-node size bounds. Returns the entry count.
  Result<uint64_t> CheckInvariants();

 private:
  // Decoded node images, built only where entries move between nodes
  // (split, borrow, merge), for teardown and for the invariant walk.
  struct ValueRef {
    std::vector<uint8_t> inline_value;  // when head == kNullPage
    PageId head = kNullPage;            // overflow chain head otherwise
    uint32_t total_len = 0;
  };
  struct LeafNode {
    std::vector<uint64_t> keys;
    std::vector<ValueRef> values;
  };
  struct InternalNode {
    std::vector<uint64_t> keys;      // separators, size() == children-1
    std::vector<PageId> children;
  };

  size_t MaxInlineValue() const { return pager_->payload_size() / 4; }
  static size_t LeafEntryBytes(const ValueRef& v);
  static size_t LeafBytes(const LeafNode& node);
  static size_t InternalBytes(const InternalNode& node);

  static std::vector<uint8_t> EncodeLeaf(const LeafNode& node);
  static std::vector<uint8_t> EncodeInternal(const InternalNode& node);
  static Status DecodeLeaf(const PageImage& img, LeafNode* out);
  static Status DecodeInternal(const PageImage& img, InternalNode* out);

  /// Writes `value` as a chain of overflow pages and returns its head.
  Result<PageId> StoreChain(std::string_view value);
  /// Reads the chain at `head`, which must hold `total_len` bytes.
  Status LoadChain(PageId head, uint32_t total_len, std::string* out);
  /// Frees an overflow chain (no-op for kNullPage, an inline value).
  Status ReleaseChain(PageId head, uint32_t total_len);

  /// Copy-on-write: returns a writable page id now holding `payload` —
  /// `id` itself when fresh, otherwise a fresh copy (the old page is freed).
  Result<PageId> WriteNode(PageId id, PageType type,
                           std::vector<uint8_t> payload);
  Result<PageId> WriteFreshNode(PageType type, std::vector<uint8_t> payload);
  /// Points child `idx` of internal node `id` at `child`, patching the four
  /// bytes in place when `id` is fresh, else in a copy written to a fresh
  /// page.
  Result<PageId> Relink(PageId id, size_t idx, PageId child);

  struct InsertResult {
    PageId node = kNullPage;     // (possibly COW'd) node id
    bool replaced = false;       // key existed and its value was overwritten
    bool absent = false;         // a replace found no key and wrote nothing
    bool split = false;
    uint64_t split_key = 0;      // first key of `right` when split
    PageId right = kNullPage;
  };
  /// Put and Replace: `old` set means replace only, reporting the old value.
  Result<InsertResult> Write(uint64_t key, std::string_view value,
                             const ValueFn* old);
  Result<InsertResult> InsertRec(PageId id, uint64_t key,
                                 std::string_view value, const ValueFn* old);
  Result<InsertResult> InsertIntoLeaf(PageId id, PageRef ref, uint64_t key,
                                      std::string_view value,
                                      const ValueFn* old);

  struct EraseResult {
    PageId node = kNullPage;
    bool found = false;
    bool underflow = false;
  };
  Result<EraseResult> EraseRec(PageId id, uint64_t key, const ValueFn* old);
  Result<EraseResult> EraseFromLeaf(PageId id, PageRef ref, uint64_t key,
                                    const ValueFn* old);
  /// Fixes an underflowing child `idx` of `parent` by borrowing from or
  /// merging with an adjacent sibling. All three touched nodes end fresh.
  Status Rebalance(InternalNode* parent, size_t idx);

  Status DestroyRec(PageId id);
  Result<uint64_t> CheckRec(PageId id, size_t depth, size_t leaf_depth,
                            bool has_low, uint64_t low, bool has_high,
                            uint64_t high);
  Status LeafDepth(PageId id, size_t depth, size_t* out);

  Pager* pager_;
  PageCache* cache_;
  PageId root_;
};

}  // namespace itag::storage::pager

#endif  // ITAG_STORAGE_PAGER_PAGED_BTREE_H_
