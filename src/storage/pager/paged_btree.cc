#include "storage/pager/paged_btree.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace itag::storage::pager {

namespace {

constexpr uint8_t kValInline = 0;
constexpr uint8_t kValOverflow = 1;

// A leaf entry is a u64 key and a u8 kind, then either a u16 length and the
// value's bytes (inline) or a u32 total length and a u32 chain head.
constexpr size_t kInlineEntryHead = 8 + 1 + 2;
constexpr size_t kOverflowEntryBytes = 8 + 1 + 8;

template <typename T>
T GetLe(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(T{p[i]} << (8 * i));
  }
  return v;
}

template <typename T>
void PutLe(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

Status NodeCorruption(PageId id, const char* what) {
  return Status::Corruption("btree page " + std::to_string(id) + ": " + what);
}

size_t EntryBytes(PageId head, size_t inline_len) {
  return head == kNullPage ? kInlineEntryHead + inline_len
                           : kOverflowEntryBytes;
}

/// Writes one leaf entry at `p`: `len` value bytes from `bytes` when `head`
/// is kNullPage, else a reference to the chain at `head` holding `len`
/// bytes. Returns the byte past the entry.
uint8_t* PutLeafEntry(uint8_t* p, uint64_t key, PageId head, size_t len,
                      const void* bytes) {
  PutLe<uint64_t>(p, key);
  if (head == kNullPage) {
    p[8] = kValInline;
    PutLe<uint16_t>(p + 9, static_cast<uint16_t>(len));
    if (len != 0) std::memcpy(p + kInlineEntryHead, bytes, len);
    return p + kInlineEntryHead + len;
  }
  p[8] = kValOverflow;
  PutLe<uint32_t>(p + 9, static_cast<uint32_t>(len));
  PutLe<uint32_t>(p + 13, head);
  return p + kOverflowEntryBytes;
}

/// A leaf payload holding one entry, as PutLeafEntry writes it.
std::vector<uint8_t> OneEntryLeaf(uint64_t key, PageId head,
                                  std::string_view value) {
  std::vector<uint8_t> out(2 + EntryBytes(head, value.size()));
  PutLe<uint16_t>(out.data(), 1);
  PutLeafEntry(out.data() + 2, key, head, value.size(), value.data());
  return out;
}

/// Copies a leaf payload with bytes [from, to) replaced by `hole` bytes
/// for the caller to fill, and the entry count set to `count`.
std::vector<uint8_t> Splice(const std::vector<uint8_t>& payload, size_t from,
                            size_t to, size_t hole, size_t count) {
  std::vector<uint8_t> out(payload.size() - (to - from) + hole);
  std::memcpy(out.data(), payload.data(), from);
  std::memcpy(out.data() + from + hole, payload.data() + to,
              payload.size() - to);
  PutLe<uint16_t>(out.data(), static_cast<uint16_t>(count));
  return out;
}

/// Splice within the payload itself. The buffer is reserved to `capacity`
/// once, so later edits of the page do not reallocate. It grows before the
/// tail moves right and shrinks after the tail moves left, so every byte
/// the edit touches lies inside the vector.
void SpliceInPlace(std::vector<uint8_t>* payload, size_t capacity,
                   size_t from, size_t to, size_t hole, size_t count) {
  const size_t tail = payload->size() - to;
  const size_t size = from + hole + tail;
  if (payload->capacity() < capacity) payload->reserve(capacity);
  if (size > payload->size()) payload->resize(size);
  std::memmove(payload->data() + from + hole, payload->data() + to, tail);
  payload->resize(size);
  PutLe<uint16_t>(payload->data(), static_cast<uint16_t>(count));
}

/// One leaf entry where it sits in the payload.
struct LeafEntry {
  uint64_t key = 0;
  size_t begin = 0;         ///< offset of the entry's first byte
  size_t end = 0;           ///< offset one past its last byte
  PageId head = kNullPage;  ///< overflow chain head; kNullPage when inline
  uint32_t total_len = 0;   ///< value bytes
  const uint8_t* inline_bytes = nullptr;  ///< the value, when inline

  std::string_view inline_value() const {
    return {reinterpret_cast<const char*>(inline_bytes), total_len};
  }
};

/// The one reader of the node format. Every visit to a node page opens one
/// over the page's bytes, so every Corruption a node can raise is raised
/// here. Opening checks the page type and the count, and an internal
/// node's exact size; a leaf is checked entry by entry as Next() walks it,
/// and Finish() checks that nothing trails the last entry.
class NodeReader {
 public:
  /// Opens a node of either kind; `unexpected` names any other page type.
  Status Open(const PageImage& img, const char* unexpected) {
    if (img.header.type == PageType::kLeaf) return OpenLeaf(img);
    if (img.header.type == PageType::kInternal) return OpenInternal(img);
    return NodeCorruption(img.header.page_id, unexpected);
  }

  Status OpenLeaf(const PageImage& img) {
    ITAG_RETURN_IF_ERROR(Start(img, PageType::kLeaf, "leaf"));
    pos_ = 2;
    return Status::OK();
  }

  Status OpenInternal(const PageImage& img) {
    ITAG_RETURN_IF_ERROR(Start(img, PageType::kInternal, "internal"));
    const size_t end = KeysAt() + 8 * size_t{count_};
    if (n_ < KeysAt()) return Fail("truncated child list");
    if (n_ < end) return Fail("truncated keys");
    if (n_ > end) return Fail("internal trailing bytes");
    return Status::OK();
  }

  bool leaf() const { return leaf_; }
  /// Entries of a leaf; separator keys of an internal node.
  size_t count() const { return count_; }
  size_t bytes() const { return n_; }

  PageId child(size_t i) const { return GetLe<uint32_t>(p_ + 2 + 4 * i); }
  uint64_t key(size_t i) const {
    return GetLe<uint64_t>(p_ + KeysAt() + 8 * i);
  }
  /// The child whose subtree holds `k`: the first separator above it.
  size_t ChildIndex(uint64_t k) const {
    size_t lo = 0;
    size_t hi = count_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (key(mid) <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Reads a leaf's next entry; call it count() times, then Finish().
  Status Next(LeafEntry* e) {
    e->begin = pos_;
    if (n_ - pos_ < 9) return Fail("truncated leaf entry");
    e->key = GetLe<uint64_t>(p_ + pos_);
    const uint8_t kind = p_[pos_ + 8];
    pos_ += 9;
    if (kind == kValInline) {
      if (n_ - pos_ < 2) return Fail("truncated inline value");
      const size_t len = GetLe<uint16_t>(p_ + pos_);
      pos_ += 2;
      if (n_ - pos_ < len) return Fail("truncated inline value");
      e->head = kNullPage;
      e->total_len = static_cast<uint32_t>(len);
      e->inline_bytes = p_ + pos_;
      pos_ += len;
    } else if (kind == kValOverflow) {
      if (n_ - pos_ < 8) return Fail("truncated overflow ref");
      e->total_len = GetLe<uint32_t>(p_ + pos_);
      e->head = GetLe<uint32_t>(p_ + pos_ + 4);
      e->inline_bytes = nullptr;
      pos_ += 8;
      if (e->head == kNullPage) return Fail("null overflow head");
    } else {
      return Fail("unknown value kind");
    }
    e->end = pos_;
    return Status::OK();
  }

  Status Finish() const {
    return pos_ == n_ ? Status::OK() : Fail("leaf trailing bytes");
  }

 private:
  /// Checks the page type and reads the count; `kind` names the type.
  Status Start(const PageImage& img, PageType type, const char* kind) {
    id_ = img.header.page_id;
    p_ = img.payload.data();
    n_ = img.payload.size();
    leaf_ = type == PageType::kLeaf;
    if (img.header.type != type) {
      return Fail((std::string("expected ") + kind).c_str());
    }
    if (n_ < 2) return Fail((std::string("truncated ") + kind).c_str());
    count_ = GetLe<uint16_t>(p_);
    return Status::OK();
  }
  size_t KeysAt() const { return 2 + 4 * (size_t{count_} + 1); }
  Status Fail(const char* what) const { return NodeCorruption(id_, what); }

  PageId id_ = kNullPage;
  const uint8_t* p_ = nullptr;
  size_t n_ = 0;
  bool leaf_ = false;
  uint16_t count_ = 0;
  size_t pos_ = 0;
};

/// Where `key` sits in a leaf, or would go: the byte offset of its spot,
/// and the entry holding it when present.
struct LeafSpot {
  size_t offset = 2;
  bool found = false;
  LeafEntry entry;
};

/// Walks every entry of an opened leaf, so the whole node is checked, and
/// finds `key`'s spot.
Status FindInLeaf(NodeReader* r, uint64_t key, LeafSpot* spot) {
  LeafEntry e;
  bool placed = false;
  for (size_t i = 0; i < r->count(); ++i) {
    ITAG_RETURN_IF_ERROR(r->Next(&e));
    if (placed) continue;
    if (e.key < key) {
      spot->offset = e.end;
      continue;
    }
    placed = true;
    if (e.key == key) {
      spot->found = true;
      spot->entry = e;
    }
  }
  return r->Finish();
}

}  // namespace

PagedBTree::PagedBTree(Pager* pager, PageCache* cache, PageId root)
    : pager_(pager), cache_(cache), root_(root) {}

// ---------------------------------------------------------------------------
// Node (de)serialization.

size_t PagedBTree::LeafEntryBytes(const ValueRef& v) {
  return EntryBytes(v.head, v.inline_value.size());
}

size_t PagedBTree::LeafBytes(const LeafNode& node) {
  size_t n = 2;
  for (const ValueRef& v : node.values) n += LeafEntryBytes(v);
  return n;
}

size_t PagedBTree::InternalBytes(const InternalNode& node) {
  return 2 + 4 * node.children.size() + 8 * node.keys.size();
}

std::vector<uint8_t> PagedBTree::EncodeLeaf(const LeafNode& node) {
  std::vector<uint8_t> out(LeafBytes(node));
  uint8_t* p = out.data();
  PutLe<uint16_t>(p, static_cast<uint16_t>(node.keys.size()));
  p += 2;
  for (size_t i = 0; i < node.keys.size(); ++i) {
    const ValueRef& v = node.values[i];
    p = PutLeafEntry(p, node.keys[i], v.head,
                     v.head == kNullPage ? v.inline_value.size() : v.total_len,
                     v.inline_value.data());
  }
  return out;
}

std::vector<uint8_t> PagedBTree::EncodeInternal(const InternalNode& node) {
  std::vector<uint8_t> out(InternalBytes(node));
  uint8_t* p = out.data();
  PutLe<uint16_t>(p, static_cast<uint16_t>(node.keys.size()));
  p += 2;
  for (PageId c : node.children) {
    PutLe<uint32_t>(p, c);
    p += 4;
  }
  for (uint64_t k : node.keys) {
    PutLe<uint64_t>(p, k);
    p += 8;
  }
  return out;
}

Status PagedBTree::DecodeLeaf(const PageImage& img, LeafNode* out) {
  NodeReader r;
  ITAG_RETURN_IF_ERROR(r.OpenLeaf(img));
  out->keys.clear();
  out->values.clear();
  out->keys.reserve(r.count());
  out->values.reserve(r.count());
  LeafEntry e;
  for (size_t i = 0; i < r.count(); ++i) {
    ITAG_RETURN_IF_ERROR(r.Next(&e));
    out->keys.push_back(e.key);
    out->values.push_back({{}, e.head, e.total_len});
    if (e.head == kNullPage) {
      out->values.back().inline_value.assign(e.inline_bytes,
                                             e.inline_bytes + e.total_len);
    }
  }
  return r.Finish();
}

Status PagedBTree::DecodeInternal(const PageImage& img, InternalNode* out) {
  NodeReader r;
  ITAG_RETURN_IF_ERROR(r.OpenInternal(img));
  out->keys.resize(r.count());
  out->children.resize(r.count() + 1);
  for (size_t i = 0; i <= r.count(); ++i) out->children[i] = r.child(i);
  for (size_t i = 0; i < r.count(); ++i) out->keys[i] = r.key(i);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Overflow chains.

Result<PageId> PagedBTree::StoreChain(std::string_view value) {
  // Build the chain back to front so each page's `next` link is known when
  // the page is filled.
  const auto* bytes = reinterpret_cast<const uint8_t*>(value.data());
  const size_t chunk = pager_->payload_size();
  const size_t nchunks = (value.size() + chunk - 1) / chunk;
  PageId next = kNullPage;
  for (size_t i = nchunks; i-- > 0;) {
    const size_t off = i * chunk;
    const size_t len = std::min(chunk, value.size() - off);
    ITAG_ASSIGN_OR_RETURN(PageId pid, pager_->Allocate());
    ITAG_ASSIGN_OR_RETURN(PageRef pref,
                          cache_->PinNew(pid, PageType::kOverflow));
    pref.payload().assign(bytes + off, bytes + off + len);
    pref.header().next = next;
    pref.MarkDirty();
    next = pid;
  }
  return next;
}

Status PagedBTree::LoadChain(PageId head, uint32_t total_len,
                             std::string* out) {
  out->clear();
  out->reserve(total_len);
  const size_t max_hops = total_len / pager_->payload_size() + 2;
  size_t hops = 0;
  PageId pid = head;
  while (pid != kNullPage) {
    if (++hops > max_hops) {
      return NodeCorruption(head, "overflow chain longer than its length");
    }
    ITAG_ASSIGN_OR_RETURN(PageRef pref, cache_->Pin(pid));
    if (pref.header().type != PageType::kOverflow) {
      return NodeCorruption(pid, "expected overflow page");
    }
    out->append(reinterpret_cast<const char*>(pref.payload().data()),
                pref.payload().size());
    pid = pref.header().next;
  }
  if (out->size() != total_len) {
    return NodeCorruption(head, "overflow chain length mismatch");
  }
  return Status::OK();
}

Status PagedBTree::ReleaseChain(PageId head, uint32_t total_len) {
  const size_t max_hops = total_len / pager_->payload_size() + 2;
  size_t hops = 0;
  PageId pid = head;
  while (pid != kNullPage) {
    if (++hops > max_hops) {
      return NodeCorruption(head, "overflow chain longer than its length");
    }
    PageId next = kNullPage;
    {
      ITAG_ASSIGN_OR_RETURN(PageRef pref, cache_->Pin(pid));
      if (pref.header().type != PageType::kOverflow) {
        return NodeCorruption(pid, "expected overflow page");
      }
      next = pref.header().next;
    }
    pager_->Free(pid);
    cache_->Drop(pid);
    pid = next;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Copy-on-write node writers.

Result<PageId> PagedBTree::WriteNode(PageId id, PageType type,
                                     std::vector<uint8_t> payload) {
  if (pager_->IsFresh(id)) {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    ref.payload() = std::move(payload);
    ref.header().type = type;
    ref.MarkDirty();
    return id;
  }
  ITAG_ASSIGN_OR_RETURN(PageId nid, WriteFreshNode(type, std::move(payload)));
  pager_->Free(id);
  cache_->Drop(id);
  return nid;
}

Result<PageId> PagedBTree::WriteFreshNode(PageType type,
                                          std::vector<uint8_t> payload) {
  ITAG_ASSIGN_OR_RETURN(PageId nid, pager_->Allocate());
  ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->PinNew(nid, type));
  ref.payload() = std::move(payload);
  ref.MarkDirty();
  return nid;
}

Result<PageId> PagedBTree::Relink(PageId id, size_t idx, PageId child) {
  ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
  if (pager_->IsFresh(id)) {
    PutLe<uint32_t>(ref.payload().data() + 2 + 4 * idx, child);
    ref.MarkDirty();
    return id;
  }
  std::vector<uint8_t> payload = ref.payload();
  ref.Release();
  PutLe<uint32_t>(payload.data() + 2 + 4 * idx, child);
  return WriteNode(id, PageType::kInternal, std::move(payload));
}

// ---------------------------------------------------------------------------
// Lookup.

Result<bool> PagedBTree::Get(uint64_t key, const ValueFn& fn) {
  if (root_ == kNullPage) return false;
  PageId id = root_;
  for (size_t depth = 0; depth < 64; ++depth) {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    NodeReader r;
    ITAG_RETURN_IF_ERROR(
        r.Open(ref.image(), "unexpected page type on lookup path"));
    if (!r.leaf()) {
      id = r.child(r.ChildIndex(key));
      continue;
    }
    LeafSpot spot;
    ITAG_RETURN_IF_ERROR(FindInLeaf(&r, key, &spot));
    if (!spot.found) return false;
    if (!fn) return true;
    if (spot.entry.head == kNullPage) {
      ITAG_RETURN_IF_ERROR(fn(spot.entry.inline_value()));
      return true;
    }
    ref.Release();
    std::string value;
    ITAG_RETURN_IF_ERROR(
        LoadChain(spot.entry.head, spot.entry.total_len, &value));
    ITAG_RETURN_IF_ERROR(fn(value));
    return true;
  }
  return NodeCorruption(root_, "lookup exceeded maximum depth");
}

// ---------------------------------------------------------------------------
// Insertion.

Result<bool> PagedBTree::Put(uint64_t key, std::string_view value) {
  ITAG_ASSIGN_OR_RETURN(InsertResult res, Write(key, value, nullptr));
  return !res.replaced;
}

Result<bool> PagedBTree::Replace(uint64_t key, std::string_view value,
                                 const ValueFn& old) {
  ITAG_ASSIGN_OR_RETURN(InsertResult res, Write(key, value, &old));
  return !res.absent;
}

Result<PagedBTree::InsertResult> PagedBTree::Write(uint64_t key,
                                                   std::string_view value,
                                                   const ValueFn* old) {
  InsertResult res;
  if (root_ == kNullPage) {
    res.absent = old != nullptr;
    if (res.absent) return res;
    PageId head = kNullPage;
    if (value.size() > MaxInlineValue()) {
      ITAG_ASSIGN_OR_RETURN(head, StoreChain(value));
    }
    ITAG_ASSIGN_OR_RETURN(
        root_, WriteFreshNode(PageType::kLeaf, OneEntryLeaf(key, head, value)));
    return res;
  }
  ITAG_ASSIGN_OR_RETURN(res, InsertRec(root_, key, value, old));
  root_ = res.node;
  if (res.split) {
    InternalNode root;
    root.keys.push_back(res.split_key);
    root.children = {res.node, res.right};
    ITAG_ASSIGN_OR_RETURN(
        root_, WriteFreshNode(PageType::kInternal, EncodeInternal(root)));
  }
  return res;
}

Result<PagedBTree::InsertResult> PagedBTree::InsertRec(
    PageId id, uint64_t key, std::string_view value, const ValueFn* old) {
  size_t idx = 0;
  PageId child_id = kNullPage;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    NodeReader r;
    ITAG_RETURN_IF_ERROR(
        r.Open(ref.image(), "unexpected page type on insert path"));
    if (r.leaf()) return InsertIntoLeaf(id, std::move(ref), key, value, old);
    idx = r.ChildIndex(key);
    child_id = r.child(idx);
  }

  ITAG_ASSIGN_OR_RETURN(InsertResult child,
                        InsertRec(child_id, key, value, old));
  InsertResult res;
  res.node = id;
  res.replaced = child.replaced;
  res.absent = child.absent;
  if (!child.split) {
    // A child that kept its id was fresh, so this node is too and still
    // points at it: nothing to write.
    if (child.node != child_id) {
      ITAG_ASSIGN_OR_RETURN(res.node, Relink(id, idx, child.node));
    }
    return res;
  }
  InternalNode internal;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &internal));
  }
  internal.children[idx] = child.node;
  internal.keys.insert(internal.keys.begin() + static_cast<ptrdiff_t>(idx),
                       child.split_key);
  internal.children.insert(
      internal.children.begin() + static_cast<ptrdiff_t>(idx + 1),
      child.right);
  if (InternalBytes(internal) <= pager_->payload_size()) {
    ITAG_ASSIGN_OR_RETURN(
        res.node, WriteNode(id, PageType::kInternal, EncodeInternal(internal)));
    return res;
  }
  // Split the internal node, promoting the middle separator. When its last
  // child split, as appends past the tree's last key make it do, it
  // promotes the second-to-last one instead: the node keeps all but its
  // last two children, and the new right node holds those two.
  const size_t mid = idx + 1 == internal.keys.size()
                         ? internal.keys.size() - 2
                         : internal.keys.size() / 2;
  InternalNode right;
  right.keys.assign(internal.keys.begin() + static_cast<ptrdiff_t>(mid + 1),
                    internal.keys.end());
  right.children.assign(
      internal.children.begin() + static_cast<ptrdiff_t>(mid + 1),
      internal.children.end());
  uint64_t up = internal.keys[mid];
  internal.keys.resize(mid);
  internal.children.resize(mid + 1);
  res.split = true;
  res.split_key = up;
  ITAG_ASSIGN_OR_RETURN(
      res.node, WriteNode(id, PageType::kInternal, EncodeInternal(internal)));
  ITAG_ASSIGN_OR_RETURN(
      res.right, WriteFreshNode(PageType::kInternal, EncodeInternal(right)));
  return res;
}

Result<PagedBTree::InsertResult> PagedBTree::InsertIntoLeaf(
    PageId id, PageRef ref, uint64_t key, std::string_view value,
    const ValueFn* old) {
  NodeReader r;
  ITAG_RETURN_IF_ERROR(r.OpenLeaf(ref.image()));
  LeafSpot spot;
  ITAG_RETURN_IF_ERROR(FindInLeaf(&r, key, &spot));
  InsertResult res;
  res.node = id;
  if (!spot.found && old != nullptr) {
    res.absent = true;
    return res;
  }
  const LeafEntry was = spot.entry;
  if (spot.found && old != nullptr && was.head == kNullPage) {
    ITAG_RETURN_IF_ERROR((*old)(was.inline_value()));
  }
  res.replaced = spot.found;

  // The new entry's size depends only on whether the value spills, so
  // whether the leaf still fits is known before the chain is written.
  const bool spills = value.size() > MaxInlineValue();
  const size_t entry_bytes =
      spills ? kOverflowEntryBytes : kInlineEntryHead + value.size();
  const size_t from = spot.offset;
  const size_t to = spot.found ? was.end : from;
  const size_t count = r.count() + (spot.found ? 0 : 1);
  const bool fits = ref.payload().size() - (to - from) + entry_bytes <=
                    pager_->payload_size();
  const bool chained = spills || (spot.found && was.head != kNullPage);
  if (fits && !chained && pager_->IsFresh(id)) {
    // No committed tree points at a fresh page, so it is edited where it
    // lies and keeps its id.
    SpliceInPlace(&ref.payload(), pager_->payload_size(), from, to,
                  entry_bytes, count);
    PutLeafEntry(ref.payload().data() + from, key, kNullPage, value.size(),
                 value.data());
    ref.MarkDirty();
    return res;
  }
  // A key past the leaf's last entry splits it at its end: the leaf keeps
  // every entry, unwritten, and the new right leaf starts with the new one
  // alone, so ascending keys fill each leaf instead of leaving it half full.
  const bool end_split = !fits && !spot.found && from == ref.payload().size();
  std::vector<uint8_t> spliced;
  LeafNode leaf;
  if (fits) {
    spliced = Splice(ref.payload(), from, to, entry_bytes, count);
  } else if (!end_split) {
    ITAG_RETURN_IF_ERROR(DecodeLeaf(ref.image(), &leaf));
  }
  ref.Release();

  if (spot.found) {
    if (old != nullptr && was.head != kNullPage) {
      std::string bytes;
      ITAG_RETURN_IF_ERROR(LoadChain(was.head, was.total_len, &bytes));
      ITAG_RETURN_IF_ERROR((*old)(bytes));
    }
    ITAG_RETURN_IF_ERROR(ReleaseChain(was.head, was.total_len));
  }
  PageId head = kNullPage;
  if (spills) {
    ITAG_ASSIGN_OR_RETURN(head, StoreChain(value));
  }
  if (fits) {
    PutLeafEntry(spliced.data() + from, key, head, value.size(),
                 value.data());
    ITAG_ASSIGN_OR_RETURN(res.node,
                          WriteNode(id, PageType::kLeaf, std::move(spliced)));
    return res;
  }
  if (end_split) {
    res.split = true;
    res.split_key = key;
    ITAG_ASSIGN_OR_RETURN(res.right,
                          WriteFreshNode(PageType::kLeaf,
                                         OneEntryLeaf(key, head, value)));
    return res;
  }

  ValueRef v;
  v.head = head;
  v.total_len = static_cast<uint32_t>(value.size());
  if (!spills) v.inline_value.assign(value.begin(), value.end());
  auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
  const size_t pos = static_cast<size_t>(it - leaf.keys.begin());
  if (spot.found) {
    leaf.values[pos] = std::move(v);
  } else {
    leaf.keys.insert(it, key);
    leaf.values.insert(leaf.values.begin() + static_cast<ptrdiff_t>(pos),
                       std::move(v));
  }
  // Split at the entry boundary closest to half the encoded size; both
  // halves stay non-empty (a single over-wide entry cannot reach here —
  // inline values are capped at a quarter page).
  const size_t total = LeafBytes(leaf);
  size_t acc = 2;
  size_t split_at = leaf.keys.size() / 2;
  for (size_t i = 0; i < leaf.keys.size(); ++i) {
    acc += LeafEntryBytes(leaf.values[i]);
    if (acc >= total / 2) {
      split_at = i + 1;
      break;
    }
  }
  if (split_at == 0) split_at = 1;
  if (split_at >= leaf.keys.size()) split_at = leaf.keys.size() - 1;
  LeafNode right;
  right.keys.assign(leaf.keys.begin() + static_cast<ptrdiff_t>(split_at),
                    leaf.keys.end());
  right.values.assign(
      std::make_move_iterator(leaf.values.begin() +
                              static_cast<ptrdiff_t>(split_at)),
      std::make_move_iterator(leaf.values.end()));
  leaf.keys.resize(split_at);
  leaf.values.resize(split_at);
  res.split = true;
  res.split_key = right.keys.front();
  ITAG_ASSIGN_OR_RETURN(res.node,
                        WriteNode(id, PageType::kLeaf, EncodeLeaf(leaf)));
  ITAG_ASSIGN_OR_RETURN(res.right,
                        WriteFreshNode(PageType::kLeaf, EncodeLeaf(right)));
  return res;
}

// ---------------------------------------------------------------------------
// Deletion.

Result<bool> PagedBTree::Erase(uint64_t key, const ValueFn& old) {
  if (root_ == kNullPage) return false;
  ITAG_ASSIGN_OR_RETURN(EraseResult res,
                        EraseRec(root_, key, old ? &old : nullptr));
  if (!res.found) return false;
  root_ = res.node;
  // Collapse trivial roots: an internal root with one child, or an empty
  // leaf root (last entry deleted). Either one reports an underflow.
  while (res.underflow && root_ != kNullPage) {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(root_));
    NodeReader r;
    ITAG_RETURN_IF_ERROR(
        r.Open(ref.image(), "unexpected page type on erase path"));
    if (r.count() != 0) break;
    const PageId child = r.leaf() ? kNullPage : r.child(0);
    ref.Release();
    pager_->Free(root_);
    cache_->Drop(root_);
    root_ = child;
  }
  return true;
}

Result<PagedBTree::EraseResult> PagedBTree::EraseRec(PageId id, uint64_t key,
                                                     const ValueFn* old) {
  const size_t quarter = pager_->payload_size() / 4;
  size_t idx = 0;
  PageId child_id = kNullPage;
  bool underflow = false;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    NodeReader r;
    ITAG_RETURN_IF_ERROR(
        r.Open(ref.image(), "unexpected page type on erase path"));
    if (r.leaf()) return EraseFromLeaf(id, std::move(ref), key, old);
    idx = r.ChildIndex(key);
    child_id = r.child(idx);
    underflow = r.count() == 0 || r.bytes() < quarter;
  }

  ITAG_ASSIGN_OR_RETURN(EraseResult child, EraseRec(child_id, key, old));
  if (!child.found) return EraseResult{id, false};
  EraseResult res{id, true, underflow};
  if (!child.underflow) {
    // This node keeps its size; only a relocated child needs writing.
    if (child.node != child_id) {
      ITAG_ASSIGN_OR_RETURN(res.node, Relink(id, idx, child.node));
    }
    return res;
  }
  InternalNode internal;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &internal));
  }
  internal.children[idx] = child.node;
  ITAG_RETURN_IF_ERROR(Rebalance(&internal, idx));
  res.underflow = internal.children.size() < 2 ||
                  InternalBytes(internal) < quarter;
  ITAG_ASSIGN_OR_RETURN(
      res.node, WriteNode(id, PageType::kInternal, EncodeInternal(internal)));
  return res;
}

Result<PagedBTree::EraseResult> PagedBTree::EraseFromLeaf(
    PageId id, PageRef ref, uint64_t key, const ValueFn* old) {
  NodeReader r;
  ITAG_RETURN_IF_ERROR(r.OpenLeaf(ref.image()));
  LeafSpot spot;
  ITAG_RETURN_IF_ERROR(FindInLeaf(&r, key, &spot));
  if (!spot.found) return EraseResult{id, false};
  const LeafEntry was = spot.entry;
  if (old != nullptr && was.head == kNullPage) {
    ITAG_RETURN_IF_ERROR((*old)(was.inline_value()));
  }
  const size_t quarter = pager_->payload_size() / 4;
  if (was.head == kNullPage && pager_->IsFresh(id)) {
    SpliceInPlace(&ref.payload(), pager_->payload_size(), was.begin, was.end,
                  0, r.count() - 1);
    ref.MarkDirty();
    return EraseResult{id, true, ref.payload().size() < quarter};
  }
  std::vector<uint8_t> spliced =
      Splice(ref.payload(), was.begin, was.end, 0, r.count() - 1);
  ref.Release();
  if (old != nullptr && was.head != kNullPage) {
    std::string bytes;
    ITAG_RETURN_IF_ERROR(LoadChain(was.head, was.total_len, &bytes));
    ITAG_RETURN_IF_ERROR((*old)(bytes));
  }
  ITAG_RETURN_IF_ERROR(ReleaseChain(was.head, was.total_len));
  EraseResult res;
  res.found = true;
  res.underflow = spliced.size() < quarter;
  ITAG_ASSIGN_OR_RETURN(res.node,
                        WriteNode(id, PageType::kLeaf, std::move(spliced)));
  return res;
}

Status PagedBTree::Rebalance(InternalNode* parent, size_t idx) {
  if (parent->children.size() < 2) return Status::OK();
  // Pair the underflowing child with its left sibling when one exists,
  // otherwise its right one; `li` is also the parent separator index.
  const size_t li = idx > 0 ? idx - 1 : idx;
  const size_t ri = li + 1;
  const PageId left_id = parent->children[li];
  const PageId right_id = parent->children[ri];
  const size_t payload = pager_->payload_size();
  const size_t quarter = payload / 4;

  PageType type;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(left_id));
    type = ref.header().type;
  }

  if (type == PageType::kLeaf) {
    LeafNode left, right;
    {
      ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(left_id));
      ITAG_RETURN_IF_ERROR(DecodeLeaf(ref.image(), &left));
    }
    {
      ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(right_id));
      ITAG_RETURN_IF_ERROR(DecodeLeaf(ref.image(), &right));
    }
    if (LeafBytes(left) + LeafBytes(right) - 2 <= payload) {
      // Merge right into left; drop the separator.
      left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
      left.values.insert(left.values.end(),
                         std::make_move_iterator(right.values.begin()),
                         std::make_move_iterator(right.values.end()));
      ITAG_ASSIGN_OR_RETURN(
          parent->children[li],
          WriteNode(left_id, PageType::kLeaf, EncodeLeaf(left)));
      pager_->Free(right_id);
      cache_->Drop(right_id);
      parent->keys.erase(parent->keys.begin() + static_cast<ptrdiff_t>(li));
      parent->children.erase(parent->children.begin() +
                             static_cast<ptrdiff_t>(ri));
      return Status::OK();
    }
    // Borrow boundary entries from the richer sibling until the poor one is
    // above a quarter page (or the donor cannot spare more).
    const bool poor_is_left = idx == li;
    while (true) {
      LeafNode& poor = poor_is_left ? left : right;
      LeafNode& rich = poor_is_left ? right : left;
      if (LeafBytes(poor) >= quarter || rich.keys.size() <= 1) break;
      const size_t at = poor_is_left ? 0 : rich.keys.size() - 1;
      const size_t moving = LeafEntryBytes(rich.values[at]);
      if (LeafBytes(rich) - moving < quarter) break;
      if (poor_is_left) {
        // Move right's first entry onto left's back.
        left.keys.push_back(right.keys.front());
        left.values.push_back(std::move(right.values.front()));
        right.keys.erase(right.keys.begin());
        right.values.erase(right.values.begin());
      } else {
        // Move left's last entry onto right's front.
        right.keys.insert(right.keys.begin(), left.keys.back());
        right.values.insert(right.values.begin(),
                            std::move(left.values.back()));
        left.keys.pop_back();
        left.values.pop_back();
      }
    }
    if (right.keys.empty()) {
      return NodeCorruption(right_id, "rebalance emptied a leaf");
    }
    parent->keys[li] = right.keys.front();
    ITAG_ASSIGN_OR_RETURN(
        parent->children[li],
        WriteNode(left_id, PageType::kLeaf, EncodeLeaf(left)));
    ITAG_ASSIGN_OR_RETURN(
        parent->children[ri],
        WriteNode(right_id, PageType::kLeaf, EncodeLeaf(right)));
    return Status::OK();
  }

  InternalNode left, right;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(left_id));
    ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &left));
  }
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(right_id));
    ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &right));
  }
  uint64_t sep = parent->keys[li];
  const size_t merged_bytes = 2 + 4 * (left.children.size() + right.children.size()) +
                              8 * (left.keys.size() + right.keys.size() + 1);
  if (merged_bytes <= payload) {
    // Merge: left ++ sep ++ right.
    left.keys.push_back(sep);
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.children.insert(left.children.end(), right.children.begin(),
                         right.children.end());
    ITAG_ASSIGN_OR_RETURN(
        parent->children[li],
        WriteNode(left_id, PageType::kInternal, EncodeInternal(left)));
    pager_->Free(right_id);
    cache_->Drop(right_id);
    parent->keys.erase(parent->keys.begin() + static_cast<ptrdiff_t>(li));
    parent->children.erase(parent->children.begin() +
                           static_cast<ptrdiff_t>(ri));
    return Status::OK();
  }
  // Rotate children through the parent separator.
  const bool poor_is_left = idx == li;
  while (true) {
    InternalNode& poor = poor_is_left ? left : right;
    InternalNode& rich = poor_is_left ? right : left;
    if (InternalBytes(poor) >= quarter || rich.keys.size() <= 1) break;
    if (poor_is_left) {
      left.keys.push_back(sep);
      sep = right.keys.front();
      right.keys.erase(right.keys.begin());
      left.children.push_back(right.children.front());
      right.children.erase(right.children.begin());
    } else {
      right.keys.insert(right.keys.begin(), sep);
      sep = left.keys.back();
      left.keys.pop_back();
      right.children.insert(right.children.begin(), left.children.back());
      left.children.pop_back();
    }
  }
  parent->keys[li] = sep;
  ITAG_ASSIGN_OR_RETURN(
      parent->children[li],
      WriteNode(left_id, PageType::kInternal, EncodeInternal(left)));
  ITAG_ASSIGN_OR_RETURN(
      parent->children[ri],
      WriteNode(right_id, PageType::kInternal, EncodeInternal(right)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Ordered scan.

Status PagedBTree::Scan(uint64_t start, const ScanFn& fn) {
  if (root_ == kNullPage) return Status::OK();
  // Ancestors and the current leaf are held as copies of their pages, so
  // `fn` runs with nothing pinned.
  struct Level {
    PageImage node;
    size_t idx;
  };
  std::vector<Level> stack;
  PageImage leaf;
  std::vector<LeafEntry> entries;
  std::string chain;
  PageId id = root_;
  bool first = true;
  for (;;) {
    // Descend to a leaf: towards `start` the first time, then along the
    // leftmost edge of the next subtree.
    for (;;) {
      ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
      NodeReader r;
      ITAG_RETURN_IF_ERROR(
          r.Open(ref.image(), "unexpected page type on scan path"));
      if (r.leaf()) {
        leaf = ref.image();
        break;
      }
      const size_t idx = first ? r.ChildIndex(start) : 0;
      id = r.child(idx);
      stack.push_back(Level{ref.image(), idx});
      if (stack.size() > 64) {
        return NodeCorruption(root_, "scan exceeded maximum depth");
      }
    }
    NodeReader r;
    ITAG_RETURN_IF_ERROR(r.OpenLeaf(leaf));
    entries.resize(r.count());
    for (LeafEntry& e : entries) ITAG_RETURN_IF_ERROR(r.Next(&e));
    ITAG_RETURN_IF_ERROR(r.Finish());
    for (const LeafEntry& e : entries) {
      if (first && e.key < start) continue;
      std::string_view value = e.inline_value();
      if (e.head != kNullPage) {
        ITAG_RETURN_IF_ERROR(LoadChain(e.head, e.total_len, &chain));
        value = chain;
      }
      if (!fn(e.key, value)) return Status::OK();
    }
    first = false;
    // Climb to the first ancestor with an unvisited child and step to it.
    for (;;) {
      if (stack.empty()) return Status::OK();
      NodeReader up;
      ITAG_RETURN_IF_ERROR(up.OpenInternal(stack.back().node));
      if (stack.back().idx < up.count()) {
        id = up.child(++stack.back().idx);
        break;
      }
      stack.pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-tree teardown.

Status PagedBTree::Destroy() {
  if (root_ == kNullPage) return Status::OK();
  ITAG_RETURN_IF_ERROR(DestroyRec(root_));
  root_ = kNullPage;
  return Status::OK();
}

Status PagedBTree::DestroyRec(PageId id) {
  PageType type;
  LeafNode leaf;
  InternalNode internal;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    type = ref.header().type;
    if (type == PageType::kLeaf) {
      ITAG_RETURN_IF_ERROR(DecodeLeaf(ref.image(), &leaf));
    } else if (type == PageType::kInternal) {
      ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &internal));
    } else {
      return NodeCorruption(id, "unexpected page type in destroy");
    }
  }
  if (type == PageType::kLeaf) {
    for (const ValueRef& v : leaf.values) {
      ITAG_RETURN_IF_ERROR(ReleaseChain(v.head, v.total_len));
    }
  } else {
    for (PageId child : internal.children) {
      ITAG_RETURN_IF_ERROR(DestroyRec(child));
    }
  }
  pager_->Free(id);
  cache_->Drop(id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Invariant checking (test hook).

Status PagedBTree::LeafDepth(PageId id, size_t depth, size_t* out) {
  ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
  if (ref.header().type == PageType::kLeaf) {
    *out = depth;
    return Status::OK();
  }
  if (ref.header().type != PageType::kInternal) {
    return NodeCorruption(id, "unexpected page type");
  }
  InternalNode node;
  ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &node));
  ref.Release();
  if (depth > 64) return NodeCorruption(id, "tree too deep");
  return LeafDepth(node.children.front(), depth + 1, out);
}

Result<uint64_t> PagedBTree::CheckInvariants() {
  if (root_ == kNullPage) return uint64_t{0};
  size_t leaf_depth = 0;
  ITAG_RETURN_IF_ERROR(LeafDepth(root_, 0, &leaf_depth));
  return CheckRec(root_, 0, leaf_depth, false, 0, false, 0);
}

Result<uint64_t> PagedBTree::CheckRec(PageId id, size_t depth,
                                      size_t leaf_depth, bool has_low,
                                      uint64_t low, bool has_high,
                                      uint64_t high) {
  PageType type;
  LeafNode leaf;
  InternalNode internal;
  {
    ITAG_ASSIGN_OR_RETURN(PageRef ref, cache_->Pin(id));
    type = ref.header().type;
    if (type == PageType::kLeaf) {
      ITAG_RETURN_IF_ERROR(DecodeLeaf(ref.image(), &leaf));
    } else if (type == PageType::kInternal) {
      ITAG_RETURN_IF_ERROR(DecodeInternal(ref.image(), &internal));
    } else {
      return NodeCorruption(id, "unexpected page type");
    }
  }

  auto in_bounds = [&](uint64_t k) {
    if (has_low && k < low) return false;
    if (has_high && k >= high) return false;
    return true;
  };

  if (type == PageType::kLeaf) {
    if (depth != leaf_depth) return NodeCorruption(id, "uneven leaf depth");
    if (LeafBytes(leaf) > pager_->payload_size()) {
      return NodeCorruption(id, "leaf overflows its page");
    }
    std::string value;
    for (size_t i = 0; i < leaf.keys.size(); ++i) {
      if (!in_bounds(leaf.keys[i])) return NodeCorruption(id, "key out of bounds");
      if (i > 0 && leaf.keys[i - 1] >= leaf.keys[i]) {
        return NodeCorruption(id, "unsorted leaf keys");
      }
      const ValueRef& v = leaf.values[i];
      if (v.head != kNullPage) {
        ITAG_RETURN_IF_ERROR(LoadChain(v.head, v.total_len, &value));
      }
    }
    return static_cast<uint64_t>(leaf.keys.size());
  }

  if (depth >= leaf_depth) return NodeCorruption(id, "internal below leaf depth");
  if (internal.children.size() != internal.keys.size() + 1) {
    return NodeCorruption(id, "child/key count mismatch");
  }
  if (internal.children.size() < 2) {
    return NodeCorruption(id, "internal with a single child");
  }
  if (InternalBytes(internal) > pager_->payload_size()) {
    return NodeCorruption(id, "internal overflows its page");
  }
  uint64_t count = 0;
  for (size_t i = 0; i < internal.children.size(); ++i) {
    bool child_has_low = has_low || i > 0;
    uint64_t child_low = i > 0 ? internal.keys[i - 1] : low;
    bool child_has_high = has_high || i < internal.keys.size();
    uint64_t child_high = i < internal.keys.size() ? internal.keys[i] : high;
    if (i > 0 && !in_bounds(internal.keys[i - 1])) {
      return NodeCorruption(id, "separator out of bounds");
    }
    if (i > 1 && internal.keys[i - 2] >= internal.keys[i - 1]) {
      return NodeCorruption(id, "unsorted separators");
    }
    ITAG_ASSIGN_OR_RETURN(
        uint64_t sub, CheckRec(internal.children[i], depth + 1, leaf_depth,
                               child_has_low, child_low, child_has_high,
                               child_high));
    count += sub;
  }
  return count;
}

}  // namespace itag::storage::pager
