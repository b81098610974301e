#ifndef ITAG_STORAGE_PAGER_PAGED_ENGINE_H_
#define ITAG_STORAGE_PAGER_PAGED_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager/page_cache.h"
#include "storage/pager/paged_btree.h"
#include "storage/pager/pager.h"

namespace itag::storage::pager {

struct PagedEngineOptions {
  std::string path;                   ///< page file
  size_t page_size = kDefaultPageSize;
  size_t cache_bytes = 64ull << 20;   ///< PageCache budget
};

/// One table's durable state inside the page file. `tree` is live; the
/// scalar fields are refreshed by the Database right before Checkpoint and
/// are authoritative only in the committed catalog.
struct PagedTableState {
  std::string schema_blob;   ///< Schema::EncodeTo bytes (opaque here)
  uint64_t next_row_id = 1;
  uint64_t row_count = 0;
  std::unique_ptr<PagedBTree> tree;
};

/// The paged storage engine: one Pager + PageCache and a catalog of named
/// B+trees. The catalog (table name, schema, next_row_id, row_count, tree
/// root) is serialized into a chain of kCatalog pages whose head the Pager's
/// meta slot records, so Open() restores every table by reading the meta
/// slot and that chain — O(catalog), not O(rows).
///
/// Checkpoint(lsn) is the commit point: flush the page cache, rewrite the
/// catalog chain, then Pager::Commit. Everything before the commit goes to
/// pages the previous checkpoint considers free (copy-on-write), so a crash
/// anywhere re-opens the previous checkpoint exactly.
class PagedEngine {
 public:
  Status Open(const PagedEngineOptions& options);
  void Close();
  bool is_open() const { return pager_.is_open(); }

  Pager* pager() { return &pager_; }
  PageCache* cache() { return cache_.get(); }
  uint64_t checkpoint_lsn() const { return pager_.checkpoint_lsn(); }

  std::vector<std::string> TableNames() const;
  PagedTableState* GetTable(const std::string& name);

  /// Registers a new empty table; AlreadyExists on collision.
  Status CreateTable(const std::string& name, const std::string& schema_blob);

  /// Destroys the table's tree (freeing its pages for the next epoch) and
  /// unregisters it; NotFound when absent.
  Status DropTable(const std::string& name);

  /// Commits everything mutated since the last checkpoint; `checkpoint_lsn`
  /// is the last WAL LSN the committed state contains.
  Status Checkpoint(uint64_t checkpoint_lsn);

 private:
  Status LoadCatalog();
  /// Frees the pages of a kCatalog chain starting at `head`.
  Status FreeChain(PageId head);
  /// Writes the catalog as a fresh chain, returning its head.
  Result<PageId> WriteCatalog();

  PagedEngineOptions options_;
  Pager pager_;
  std::unique_ptr<PageCache> cache_;
  std::map<std::string, PagedTableState> tables_;
};

}  // namespace itag::storage::pager

#endif  // ITAG_STORAGE_PAGER_PAGED_ENGINE_H_
