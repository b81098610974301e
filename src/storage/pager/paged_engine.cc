#include "storage/pager/paged_engine.h"

#include "common/binio.h"

namespace itag::storage::pager {

Status PagedEngine::Open(const PagedEngineOptions& options) {
  options_ = options;
  PagerOptions popts;
  popts.path = options.path;
  popts.page_size = options.page_size;
  ITAG_RETURN_IF_ERROR(pager_.Open(popts));
  cache_ = std::make_unique<PageCache>(&pager_, options.cache_bytes);
  Status s = LoadCatalog();
  if (!s.ok()) Close();
  return s;
}

void PagedEngine::Close() {
  tables_.clear();
  cache_.reset();
  pager_.Close();
}

std::vector<std::string> PagedEngine::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, state] : tables_) {
    (void)state;
    out.push_back(name);
  }
  return out;
}

PagedTableState* PagedEngine::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status PagedEngine::CreateTable(const std::string& name,
                                const std::string& schema_blob) {
  if (tables_.count(name)) return Status::AlreadyExists("table " + name);
  PagedTableState state;
  state.schema_blob = schema_blob;
  state.tree = std::make_unique<PagedBTree>(&pager_, cache_.get(), kNullPage);
  tables_.emplace(name, std::move(state));
  return Status::OK();
}

Status PagedEngine::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  ITAG_RETURN_IF_ERROR(it->second.tree->Destroy());
  tables_.erase(it);
  return Status::OK();
}

Status PagedEngine::LoadCatalog() {
  tables_.clear();
  std::string blob;
  PageId pid = pager_.catalog_head();
  uint32_t hops = 0;
  while (pid != kNullPage) {
    if (++hops > pager_.page_count()) {
      return Status::Corruption("catalog chain cycle in " + options_.path);
    }
    PageImage img;
    ITAG_RETURN_IF_ERROR(pager_.ReadPage(pid, &img));
    if (img.header.type != PageType::kCatalog) {
      return Status::Corruption("catalog chain page " + std::to_string(pid) +
                                " has wrong type");
    }
    blob.append(reinterpret_cast<const char*>(img.payload.data()),
                img.payload.size());
    pid = img.header.next;
  }
  if (blob.empty()) return Status::OK();  // freshly formatted file

  ByteReader r(blob);
  uint32_t count = 0;
  if (!r.U32(&count)) return Status::Corruption("catalog header malformed");
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    PagedTableState state;
    uint32_t root = kNullPage;
    if (!r.Str(&name) || !r.Str(&state.schema_blob) ||
        !r.U64(&state.next_row_id) || !r.U64(&state.row_count) ||
        !r.U32(&root)) {
      return Status::Corruption("catalog entry " + std::to_string(i) +
                                " malformed");
    }
    state.tree = std::make_unique<PagedBTree>(&pager_, cache_.get(), root);
    tables_.emplace(std::move(name), std::move(state));
  }
  if (!r.AtEnd()) return Status::Corruption("catalog trailing bytes");
  return Status::OK();
}

Status PagedEngine::FreeChain(PageId head) {
  PageId pid = head;
  uint32_t hops = 0;
  while (pid != kNullPage) {
    if (++hops > pager_.page_count()) {
      return Status::Corruption("catalog chain cycle while freeing");
    }
    PageImage img;
    ITAG_RETURN_IF_ERROR(pager_.ReadPage(pid, &img));
    pager_.Free(pid);
    cache_->Drop(pid);
    pid = img.header.next;
  }
  return Status::OK();
}

Result<PageId> PagedEngine::WriteCatalog() {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, state] : tables_) {
    w.Str(name);
    w.Str(state.schema_blob);
    w.U64(state.next_row_id);
    w.U64(state.row_count);
    w.U32(state.tree->root());
  }
  const std::string blob = w.Take();

  const size_t chunk = pager_.payload_size();
  const size_t npages = blob.empty() ? 1 : (blob.size() + chunk - 1) / chunk;
  std::vector<PageId> ids(npages);
  for (size_t i = 0; i < npages; ++i) {
    ITAG_ASSIGN_OR_RETURN(ids[i], pager_.Allocate());
    cache_->Drop(ids[i]);  // no stale frame may shadow the direct write
  }
  for (size_t i = 0; i < npages; ++i) {
    const size_t off = i * chunk;
    const size_t len = std::min(chunk, blob.size() - off);
    PageImage img;
    img.header.page_id = ids[i];
    img.header.type = PageType::kCatalog;
    img.header.next = i + 1 < npages ? ids[i + 1] : kNullPage;
    img.payload.assign(blob.begin() + static_cast<ptrdiff_t>(off),
                       blob.begin() + static_cast<ptrdiff_t>(off + len));
    ITAG_RETURN_IF_ERROR(pager_.WritePage(&img));
  }
  return ids.front();
}

Status PagedEngine::Checkpoint(uint64_t checkpoint_lsn) {
  if (!is_open()) return Status::FailedPrecondition("engine not open");
  ITAG_RETURN_IF_ERROR(cache_->FlushAll());
  ITAG_RETURN_IF_ERROR(FreeChain(pager_.catalog_head()));
  ITAG_ASSIGN_OR_RETURN(PageId head, WriteCatalog());
  return pager_.Commit(head, checkpoint_lsn);
}

}  // namespace itag::storage::pager
