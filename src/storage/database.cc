#include "storage/database.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/pager/paged_engine.h"
#include "storage/row_store.h"

namespace itag::storage {

namespace fs = std::filesystem;

namespace {

/// Registry metrics of the storage layer (storage.*), shared by every
/// Database in the process (shards aggregate — per-shard WAL skew shows
/// up in core.shard.<i>.ops instead). Pointers cached once; bumping them
/// is a relaxed atomic add, negligible next to the fsync-free file append
/// it annotates.
struct StorageMetrics {
  obs::Counter* wal_appends;        ///< framed records appended to any WAL
  obs::Counter* wal_bytes;          ///< payload bytes across those records
  obs::Histogram* wal_batch_rows;   ///< sub-records per committed batch
  obs::Counter* checkpoints;        ///< completed durable checkpoints
  obs::Histogram* checkpoint_latency_us;

  static const StorageMetrics& Get() {
    static const StorageMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      StorageMetrics s;
      s.wal_appends = reg.GetCounter("storage.wal.appends");
      s.wal_bytes = reg.GetCounter("storage.wal.bytes");
      s.wal_batch_rows = reg.GetHistogram("storage.wal.batch_rows");
      s.checkpoints = reg.GetCounter("storage.checkpoint.count");
      s.checkpoint_latency_us =
          reg.GetHistogram("storage.checkpoint.latency_us");
      return s;
    }();
    return m;
  }
};

/// Reads the WAL at `path` and cuts it back to the end of its last whole
/// frame. The writer appends at the end of the file, so a torn or
/// zero-filled tail left in place would sit in front of every later frame
/// and hide it from the next recovery.
Status ReadAndTrimWal(const std::string& path,
                      std::vector<WalRecord>* records) {
  uint64_t end = 0;
  ITAG_RETURN_IF_ERROR(ReadWal(path, records, &end));
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec || size <= end) return Status::OK();  // no log, or nothing torn
  ITAG_LOG(kWarn) << "wal " << path << ": dropping " << size - end
                  << " bytes after the last whole frame";
  fs::resize_file(path, end, ec);
  if (ec) {
    return Status::IOError("cannot truncate wal " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

/// First word of a v2 snapshot file. A v1 snapshot leads with its table
/// count, which can never be ~0u, so one word distinguishes the formats.
constexpr uint32_t kSnapshotV2Sentinel = 0xFFFFFFFFu;

}  // namespace

Database::Database() = default;
Database::~Database() = default;

Status Database::Open(const DatabaseOptions& options) {
  options_ = options;
  durable_ = !options.directory.empty();
  tables_.clear();
  engine_.reset();
  next_lsn_ = 1;
  snapshot_lsn_ = 0;
  recovery_stats_ = RecoveryStats{};
  if (!durable_) return Status::OK();

  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IOError("cannot create " + options_.directory + ": " +
                           ec.message());
  }
  if (options_.paged) {
    ITAG_RETURN_IF_ERROR(RecoverPaged());
  } else {
    ITAG_RETURN_IF_ERROR(Recover());
  }
  return wal_.Open(options_.directory + "/" + options_.wal_file);
}

Status Database::Recover() {
  std::string snap = options_.directory + "/" + options_.snapshot_file;
  if (fs::exists(snap)) {
    ITAG_RETURN_IF_ERROR(LoadSnapshot(snap));
  }
  std::vector<WalRecord> records;
  ITAG_RETURN_IF_ERROR(
      ReadAndTrimWal(options_.directory + "/" + options_.wal_file, &records));
  uint64_t max_lsn = snapshot_lsn_;
  for (const WalRecord& rec : records) {
    ++recovery_stats_.wal_records_scanned;
    recovery_stats_.wal_bytes_scanned += rec.payload.size();
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
    // A v2 snapshot records the highest LSN it contains, so a retained WAL
    // (retain_wal: checkpoints keep the log for replication subscribers)
    // replays only the frames past it. Pre-v2 snapshots leave snapshot_lsn_
    // at 0 and replay everything, with the historical tolerance below.
    if (rec.lsn != 0 && rec.lsn <= snapshot_lsn_) continue;
    ++recovery_stats_.wal_records_replayed;
    Status s = ApplyWalRecord(rec);
    if (!s.ok()) {
      // Replay must be idempotent-ish against a snapshot that already
      // contains some of the records (checkpoint truncates the WAL, so in
      // the normal protocol this cannot happen; tolerate AlreadyExists to be
      // robust against a crash between snapshot write and WAL truncate).
      if (!s.IsAlreadyExists()) return s;
    }
  }
  next_lsn_ = max_lsn + 1;
  ITAG_LOG(kInfo) << "recovered " << tables_.size() << " tables, replayed "
                  << records.size() << " wal records";
  return Status::OK();
}

Status Database::RecoverPaged() {
  engine_ = std::make_unique<pager::PagedEngine>();
  pager::PagedEngineOptions eopts;
  eopts.path = options_.directory + "/" + options_.page_file;
  eopts.page_size = options_.page_size;
  eopts.cache_bytes = options_.page_cache_mb << 20;
  eopts.compression = options_.page_compression;
  Status opened = engine_->Open(eopts);
  if (!opened.ok()) {
    engine_.reset();
    return opened;
  }

  // Rehydrate table handles from the committed catalog — O(catalog); no row
  // is read until a query faults its page in.
  for (const std::string& name : engine_->TableNames()) {
    pager::PagedTableState* state = engine_->GetTable(name);
    Schema schema;
    size_t off = 0;
    if (!Schema::DecodeFrom(state->schema_blob, &off, &schema)) {
      return Status::Corruption("catalog schema for " + name +
                                " does not decode");
    }
    auto store = std::make_unique<PagedRowStore>(
        state->tree.get(), schema.num_columns(), state->row_count);
    tables_.emplace(name,
                    std::make_unique<Table>(name, schema, std::move(store),
                                            state->next_row_id));
  }

  // Replay only the WAL tail past the checkpoint: after a clean shutdown
  // (checkpoint truncated the WAL) this loop reads nothing; after a crash it
  // replays exactly the frames the page file does not contain yet.
  const uint64_t ckpt = engine_->checkpoint_lsn();
  uint64_t max_lsn = ckpt;
  std::vector<WalRecord> records;
  ITAG_RETURN_IF_ERROR(
      ReadAndTrimWal(options_.directory + "/" + options_.wal_file, &records));
  for (const WalRecord& rec : records) {
    ++recovery_stats_.wal_records_scanned;
    recovery_stats_.wal_bytes_scanned += rec.payload.size();
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
    if (rec.lsn <= ckpt) continue;  // already durable in the page file
    ++recovery_stats_.wal_records_replayed;
    Status s = ApplyWalRecord(rec);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  next_lsn_ = max_lsn + 1;
  ITAG_LOG(kInfo) << "paged open: " << tables_.size() << " tables, replayed "
                  << recovery_stats_.wal_records_replayed << "/"
                  << recovery_stats_.wal_records_scanned
                  << " wal records past lsn " << ckpt;
  return Status::OK();
}

Status Database::MakeTable(const std::string& name, const Schema& schema) {
  if (paged()) {
    std::string blob;
    schema.EncodeTo(&blob);
    ITAG_RETURN_IF_ERROR(engine_->CreateTable(name, blob));
    pager::PagedTableState* state = engine_->GetTable(name);
    auto store = std::make_unique<PagedRowStore>(state->tree.get(),
                                                 schema.num_columns(), 0);
    tables_.emplace(name, std::make_unique<Table>(name, schema,
                                                  std::move(store), 1));
    return Status::OK();
  }
  tables_.emplace(name, std::make_unique<Table>(name, schema));
  return Status::OK();
}

Status Database::ApplyWalRecord(const WalRecord& rec) {
  switch (rec.op) {
    case WalOp::kCreateTable: {
      Schema schema;
      size_t off = 0;
      if (!Schema::DecodeFrom(rec.payload, &off, &schema)) {
        return Status::Corruption("bad schema in wal for " + rec.table);
      }
      if (tables_.count(rec.table)) return Status::AlreadyExists(rec.table);
      return MakeTable(rec.table, schema);
    }
    case WalOp::kDropTable:
      if (paged() && tables_.count(rec.table)) {
        ITAG_RETURN_IF_ERROR(engine_->DropTable(rec.table));
      }
      tables_.erase(rec.table);
      return Status::OK();
    case WalOp::kInsert: {
      Table* t = GetTable(rec.table);
      if (t == nullptr) return Status::Corruption("wal insert into missing " +
                                                  rec.table);
      Row row;
      if (!DecodeRow(rec.payload, t->schema().num_columns(), &row)) {
        return Status::Corruption("bad row in wal for " + rec.table);
      }
      return t->InsertWithId(rec.row_id, row);
    }
    case WalOp::kUpdate: {
      Table* t = GetTable(rec.table);
      if (t == nullptr) return Status::Corruption("wal update into missing " +
                                                  rec.table);
      Row row;
      if (!DecodeRow(rec.payload, t->schema().num_columns(), &row)) {
        return Status::Corruption("bad row in wal for " + rec.table);
      }
      return t->Update(rec.row_id, row);
    }
    case WalOp::kDelete: {
      Table* t = GetTable(rec.table);
      if (t == nullptr) return Status::Corruption("wal delete into missing " +
                                                  rec.table);
      return t->Delete(rec.row_id);
    }
    case WalOp::kBatch: {
      // The group frame was CRC-complete, so every sub-record must parse;
      // anything less is corruption, not a crash artifact.
      size_t off = 0;
      const std::string& buf = rec.payload;
      while (off < buf.size()) {
        if (buf.size() - off < 4) {
          return Status::Corruption("torn batch sub-record header");
        }
        uint32_t len;
        std::memcpy(&len, buf.data() + off, 4);
        off += 4;
        if (buf.size() - off < len) {
          return Status::Corruption("torn batch sub-record body");
        }
        WalRecord sub;
        if (!DecodeWalRecord(buf.substr(off, len), &sub) ||
            sub.op == WalOp::kBatch) {
          return Status::Corruption("malformed batch sub-record");
        }
        off += len;
        Status s = ApplyWalRecord(sub);
        // Same tolerance as the top-level replay loop: a snapshot taken
        // between batch append and WAL truncate may already contain rows.
        if (!s.ok() && !s.IsAlreadyExists()) return s;
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown wal op");
}

Status Database::LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read snapshot " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (data.size() < 8) return Status::Corruption("snapshot too short");
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (Crc32(data.data(), data.size() - 4) != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  size_t off = 0;
  uint32_t ntables;
  std::memcpy(&ntables, data.data(), 4);
  off += 4;
  if (ntables == kSnapshotV2Sentinel) {
    // v2 layout: [sentinel][u32 version][u64 checkpoint_lsn][u32 ntables]…
    // The sentinel can never be a real table count, so v1 files (which lead
    // with the count) are told apart by the first word alone.
    if (data.size() < off + 16) return Status::Corruption("snapshot too short");
    uint32_t version;
    std::memcpy(&version, data.data() + off, 4);
    off += 4;
    if (version != 2) {
      return Status::Corruption("unsupported snapshot version " +
                                std::to_string(version));
    }
    std::memcpy(&snapshot_lsn_, data.data() + off, 8);
    off += 8;
    std::memcpy(&ntables, data.data() + off, 4);
    off += 4;
  }
  for (uint32_t i = 0; i < ntables; ++i) {
    auto t = std::make_unique<Table>("", Schema());
    if (!Table::DecodeFrom(data, &off, t.get())) {
      return Status::Corruption("snapshot table " + std::to_string(i) +
                                " malformed");
    }
    std::string name = t->name();
    tables_.emplace(name, std::move(t));
  }
  return Status::OK();
}

Status Database::LogOp(WalOp op, const std::string& table, RowId row_id,
                       std::string payload) {
  if (!durable_) return Status::OK();
  if (!wal_error_.ok()) return wal_error_;
  WalRecord rec;
  rec.op = op;
  rec.table = table;
  rec.row_id = row_id;
  rec.payload = std::move(payload);
  if (batch_depth_ > 0) {
    // Buffer into the open atomic group instead of framing immediately; the
    // group frame's LSN covers every sub-record, so theirs stay 0.
    std::string encoded = EncodeWalRecord(rec);
    uint32_t len = static_cast<uint32_t>(encoded.size());
    batch_buf_.append(reinterpret_cast<const char*>(&len), 4);
    batch_buf_.append(encoded);
    ++batch_ops_;
    return Status::OK();
  }
  rec.lsn = next_lsn_++;
  size_t payload_bytes = rec.payload.size();
  obs::Span span("storage.wal.append");  // no-op unless the request is traced
  span.Annotate("bytes", static_cast<uint64_t>(payload_bytes));
  Status s = wal_.Append(rec);
  if (!s.ok()) {
    wal_error_ = s;
  } else {
    StorageMetrics::Get().wal_appends->Inc();
    StorageMetrics::Get().wal_bytes->Inc(payload_bytes);
  }
  return s;
}

void Database::BeginBatch() { ++batch_depth_; }

Status Database::CommitBatch() {
  if (batch_depth_ == 0) {
    return Status::FailedPrecondition("no batch open");
  }
  if (--batch_depth_ > 0) return Status::OK();
  size_t batch_ops = batch_ops_;
  batch_ops_ = 0;
  if (!durable_ || batch_buf_.empty()) {
    batch_buf_.clear();
    return Status::OK();
  }
  if (!wal_error_.ok()) {
    batch_buf_.clear();
    return wal_error_;
  }
  WalRecord rec;
  rec.op = WalOp::kBatch;
  rec.lsn = next_lsn_++;
  rec.payload = std::move(batch_buf_);
  batch_buf_.clear();
  size_t payload_bytes = rec.payload.size();
  obs::Span span("storage.wal.append");
  span.Annotate("bytes", static_cast<uint64_t>(payload_bytes));
  span.Annotate("batch_ops", static_cast<uint64_t>(batch_ops));
  Status s = wal_.Append(rec);
  if (!s.ok()) {
    wal_error_ = s;
  } else {
    StorageMetrics::Get().wal_appends->Inc();
    StorageMetrics::Get().wal_bytes->Inc(payload_bytes);
    StorageMetrics::Get().wal_batch_rows->Observe(batch_ops);
  }
  return s;
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  std::string payload;
  schema.EncodeTo(&payload);
  ITAG_RETURN_IF_ERROR(LogOp(WalOp::kCreateTable, name, 0, payload));
  return MakeTable(name, schema);
}

Status Database::DropTable(const std::string& name) {
  if (!tables_.count(name)) return Status::NotFound("table " + name);
  ITAG_RETURN_IF_ERROR(LogOp(WalOp::kDropTable, name, 0, ""));
  if (paged()) {
    ITAG_RETURN_IF_ERROR(engine_->DropTable(name));
  }
  tables_.erase(name);
  return Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::AddUniqueIndex(const std::string& table,
                                const std::string& column) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  return t->AddUniqueIndex(column);
}

Status Database::AddOrderedIndex(const std::string& table,
                                 const std::string& column) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  return t->AddOrderedIndex(column);
}

Result<RowId> Database::Insert(const std::string& table, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  // Validate first so a bad row never reaches the log.
  ITAG_RETURN_IF_ERROR(t->schema().Validate(row));
  Result<RowId> id = t->Insert(row);
  if (!id.ok()) return id;
  Status s = LogOp(WalOp::kInsert, table, id.value(), EncodeRow(row));
  if (!s.ok()) return s;
  return id;
}

Status Database::Update(const std::string& table, RowId id, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  ITAG_RETURN_IF_ERROR(t->Update(id, row));
  return LogOp(WalOp::kUpdate, table, id, EncodeRow(row));
}

Status Database::Delete(const std::string& table, RowId id) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  ITAG_RETURN_IF_ERROR(t->Delete(id));
  return LogOp(WalOp::kDelete, table, id, "");
}

Status Database::Checkpoint() {
  if (!durable_) return Status::OK();
  if (batch_depth_ > 0) {
    return Status::FailedPrecondition("checkpoint inside an open batch");
  }
  // Never snapshot past a lost append: the in-memory tables may contain
  // acknowledged mutations the log does not, and a checkpoint would make
  // that divergence permanent and invisible.
  if (!wal_error_.ok()) return wal_error_;
  obs::Span span("storage.checkpoint");
  auto checkpoint_start = std::chrono::steady_clock::now();

  if (paged()) {
    // Refresh the catalog scalars the engine persists alongside each tree
    // root, then commit: flush dirty pages, write the catalog chain, flip
    // the meta slot. No table is serialized — cost scales with dirty pages,
    // not with total rows.
    for (const auto& [name, table] : tables_) {
      pager::PagedTableState* state = engine_->GetTable(name);
      if (state == nullptr) {
        return Status::Corruption("table " + name + " missing from catalog");
      }
      state->next_row_id = table->next_row_id();
      state->row_count = table->row_count();
    }
    const uint64_t ckpt_lsn = next_lsn_ - 1;
    ITAG_RETURN_IF_ERROR(engine_->Checkpoint(ckpt_lsn));
    // retain_wal keeps the log for replication subscribers; recovery still
    // skips frames with lsn <= the engine's recorded checkpoint LSN.
    Status reset = options_.retain_wal ? Status::OK() : wal_.Reset();
    if (reset.ok()) {
      StorageMetrics::Get().checkpoints->Inc();
      StorageMetrics::Get().checkpoint_latency_us->Observe(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - checkpoint_start)
                  .count()));
    }
    return reset;
  }

  // v2 snapshot: sentinel + version + the highest LSN the snapshot contains,
  // so recovery with a retained WAL replays only the tail past it.
  std::string data;
  const uint32_t sentinel = kSnapshotV2Sentinel;
  const uint32_t version = 2;
  const uint64_t ckpt_lsn = next_lsn_ - 1;
  data.append(reinterpret_cast<const char*>(&sentinel), 4);
  data.append(reinterpret_cast<const char*>(&version), 4);
  data.append(reinterpret_cast<const char*>(&ckpt_lsn), 8);
  uint32_t ntables = static_cast<uint32_t>(tables_.size());
  data.append(reinterpret_cast<const char*>(&ntables), 4);
  for (const auto& [name, table] : tables_) {
    (void)name;
    table->EncodeTo(&data);
  }
  uint32_t crc = Crc32(data.data(), data.size());
  data.append(reinterpret_cast<const char*>(&crc), 4);

  std::string snap = options_.directory + "/" + options_.snapshot_file;
  std::string tmp = snap + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + tmp);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) return Status::IOError("snapshot write failed");
  }
  std::error_code ec;
  fs::rename(tmp, snap, ec);
  if (ec) return Status::IOError("snapshot rename failed: " + ec.message());
  snapshot_lsn_ = ckpt_lsn;
  Status reset = options_.retain_wal ? Status::OK() : wal_.Reset();
  if (reset.ok()) {
    // Count and time only completed checkpoints, so the counter and the
    // histogram's count stay a consistent pair for operators.
    StorageMetrics::Get().checkpoints->Inc();
    StorageMetrics::Get().checkpoint_latency_us->Observe(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - checkpoint_start)
                .count()));
  }
  return reset;
}

uint64_t Database::checkpoint_lsn() const {
  return engine_ ? engine_->checkpoint_lsn() : snapshot_lsn_;
}

std::string Database::wal_path() const {
  return durable_ ? options_.directory + "/" + options_.wal_file : "";
}

Status Database::ApplyReplicated(const WalRecord& rec) {
  if (rec.lsn == 0) {
    return Status::InvalidArgument("replicated record without an lsn");
  }
  if (batch_depth_ > 0) {
    return Status::FailedPrecondition("replicated apply inside an open batch");
  }
  if (rec.lsn < next_lsn_) return Status::OK();  // duplicate: already applied
  if (rec.lsn > next_lsn_) {
    return Status::OutOfRange("replication gap: have lsn " +
                              std::to_string(next_lsn_ - 1) + ", got " +
                              std::to_string(rec.lsn));
  }
  if (durable_) {
    // WAL-first, exactly like a local mutation: the record lands in this
    // database's own log verbatim (original LSN), so a follower restart
    // recovers to the same cursor it acked.
    if (!wal_error_.ok()) return wal_error_;
    obs::Span span("storage.wal.append");
    span.Annotate("bytes", static_cast<uint64_t>(rec.payload.size()));
    Status s = wal_.Append(rec);
    if (!s.ok()) {
      wal_error_ = s;
      return s;
    }
    StorageMetrics::Get().wal_appends->Inc();
    StorageMetrics::Get().wal_bytes->Inc(rec.payload.size());
  }
  next_lsn_ = rec.lsn + 1;
  Status s = ApplyWalRecord(rec);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) {
    (void)t;
    out.push_back(name);
  }
  return out;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, t] : tables_) {
    (void)name;
    n += t->row_count();
  }
  return n;
}

}  // namespace itag::storage
