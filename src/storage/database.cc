#include "storage/database.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <utility>

#include "common/binio.h"
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
  obs::Counter* wal_coalesced_rows;  ///< row images folded into a sub-record
  obs::Counter* checkpoints;        ///< completed durable checkpoints
  obs::Histogram* checkpoint_latency_us;

  static const StorageMetrics& Get() {
    static const StorageMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      StorageMetrics s;
      s.wal_appends = reg.GetCounter("storage.wal.appends");
      s.wal_bytes = reg.GetCounter("storage.wal.bytes");
      s.wal_batch_rows = reg.GetHistogram("storage.wal.batch_rows");
      s.wal_coalesced_rows = reg.GetCounter("storage.wal.coalesced_rows");
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

/// File names inside DatabaseOptions::directory. Operators and tools
/// (perfbench, the CI smokes) read these files by name.
constexpr char kSnapshotFile[] = "snapshot.db";
constexpr char kWalFile[] = "wal.log";
constexpr char kPageFile[] = "pages.db";

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
  return wal_.Open(wal_path());
}

Status Database::Recover() {
  std::string snap = options_.directory + "/" + kSnapshotFile;
  if (fs::exists(snap)) {
    ITAG_RETURN_IF_ERROR(LoadSnapshot(snap));
  }
  return ReplayWal(snapshot_lsn_);
}

Status Database::RecoverPaged() {
  engine_ = std::make_unique<pager::PagedEngine>();
  pager::PagedEngineOptions eopts;
  eopts.path = options_.directory + "/" + kPageFile;
  eopts.page_size = options_.page_size;
  eopts.cache_bytes = options_.page_cache_mb << 20;
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
    ByteReader blob(state->schema_blob);
    if (!Schema::DecodeFrom(&blob, &schema)) {
      return Status::Corruption("catalog schema for " + name +
                                " does not decode");
    }
    auto store = std::make_unique<PagedRowStore>(
        state->tree.get(), schema.num_columns(), state->row_count);
    tables_.emplace(name,
                    std::make_unique<Table>(name, schema, std::move(store),
                                            state->next_row_id));
  }

  // After a clean shutdown (checkpoint truncated the WAL) the replay reads
  // nothing; after a crash it replays exactly the frames the page file does
  // not contain yet.
  return ReplayWal(engine_->checkpoint_lsn());
}

Status Database::ReplayWal(uint64_t ckpt_lsn) {
  std::vector<WalRecord> records;
  ITAG_RETURN_IF_ERROR(ReadAndTrimWal(wal_path(), &records));
  uint64_t max_lsn = ckpt_lsn;
  for (const WalRecord& rec : records) {
    ++recovery_stats_.wal_records_scanned;
    recovery_stats_.wal_bytes_scanned += rec.payload.size();
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
    // The checkpoint (snapshot v2 or paged meta) records the highest LSN it
    // contains, so a retained WAL (retain_wal keeps the log for replication
    // subscribers) replays only the frames past it. A pre-v2 snapshot
    // leaves the checkpoint LSN at 0 and replays everything.
    if (rec.lsn != 0 && rec.lsn <= ckpt_lsn) continue;
    ++recovery_stats_.wal_records_replayed;
    Status s = ApplyWalRecord(rec);
    // Replay must be idempotent-ish against a checkpoint that already
    // contains some of the records (checkpoint truncates the WAL, so in the
    // normal protocol this cannot happen; tolerate AlreadyExists to be
    // robust against a crash between checkpoint write and WAL truncate).
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  next_lsn_ = max_lsn + 1;
  ITAG_LOG(kInfo) << (paged() ? "paged open: " : "open: ") << tables_.size()
                  << " tables, replayed "
                  << recovery_stats_.wal_records_replayed << "/"
                  << recovery_stats_.wal_records_scanned
                  << " wal records past lsn " << ckpt_lsn;
  return Status::OK();
}

Status Database::MakeTable(const std::string& name, const Schema& schema) {
  if (paged()) {
    ByteWriter blob;
    schema.EncodeTo(&blob);
    ITAG_RETURN_IF_ERROR(engine_->CreateTable(name, blob.buffer()));
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
      ByteReader in(rec.payload);
      if (!Schema::DecodeFrom(&in, &schema) || !in.AtEnd()) {
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
      // The group frame was CRC-complete, so every sub-record (u32 length +
      // an EncodeWalRecord payload) must parse; anything less is
      // corruption, not a crash artifact.
      ByteReader in(rec.payload);
      while (!in.AtEnd()) {
        std::string bytes;
        WalRecord sub;
        if (!in.Str(&bytes) || !DecodeWalRecord(bytes, &sub) ||
            sub.op == WalOp::kBatch) {
          return Status::Corruption("malformed batch sub-record");
        }
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
  // [body][u32 crc32(body)]
  const std::string_view body(data.data(), data.size() - 4);
  uint32_t stored_crc;
  ByteReader(std::string_view(data).substr(body.size())).U32(&stored_crc);
  if (Crc32(body.data(), body.size()) != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  ByteReader r(body);
  uint32_t ntables;
  r.U32(&ntables);
  if (ntables == kSnapshotV2Sentinel) {
    // v2 layout: [sentinel][u32 version][u64 checkpoint_lsn][u32 ntables]…
    // The sentinel can never be a real table count, so v1 files (which lead
    // with the count) are told apart by the first word alone.
    uint32_t version;
    if (!r.U32(&version)) return Status::Corruption("snapshot too short");
    if (version != 2) {
      return Status::Corruption("unsupported snapshot version " +
                                std::to_string(version));
    }
    if (!r.U64(&snapshot_lsn_) || !r.U32(&ntables)) {
      return Status::Corruption("snapshot too short");
    }
  }
  for (uint32_t i = 0; i < ntables; ++i) {
    auto t = std::make_unique<Table>("", Schema());
    if (!Table::DecodeFrom(&r, t.get())) {
      return Status::Corruption("snapshot table " + std::to_string(i) +
                                " malformed");
    }
    std::string name = t->name();
    tables_.emplace(name, std::move(t));
  }
  if (!r.AtEnd()) return Status::Corruption("snapshot has trailing bytes");
  return Status::OK();
}

Status Database::WriteSnapshot(uint64_t ckpt_lsn) {
  // v2: sentinel + version + the highest LSN the snapshot contains, so
  // recovery with a retained WAL replays only the tail past it.
  ByteWriter w;
  w.U32(kSnapshotV2Sentinel);
  w.U32(2);
  w.U64(ckpt_lsn);
  w.U32(static_cast<uint32_t>(tables_.size()));
  for (const auto& entry : tables_) entry.second->EncodeTo(&w);
  w.U32(Crc32(w.buffer().data(), w.buffer().size()));
  const std::string& data = w.buffer();

  std::string snap = options_.directory + "/" + kSnapshotFile;
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
    batch_.emplace_back().rec = std::move(rec);
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

Status Database::LogRow(WalOp op, const Table& t, RowId id, const Row& row) {
  if (!durable_) return Status::OK();
  if (batch_depth_ == 0) return LogOp(op, t.name(), id, EncodeRow(row));
  if (!wal_error_.ok()) return wal_error_;
  const int key_col = t.unique_column();
  auto [slot, fresh] = batch_rows_.try_emplace(RowKey{&t, id}, batch_.size());
  if (!fresh && op == WalOp::kUpdate) {
    // The row's sub-record holds its image as of this update; overwrite it
    // unless the unique key moves. Replay tolerates AlreadyExists, so a
    // key-moving image replayed at the earlier position could collide with
    // a row that only later gave the key up and be dropped without an error.
    BatchEntry& entry = batch_[slot->second];
    if (key_col < 0 || entry.key == row[key_col]) {
      entry.rec.payload = EncodeRow(row);
      ++batch_coalesced_;
      return Status::OK();
    }
  }
  slot->second = batch_.size();
  BatchEntry& entry = batch_.emplace_back();
  entry.rec.op = op;
  entry.rec.table = t.name();
  entry.rec.row_id = id;
  entry.rec.payload = EncodeRow(row);
  if (key_col >= 0) entry.key = row[key_col];
  return Status::OK();
}

void Database::BeginBatch() { ++batch_depth_; }

Status Database::CommitBatch() {
  if (batch_depth_ == 0) {
    return Status::FailedPrecondition("no batch open");
  }
  if (--batch_depth_ > 0) return Status::OK();
  if (batch_.empty()) return Status::OK();  // nothing logged, or not durable
  const size_t batch_ops = batch_.size();
  const size_t coalesced = std::exchange(batch_coalesced_, 0);
  ByteWriter group;
  for (const BatchEntry& entry : batch_) group.Str(EncodeWalRecord(entry.rec));
  // Fresh containers, not clear(): a bulk batch (a project adoption, say)
  // must not leave its memory, or a bucket array clear() would walk, to
  // every batch after it. Move-assigned, since `= {}` picks the
  // initializer-list assignment, which keeps both.
  batch_ = decltype(batch_)();
  batch_rows_ = decltype(batch_rows_)();
  if (!wal_error_.ok()) return wal_error_;
  WalRecord rec;
  rec.op = WalOp::kBatch;
  rec.lsn = next_lsn_++;
  rec.payload = group.Take();
  size_t payload_bytes = rec.payload.size();
  obs::Span span("storage.wal.append");
  span.Annotate("bytes", static_cast<uint64_t>(payload_bytes));
  span.Annotate("batch_ops", static_cast<uint64_t>(batch_ops));
  span.Annotate("coalesced", static_cast<uint64_t>(coalesced));
  Status s = wal_.Append(rec);
  if (!s.ok()) {
    wal_error_ = s;
  } else {
    StorageMetrics::Get().wal_appends->Inc();
    StorageMetrics::Get().wal_bytes->Inc(payload_bytes);
    StorageMetrics::Get().wal_batch_rows->Observe(batch_ops);
    StorageMetrics::Get().wal_coalesced_rows->Inc(coalesced);
  }
  return s;
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name);
  }
  ByteWriter payload;
  schema.EncodeTo(&payload);
  ITAG_RETURN_IF_ERROR(LogOp(WalOp::kCreateTable, name, 0, payload.Take()));
  batch_rows_.clear();  // DDL ends folding for the whole batch
  return MakeTable(name, schema);
}

Status Database::EnsureTable(const std::string& name, const Schema& schema) {
  return tables_.count(name) ? Status::OK() : CreateTable(name, schema);
}

Status Database::DropTable(const std::string& name) {
  if (!tables_.count(name)) return Status::NotFound("table " + name);
  ITAG_RETURN_IF_ERROR(LogOp(WalOp::kDropTable, name, 0, ""));
  batch_rows_.clear();  // DDL ends folding for the whole batch
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

Result<RowId> Database::Insert(const std::string& table, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  // Table::Insert validates the row, so a bad row never reaches the log.
  ITAG_ASSIGN_OR_RETURN(RowId id, t->Insert(row));
  ITAG_RETURN_IF_ERROR(LogRow(WalOp::kInsert, *t, id, row));
  return id;
}

Status Database::Update(const std::string& table, RowId id, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  ITAG_RETURN_IF_ERROR(t->Update(id, row));
  return LogRow(WalOp::kUpdate, *t, id, row);
}

Result<RowId> Database::Upsert(const std::string& table, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  const int key_col = t->unique_column();
  if (key_col < 0) {
    return Status::FailedPrecondition("table " + table +
                                      " has no unique index");
  }
  // Table::Insert and Table::Update validate the row; only its arity has
  // to hold before the key column is read.
  if (row.size() != t->schema().num_columns()) return t->schema().Validate(row);
  if (std::optional<RowId> id = t->FindUnique(row[key_col])) {
    ITAG_RETURN_IF_ERROR(t->Update(*id, row));
    ITAG_RETURN_IF_ERROR(LogRow(WalOp::kUpdate, *t, *id, row));
    return *id;
  }
  ITAG_ASSIGN_OR_RETURN(RowId id, t->Insert(row));
  ITAG_RETURN_IF_ERROR(LogRow(WalOp::kInsert, *t, id, row));
  return id;
}

Status Database::Delete(const std::string& table, RowId id) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  ITAG_RETURN_IF_ERROR(t->Delete(id));
  // Logged as itself; nothing folds into the row afterwards, since it is
  // gone and row ids are never reused. An insert-then-delete pair keeps
  // both sub-records: replaying the insert moves next_row_id past the row.
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
  const uint64_t ckpt_lsn = next_lsn_ - 1;

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
    ITAG_RETURN_IF_ERROR(engine_->Checkpoint(ckpt_lsn));
  } else {
    ITAG_RETURN_IF_ERROR(WriteSnapshot(ckpt_lsn));
  }
  // retain_wal keeps the log for replication subscribers; recovery still
  // skips frames with lsn <= the recorded checkpoint LSN.
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
  return durable_ ? options_.directory + "/" + kWalFile : "";
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
