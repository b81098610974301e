#include "storage/wal.h"

#include <filesystem>
#include <istream>

#include "common/binio.h"
#include "common/crc32.h"

namespace itag::storage {

namespace {

/// Bytes of a frame header: [u32 payload_len][u32 crc32(payload)].
constexpr size_t kFrameHeaderBytes = 8;

/// Reads one frame header at the stream's position; false when fewer than
/// kFrameHeaderBytes remain.
bool ReadFrameHeader(std::istream& in, uint32_t* len, uint32_t* crc) {
  char bytes[kFrameHeaderBytes];
  if (!in.read(bytes, kFrameHeaderBytes)) return false;
  ByteReader header(std::string_view(bytes, kFrameHeaderBytes));
  return header.U32(len) && header.U32(crc);
}

}  // namespace

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path) {
  path_ = path;
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) return Status::IOError("cannot open wal: " + path);
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  if (!out_.is_open()) return Status::FailedPrecondition("wal not open");
  std::string payload = EncodeWalRecord(record);
  ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32(payload.data(), payload.size()));
  out_.write(header.buffer().data(), kFrameHeaderBytes);
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) return Status::IOError("wal append failed: " + path_);
  return Status::OK();
}

void WalWriter::Close() {
  if (out_.is_open()) out_.close();
}

Status WalWriter::Reset() {
  Close();
  std::ofstream trunc(path_, std::ios::binary | std::ios::trunc);
  if (!trunc) return Status::IOError("wal reset failed: " + path_);
  trunc.close();
  return Open(path_);
}

std::string EncodeWalRecord(const WalRecord& record) {
  ByteWriter out;
  out.U8(static_cast<uint8_t>(record.op));
  out.U64(record.lsn);
  out.Str(record.table);
  out.U64(record.row_id);
  out.Str(record.payload);
  return out.Take();
}

bool DecodeWalRecord(std::string_view payload, WalRecord* out) {
  ByteReader in(payload);
  uint8_t op;
  if (!in.U8(&op) || !in.U64(&out->lsn) || !in.Str(&out->table) ||
      !in.U64(&out->row_id) || !in.Str(&out->payload)) {
    return false;
  }
  out->op = static_cast<WalOp>(op);
  return in.AtEnd();
}

Status WalTailer::Next(WalRecord* out, bool* have) {
  *have = false;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (ec) return Status::OK();  // not created yet — nothing to read
  if (size < offset_) {
    return Status::FailedPrecondition(
        "wal " + path_ + " shrank below the tail cursor (history truncated); "
        "subscriber must resync");
  }
  if (size - offset_ < kFrameHeaderBytes) return Status::OK();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot read wal: " + path_);
  in.seekg(static_cast<std::streamoff>(offset_));
  uint32_t len = 0, crc = 0;
  if (!ReadFrameHeader(in, &len, &crc)) return Status::OK();
  if (size - offset_ - kFrameHeaderBytes < len) {
    return Status::OK();  // torn tail: wait
  }
  std::string payload(len, '\0');
  in.read(payload.data(), len);
  if (static_cast<uint32_t>(in.gcount()) < len) return Status::OK();
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Corruption("wal checksum mismatch in " + path_);
  }
  if (!DecodeWalRecord(payload, out)) {
    return Status::Corruption("wal record malformed in " + path_);
  }
  offset_ += kFrameHeaderBytes + len;
  if (out->lsn > head_lsn_) head_lsn_ = out->lsn;
  if (offset_ > head_bytes_) head_bytes_ = offset_;
  *have = true;
  return Status::OK();
}

Status ReadWal(const std::string& path, std::vector<WalRecord>* records,
               uint64_t* end) {
  records->clear();
  if (end != nullptr) *end = 0;
  if (!std::filesystem::exists(path)) return Status::OK();
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat wal: " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read wal: " + path);
  uint64_t offset = 0;
  while (size - offset >= kFrameHeaderBytes) {
    uint32_t len = 0, crc = 0;
    if (!ReadFrameHeader(in, &len, &crc)) break;
    if (len == 0 && crc == 0) break;                     // zero-filled tail
    if (len > size - offset - kFrameHeaderBytes) break;  // torn tail
    std::string payload(len, '\0');
    in.read(payload.data(), len);
    if (static_cast<uint32_t>(in.gcount()) < len) break;
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::Corruption("wal checksum mismatch in " + path);
    }
    WalRecord rec;
    if (!DecodeWalRecord(payload, &rec)) {
      return Status::Corruption("wal record malformed in " + path);
    }
    records->push_back(std::move(rec));
    offset += kFrameHeaderBytes + len;
  }
  if (end != nullptr) *end = offset;
  return Status::OK();
}

}  // namespace itag::storage
