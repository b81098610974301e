#include "storage/wal.h"

#include <cstring>
#include <filesystem>

#include "common/crc32.h"

namespace itag::storage {

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
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload.data(), payload.size());
  out_.write(reinterpret_cast<const char*>(&len), 4);
  out_.write(reinterpret_cast<const char*>(&crc), 4);
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
  std::string out;
  out.push_back(static_cast<char>(record.op));
  out.append(reinterpret_cast<const char*>(&record.lsn), 8);
  uint32_t tlen = static_cast<uint32_t>(record.table.size());
  out.append(reinterpret_cast<const char*>(&tlen), 4);
  out.append(record.table);
  out.append(reinterpret_cast<const char*>(&record.row_id), 8);
  uint32_t plen = static_cast<uint32_t>(record.payload.size());
  out.append(reinterpret_cast<const char*>(&plen), 4);
  out.append(record.payload);
  return out;
}

bool DecodeWalRecord(const std::string& payload, WalRecord* out) {
  size_t off = 0;
  if (payload.size() < 1 + 8 + 4) return false;
  out->op = static_cast<WalOp>(payload[off]);
  off += 1;
  std::memcpy(&out->lsn, payload.data() + off, 8);
  off += 8;
  uint32_t tlen;
  std::memcpy(&tlen, payload.data() + off, 4);
  off += 4;
  if (off + tlen + 8 + 4 > payload.size()) return false;
  out->table = payload.substr(off, tlen);
  off += tlen;
  std::memcpy(&out->row_id, payload.data() + off, 8);
  off += 8;
  uint32_t plen;
  std::memcpy(&plen, payload.data() + off, 4);
  off += 4;
  if (off + plen != payload.size()) return false;
  out->payload = payload.substr(off, plen);
  return true;
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
  if (size - offset_ < 8) return Status::OK();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot read wal: " + path_);
  in.seekg(static_cast<std::streamoff>(offset_));
  uint32_t len = 0, crc = 0;
  in.read(reinterpret_cast<char*>(&len), 4);
  in.read(reinterpret_cast<char*>(&crc), 4);
  if (in.gcount() < 4) return Status::OK();
  if (size - offset_ - 8 < len) return Status::OK();  // torn tail: wait
  std::string payload(len, '\0');
  in.read(payload.data(), len);
  if (static_cast<uint32_t>(in.gcount()) < len) return Status::OK();
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Corruption("wal checksum mismatch in " + path_);
  }
  if (!DecodeWalRecord(payload, out)) {
    return Status::Corruption("wal record malformed in " + path_);
  }
  offset_ += 8 + len;
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
  while (size - offset >= 8) {
    uint32_t len = 0, crc = 0;
    in.read(reinterpret_cast<char*>(&len), 4);
    in.read(reinterpret_cast<char*>(&crc), 4);
    if (!in) break;
    if (len == 0 && crc == 0) break;     // zero-filled tail
    if (len > size - offset - 8) break;  // torn tail
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
    offset += 8 + len;
  }
  if (end != nullptr) *end = offset;
  return Status::OK();
}

}  // namespace itag::storage
