#ifndef ITAG_COMMON_BINIO_H_
#define ITAG_COMMON_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace itag {

/// Append-only little-endian byte writer: the one set of byte conventions
/// (u32-length-prefixed strings, IEEE-754 bit patterns for doubles, LEB128
/// varints) shared by every storage byte format (rows, schemas, tables, WAL
/// records and frame headers, batch sub-records, the snapshot file), the
/// state blobs stored in it (engine state, RNG streams, platform-simulator
/// snapshots) and the wire payloads net/wire.cc encodes. The paged engine's
/// fixed page headers and B+tree node layouts under storage/pager/ keep
/// their own field-by-field writers. Dependency-free, so the lower layers
/// (storage, crowd, strategy, itag) use it without pulling in the api/net
/// tier.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// u32 byte count + raw bytes (embedded NULs survive).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s);
  }
  /// The bytes alone, no length prefix.
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }
  /// LEB128: seven bits per byte, low group first, the top bit set on every
  /// byte but the last; 1 to 10 bytes.
  void VarU64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }
  /// Zigzag (0, -1, 1, -2, ... as 0, 1, 2, 3, ...), then VarU64, so a small
  /// magnitude of either sign takes one byte.
  void VarI64(int64_t v) {
    const uint64_t u = static_cast<uint64_t>(v);
    VarU64((u << 1) ^ (v < 0 ? ~uint64_t{0} : 0));
  }
  /// VarU64 byte count + raw bytes.
  void VarStr(std::string_view s) {
    VarU64(s.size());
    Raw(s);
  }
  void U32Vec(const std::vector<uint32_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint32_t e : v) U32(e);
  }
  void U8Vec(const std::vector<uint8_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint8_t e : v) U8(e);
  }
  void StrVec(const std::vector<std::string>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const std::string& e : v) Str(e);
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(v & 0xFF);
      v = static_cast<T>(v >> 8);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked reader over a ByteWriter blob or wire payload. Every
/// getter returns false (and poisons the reader) once the input is
/// exhausted; decoders check AtEnd() so truncated blobs and trailing bytes
/// are both rejected.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!ok_ || data_.size() - pos_ < 1) return Poison();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U16(uint16_t* v) { return TakeLe(v); }
  bool U32(uint32_t* v) { return TakeLe(v); }
  bool U64(uint64_t* v) { return TakeLe(v); }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* v) {
    uint32_t n;
    return U32(&n) && Bytes(n, v);
  }
  /// Reads a VarU64. False on a varint cut short, one longer than 10 bytes,
  /// or one whose value does not fit 64 bits.
  bool VarU64(uint64_t* v) {
    uint64_t out = 0;
    for (int shift = 0;; shift += 7) {
      uint8_t b = 0;
      if (!U8(&b)) return false;
      // The tenth byte holds bit 63 alone, and ends the varint.
      if (shift == 63 && b > 1) return Poison();
      out |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
    }
    *v = out;
    return true;
  }
  bool VarI64(int64_t* v) {
    uint64_t u = 0;
    if (!VarU64(&u)) return false;
    *v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return true;
  }
  /// Reads a VarStr; the length is checked against the input before any
  /// byte is copied.
  bool VarStr(std::string* v) {
    uint64_t n = 0;
    return VarU64(&n) && Bytes(n, v);
  }
  bool U32Vec(std::vector<uint32_t>* v) {
    uint32_t n;
    if (!U32(&n)) return false;
    v->clear();
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t e;
      if (!U32(&e)) return false;
      v->push_back(e);
    }
    return true;
  }
  bool U8Vec(std::vector<uint8_t>* v) {
    uint32_t n;
    if (!U32(&n)) return false;
    v->clear();
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t e;
      if (!U8(&e)) return false;
      v->push_back(e);
    }
    return true;
  }
  bool StrVec(std::vector<std::string>* v) {
    uint32_t n;
    if (!U32(&n)) return false;
    v->clear();
    for (uint32_t i = 0; i < n; ++i) {
      std::string e;
      if (!Str(&e)) return false;
      v->push_back(std::move(e));
    }
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Poison() {
    ok_ = false;
    return false;
  }
  /// The next `n` bytes into `*v`; false, copying nothing, when fewer remain.
  bool Bytes(uint64_t n, std::string* v) {
    if (!ok_ || data_.size() - pos_ < n) return Poison();
    v->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool TakeLe(T* v) {
    *v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      uint8_t b;
      if (!U8(&b)) return false;
      *v = static_cast<T>(*v | (static_cast<T>(b) << (8 * i)));
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace itag

#endif  // ITAG_COMMON_BINIO_H_
