#ifndef NDV_COMMON_BYTE_IO_H_
#define NDV_COMMON_BYTE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ndv {

// The fixed-width byte codec shared by every binary format the library
// writes: serve frames (serve/protocol.h), the catalog WAL and snapshot
// (catalog/durable_catalog.h), and both ndvpack versions. Integers are
// fixed-width little-endian, doubles travel as their IEEE-754 bit pattern
// in a u64, and strings as a u32 length followed by the raw bytes.
//
// Everything is inline: the serve path encodes and decodes one message per
// request, and these helpers must compile down to plain memcpys there.

// The formats store integers little-endian and the ndvpack readers alias
// payloads in place; a big-endian port would need byte-swapping copies.
static_assert(std::endian::native == std::endian::little,
              "byte formats and ndvpack aliasing assume a little-endian host");

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU16(std::string* out, uint16_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

inline void PutU32(std::string* out, uint32_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

inline void PutU64(std::string* out, uint64_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

inline void PutI64(std::string* out, int64_t value) {
  PutU64(out, static_cast<uint64_t>(value));
}

inline void PutF64(std::string* out, double value) {
  PutU64(out, std::bit_cast<uint64_t>(value));
}

inline void PutString(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value.data(), value.size());
}

// A bounds-checked cursor over untrusted bytes. Every Take* consumes its
// field or fails with DataLoss on truncation (InvalidArgument for a bool
// byte other than 0 or 1), so decoding is total over arbitrary input. A
// string's length prefix is checked only against the bytes that remain;
// callers cap the whole payload before decoding.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status TakeU8(uint8_t* out) { return TakeFixed(out, "u8"); }
  Status TakeU16(uint16_t* out) { return TakeFixed(out, "u16"); }
  Status TakeU32(uint32_t* out) { return TakeFixed(out, "u32"); }
  Status TakeU64(uint64_t* out) { return TakeFixed(out, "u64"); }

  Status TakeI64(int64_t* out) {
    uint64_t bits = 0;
    NDV_RETURN_IF_ERROR(TakeU64(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::Ok();
  }

  Status TakeF64(double* out) {
    uint64_t bits = 0;
    NDV_RETURN_IF_ERROR(TakeU64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::Ok();
  }

  Status TakeBool(bool* out) {
    uint8_t byte = 0;
    NDV_RETURN_IF_ERROR(TakeU8(&byte));
    if (byte > 1) {
      return InvalidArgumentError("bool byte must be 0 or 1, got %u",
                                  static_cast<unsigned>(byte));
    }
    *out = byte == 1;
    return Status::Ok();
  }

  // Takes `length` raw bytes as a view into the input.
  Status TakeBytes(size_t length, std::string_view* out) {
    if (remaining() < length) return Truncated("bytes");
    *out = data_.substr(pos_, length);
    pos_ += length;
    return Status::Ok();
  }

  // Takes a u32-length-prefixed string.
  Status TakeString(std::string* out) {
    uint32_t length = 0;
    std::string_view bytes;
    NDV_RETURN_IF_ERROR(TakeU32(&length));
    NDV_RETURN_IF_ERROR(TakeBytes(length, &bytes));
    out->assign(bytes);
    return Status::Ok();
  }

  // Succeeds when the input is consumed exactly: trailing bytes mean a
  // length prefix and the body disagree, which is corruption, not slack.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return DataLossError("%zu trailing bytes after the encoded body",
                           remaining());
    }
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Status TakeFixed(T* out, const char* what) {
    if (remaining() < sizeof(T)) return Truncated(what);
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status Truncated(const char* what) const {
    return DataLossError("truncated input: %s at offset %zu of %zu bytes",
                         what, pos_, data_.size());
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ndv

#endif  // NDV_COMMON_BYTE_IO_H_
