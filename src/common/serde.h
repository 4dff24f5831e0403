// Bounds-checked binary serialization.
//
// Everything that crosses the disk boundary is marshalled through Writer/Reader.
// Readers never trust lengths or offsets found in the input: every access is bounds
// checked and failure surfaces as kCorruption. This is the C++ analogue of the paper's
// panic-freedom requirement for deserializers (section 7): decoding arbitrary bytes must
// never crash, only return an error. tests/common_test.cc fuzzes this property.

#ifndef SS_COMMON_SERDE_H_
#define SS_COMMON_SERDE_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/uuid.h"

namespace ss {

// Appends little-endian fixed-width integers and length-prefixed blobs to a buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(Bytes initial) : buf_(std::move(initial)) {}

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutUuid(const Uuid& u);
  // Raw bytes, no length prefix.
  void PutRaw(ByteSpan data);
  // u32 length prefix followed by the bytes.
  void PutBlob(ByteSpan data);

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes Take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Reads the formats produced by Writer. All methods fail with kCorruption when the
// input is exhausted or a length prefix points outside the buffer.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<Uuid> GetUuid();
  // Exactly n raw bytes.
  Result<Bytes> GetRaw(size_t n);
  // u32 length prefix followed by the bytes. `max_len` bounds the accepted length so a
  // corrupt prefix cannot drive a huge allocation.
  Result<Bytes> GetBlob(size_t max_len = 1 << 26);
  // Steps over n bytes without reading them.
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) const;

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace ss

#endif  // SS_COMMON_SERDE_H_
