#include "src/common/serde.h"

namespace ss {

void Writer::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void Writer::PutU32(uint32_t v) {
  PutU16(static_cast<uint16_t>(v));
  PutU16(static_cast<uint16_t>(v >> 16));
}

void Writer::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void Writer::PutUuid(const Uuid& u) {
  buf_.insert(buf_.end(), u.bytes.begin(), u.bytes.end());
}

void Writer::PutRaw(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void Writer::PutBlob(ByteSpan data) {
  PutU32(static_cast<uint32_t>(data.size()));
  PutRaw(data);
}

Status Reader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("serde: input exhausted");
  }
  return Status::Ok();
}

Status Reader::Skip(size_t n) {
  SS_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::Ok();
}

Result<uint8_t> Reader::GetU8() {
  SS_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Reader::GetU16() {
  SS_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) | static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Reader::GetU32() {
  SS_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  SS_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<Uuid> Reader::GetUuid() {
  SS_RETURN_IF_ERROR(Need(16));
  Uuid u;
  for (int i = 0; i < 16; ++i) {
    u.bytes[static_cast<size_t>(i)] = data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 16;
  return u;
}

Result<Bytes> Reader::GetRaw(size_t n) {
  SS_RETURN_IF_ERROR(Need(n));
  Bytes out(data_.begin() + static_cast<ptrdiff_t>(pos_),
            data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<Bytes> Reader::GetBlob(size_t max_len) {
  SS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (len > max_len) {
    return Status::Corruption("serde: blob length exceeds bound");
  }
  return GetRaw(len);
}

}  // namespace ss
