#ifndef MAYBMS_STORAGE_CODEC_H_
#define MAYBMS_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace maybms::storage::codec {

/// Little-endian byte codec shared by the tuple/schema records
/// (storage/paged_table.cc) and the commit manifest (storage/store.cc).
/// Doubles travel as raw bit patterns — a restored probability is
/// bit-identical to what was written, never re-parsed text.

void PutU8(std::vector<std::byte>* out, uint8_t v);
void PutU16(std::vector<std::byte>* out, uint16_t v);
void PutU32(std::vector<std::byte>* out, uint32_t v);
void PutU64(std::vector<std::byte>* out, uint64_t v);
void PutDouble(std::vector<std::byte>* out, double v);
void PutString(std::vector<std::byte>* out, const std::string& s);

/// Bounds-checked cursor over encoded bytes. Every failure is kDataLoss:
/// the bytes came off a checksum-valid page, so a malformed encoding
/// means corruption beyond the checksum or an encoder bug — either way,
/// never silently misread.
class Reader {
 public:
  Reader(const std::byte* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<double> Double();
  Result<std::string> String();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n);

  const std::byte* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Self-describing tuple record: u16 arity, then per value a u8 type tag
/// and payload. These bytes are durable on disk; tags never change
/// meaning.
std::vector<std::byte> EncodeTuple(const Tuple& t);
Result<Tuple> DecodeTuple(const std::byte* data, size_t size);

/// True if `a` and `b` encode to the same record bytes: same arity, and
/// per value the same type and the same payload (doubles bit for bit).
/// Stricter than Tuple equality, which treats Integer(1) and Real(1.0)
/// as equal.
bool EncodesIdentically(const Tuple& a, const Tuple& b);

/// Schema record: u16 column count, then per column
/// {u8 type tag, name, qualifier}.
std::vector<std::byte> EncodeSchema(const Schema& schema);
Result<Schema> DecodeSchema(const std::byte* data, size_t size);

}  // namespace maybms::storage::codec

#endif  // MAYBMS_STORAGE_CODEC_H_
