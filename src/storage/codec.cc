#include "storage/codec.h"

#include <cstring>
#include <utility>

namespace maybms::storage::codec {

namespace {

// Value type tags in the record encoding. Explicit values: these bytes
// are durable on disk and must never change meaning.
enum class Tag : uint8_t {
  kNull = 0,
  kInteger = 1,
  kReal = 2,
  kText = 3,
  kBoolean = 4,
};

void PutRaw(std::vector<std::byte>* out, const void* data, size_t size) {
  const size_t at = out->size();
  out->resize(at + size);
  std::memcpy(out->data() + at, data, size);
}

}  // namespace

void PutU8(std::vector<std::byte>* out, uint8_t v) {
  out->push_back(static_cast<std::byte>(v));
}
void PutU16(std::vector<std::byte>* out, uint16_t v) {
  PutRaw(out, &v, sizeof(v));
}
void PutU32(std::vector<std::byte>* out, uint32_t v) {
  PutRaw(out, &v, sizeof(v));
}
void PutU64(std::vector<std::byte>* out, uint64_t v) {
  PutRaw(out, &v, sizeof(v));
}
void PutDouble(std::vector<std::byte>* out, double v) {
  PutRaw(out, &v, sizeof(v));
}
void PutString(std::vector<std::byte>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  PutRaw(out, s.data(), s.size());
}

Status Reader::Need(size_t n) {
  if (size_ - pos_ < n) {
    return Status::DataLoss("record decode: truncated record body");
  }
  return Status::OK();
}

Result<uint8_t> Reader::U8() {
  MAYBMS_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}
Result<uint16_t> Reader::U16() {
  MAYBMS_RETURN_NOT_OK(Need(2));
  uint16_t v;
  std::memcpy(&v, data_ + pos_, 2);
  pos_ += 2;
  return v;
}
Result<uint32_t> Reader::U32() {
  MAYBMS_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}
Result<uint64_t> Reader::U64() {
  MAYBMS_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}
Result<double> Reader::Double() {
  MAYBMS_RETURN_NOT_OK(Need(8));
  double v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}
Result<std::string> Reader::String() {
  MAYBMS_ASSIGN_OR_RETURN(uint32_t len, U32());
  MAYBMS_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

namespace {

void EncodeValue(const Value& v, std::vector<std::byte>* out) {
  switch (v.type()) {
    case DataType::kNull:
      PutU8(out, static_cast<uint8_t>(Tag::kNull));
      break;
    case DataType::kInteger:
      PutU8(out, static_cast<uint8_t>(Tag::kInteger));
      PutU64(out, static_cast<uint64_t>(v.AsInteger()));
      break;
    case DataType::kReal:
      PutU8(out, static_cast<uint8_t>(Tag::kReal));
      PutDouble(out, v.AsReal());
      break;
    case DataType::kText:
      PutU8(out, static_cast<uint8_t>(Tag::kText));
      PutString(out, v.AsText());
      break;
    case DataType::kBoolean:
      PutU8(out, static_cast<uint8_t>(Tag::kBoolean));
      PutU8(out, v.AsBoolean() ? 1 : 0);
      break;
  }
}

Result<Value> DecodeValue(Reader* r) {
  MAYBMS_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<Tag>(tag)) {
    case Tag::kNull:
      return Value::Null();
    case Tag::kInteger: {
      MAYBMS_ASSIGN_OR_RETURN(uint64_t bits, r->U64());
      return Value::Integer(static_cast<int64_t>(bits));
    }
    case Tag::kReal: {
      MAYBMS_ASSIGN_OR_RETURN(double d, r->Double());
      return Value::Real(d);
    }
    case Tag::kText: {
      MAYBMS_ASSIGN_OR_RETURN(std::string s, r->String());
      return Value::Text(std::move(s));
    }
    case Tag::kBoolean: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t b, r->U8());
      return Value::Boolean(b != 0);
    }
  }
  return Status::DataLoss("record decode: unknown value tag " +
                          std::to_string(tag));
}

}  // namespace

std::vector<std::byte> EncodeTuple(const Tuple& t) {
  std::vector<std::byte> out;
  PutU16(&out, static_cast<uint16_t>(t.size()));
  for (const Value& v : t.values()) EncodeValue(v, &out);
  return out;
}

Result<Tuple> DecodeTuple(const std::byte* data, size_t size) {
  Reader r(data, size);
  MAYBMS_ASSIGN_OR_RETURN(uint16_t n, r.U16());
  std::vector<Value> values;
  values.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, DecodeValue(&r));
    values.push_back(std::move(v));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("record decode: trailing bytes after tuple");
  }
  return Tuple(std::move(values));
}

bool EncodesIdentically(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Value& x = a.value(i);
    const Value& y = b.value(i);
    if (x.type() != y.type()) return false;
    switch (x.type()) {
      case DataType::kNull:
        break;
      case DataType::kInteger:
        if (x.AsInteger() != y.AsInteger()) return false;
        break;
      case DataType::kReal: {
        const double dx = x.AsReal();
        const double dy = y.AsReal();
        if (std::memcmp(&dx, &dy, sizeof(dx)) != 0) return false;
        break;
      }
      case DataType::kText:
        if (x.AsText() != y.AsText()) return false;
        break;
      case DataType::kBoolean:
        if (x.AsBoolean() != y.AsBoolean()) return false;
        break;
    }
  }
  return true;
}

std::vector<std::byte> EncodeSchema(const Schema& schema) {
  std::vector<std::byte> out;
  PutU16(&out, static_cast<uint16_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    PutU8(&out, static_cast<uint8_t>(c.type));
    PutString(&out, c.name);
    PutString(&out, c.qualifier);
  }
  return out;
}

Result<Schema> DecodeSchema(const std::byte* data, size_t size) {
  Reader r(data, size);
  MAYBMS_ASSIGN_OR_RETURN(uint16_t n, r.U16());
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(uint8_t type, r.U8());
    MAYBMS_ASSIGN_OR_RETURN(std::string name, r.String());
    MAYBMS_ASSIGN_OR_RETURN(std::string qualifier, r.String());
    columns.emplace_back(std::move(name), static_cast<DataType>(type),
                         std::move(qualifier));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("record decode: trailing bytes after schema");
  }
  return Schema(std::move(columns));
}

}  // namespace maybms::storage::codec
