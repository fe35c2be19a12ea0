#include "storage/table.h"

#include <algorithm>

namespace maybms {

namespace storage {
// The link-time check of storage/layout_guard.h: the symbol this build's
// NDEBUG selects.
#ifdef NDEBUG
const char kBuiltWithNDEBUG = 0;
#else
const char kBuiltWithoutNDEBUG = 0;
#endif
}  // namespace storage

Status Table::Append(Tuple row) {
  AssertUnshared();
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Table Table::SortedDistinct() const {
  Table out = *this;
  out.DeduplicateRows();
  return out;
}

void Table::SortRows() {
  AssertUnshared();
  std::sort(rows_.begin(), rows_.end());
}

void Table::DeduplicateRows() {
  SortRows();
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

bool Table::ContainsTuple(const Tuple& t) const {
  for (const Tuple& row : rows_) {
    if (row == t) return true;
  }
  return false;
}

bool Table::SetEquals(const Table& other) const {
  Table a = SortedDistinct();
  Table b = other.SortedDistinct();
  return a.rows_ == b.rows_;
}

bool Table::BagEquals(const Table& other) const {
  Table a = *this;
  Table b = other;
  a.SortRows();
  b.SortRows();
  return a.rows_ == b.rows_;
}

std::string Table::ToString() const {
  std::string out;
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    if (i > 0) out += " | ";
    out += schema_.column(i).name;
  }
  out += "\n";
  for (const Tuple& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row.value(i).ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace maybms
