#include "types/schema.h"

#include "base/string_util.h"

namespace maybms {

size_t Schema::Match(const std::string& name, const std::string& qualifier,
                     size_t* first) const {
  size_t matches = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& col = columns_[i];
    if (!AsciiEqualsIgnoreCase(col.name, name)) continue;
    if (!qualifier.empty() &&
        !AsciiEqualsIgnoreCase(col.qualifier, qualifier)) {
      continue;
    }
    if (matches++ == 0) *first = i;
  }
  return matches;
}

Result<size_t> Schema::FindColumn(const std::string& name,
                                  const std::string& qualifier) const {
  size_t index = 0;
  const size_t matches = Match(name, qualifier, &index);
  if (matches == 1) return index;
  const std::string shown = qualifier.empty() ? name : qualifier + "." + name;
  if (matches == 0) return Status::NotFound("column not found: " + shown);
  return Status::InvalidArgument("ambiguous column reference: " + shown);
}

bool Schema::HasColumn(const std::string& name,
                       const std::string& qualifier) const {
  size_t index = 0;
  return Match(name, qualifier, &index) > 0;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

Schema Schema::WithQualifier(const std::string& qualifier) const {
  std::vector<Column> cols = columns_;
  for (Column& c : cols) c.qualifier = qualifier;
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    if (!columns_[i].qualifier.empty()) {
      out += columns_[i].qualifier + ".";
    }
    out += columns_[i].name;
    out += " ";
    out += DataTypeToString(columns_[i].type);
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!AsciiEqualsIgnoreCase(columns_[i].name, other.columns_[i].name) ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace maybms
