#include "worlds/component.h"

#include <algorithm>
#include <limits>
#include <memory>

namespace maybms::worlds {

const std::vector<Tuple>* Alternative::TuplesFor(
    const std::string& relation_lower) const {
  auto it = tuples.find(relation_lower);
  return it == tuples.end() ? nullptr : &it->second;
}

bool Component::ContributesTo(const std::string& relation_lower) const {
  for (const Alternative& alt : alternatives) {
    auto it = alt.tuples.find(relation_lower);
    if (it != alt.tuples.end() && !it->second.empty()) return true;
  }
  return false;
}

void ColumnRange::Add(const Value& value) {
  const Class of = ClassOf(value);
  if (of == Class::kNone) {
    has_null = true;
  } else if (value_class == Class::kNone && of != Class::kMixed) {
    value_class = of;
    min = max = &value;
  } else if (value_class != of) {
    value_class = Class::kMixed;
    min = max = nullptr;
  } else if (of != Class::kMixed) {
    if (value < *min) {
      min = &value;
    } else if (*max < value) {
      max = &value;
    }
  }
}

const RelationRanges* Component::RangesOf(
    const std::string& relation_lower) const {
  for (const auto& [relation, relation_ranges] : ranges) {
    if (relation == relation_lower) return &relation_ranges;
  }
  return nullptr;
}

ComponentHandle ShareComponent(Component component) {
  // Built where the handle keeps it: the ranges view its rows.
  auto shared = std::make_unique<Component>(std::move(component));
  auto& ranges = shared->ranges;
  ranges.clear();
  for (const Alternative& alt : shared->alternatives) {
    for (const auto& [relation, tuples] : alt.tuples) {
      if (tuples.empty()) continue;
      auto it = std::find_if(ranges.begin(), ranges.end(), [&](const auto& r) {
        return r.first == relation;
      });
      if (it == ranges.end()) {
        it = ranges.emplace(ranges.end(), relation, RelationRanges());
      }
      for (const Tuple& tuple : tuples) {
        if (it->second.size() < tuple.size()) it->second.resize(tuple.size());
        for (size_t c = 0; c < tuple.size(); ++c) {
          it->second[c].Add(tuple.value(c));
        }
      }
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ComponentHandle(std::move(shared));
}

Status Component::Normalize() {
  double total = 0;
  for (const Alternative& alt : alternatives) total += alt.probability;
  if (total <= 0) {
    return Status::EmptyWorldSet("component has zero probability mass");
  }
  for (Alternative& alt : alternatives) alt.probability /= total;
  return Status::OK();
}

namespace {

/// Calls `visit(k, digit)` for the digits k = 0 .. n-1 of `index` in the
/// mixed radix `radix(k)`, digit 0 least significant: the one place the
/// product order is encoded.
template <typename Radix, typename Visit>
void ForEachDigit(uint64_t index, size_t n, Radix radix, Visit visit) {
  for (size_t k = 0; k < n; ++k) {
    const size_t r = radix(k);
    visit(k, static_cast<size_t>(index % r));
    index /= r;
  }
}

}  // namespace

std::vector<size_t> DecodeProductIndex(uint64_t index,
                                       const std::vector<size_t>& radices) {
  std::vector<size_t> digits(radices.size());
  ForEachDigit(
      index, radices.size(), [&](size_t k) { return radices[k]; },
      [&](size_t k, size_t digit) { digits[k] = digit; });
  return digits;
}

uint64_t RadixProduct(const std::vector<size_t>& radices) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t total = 1;
  for (size_t radix : radices) {
    if (radix != 0 && total > kMax / radix) return kMax;
    total *= radix;
  }
  return total;
}

uint64_t ProductSize(const std::vector<const Component*>& parts) {
  std::vector<size_t> radices;
  radices.reserve(parts.size());
  for (const Component* part : parts) radices.push_back(part->size());
  return RadixProduct(radices);
}

double ChooseAlternatives(const std::vector<const Component*>& parts,
                          uint64_t index,
                          std::vector<const Alternative*>* chosen) {
  double probability = 1.0;
  chosen->clear();
  ForEachDigit(
      index, parts.size(), [&](size_t k) { return parts[k]->size(); },
      [&](size_t k, size_t digit) {
        const Alternative& alt = parts[k]->alternatives[digit];
        probability *= alt.probability;
        chosen->push_back(&alt);
      });
  return probability;
}

Alternative FlattenAlternatives(const std::vector<const Alternative*>& chosen,
                                double probability, const std::string& skip) {
  Alternative flat;
  flat.probability = probability;
  for (const Alternative* alt : chosen) {
    for (const auto& [rel, tuples] : alt->tuples) {
      if (rel == skip) continue;
      auto& dst = flat.tuples[rel];
      dst.insert(dst.end(), tuples.begin(), tuples.end());
    }
  }
  return flat;
}

}  // namespace maybms::worlds
