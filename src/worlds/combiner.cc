#include "worlds/combiner.h"

#include <algorithm>
#include <utility>

#include "types/value.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

uint32_t QuantifierCombiner::IdIndex::FindOrInsert(uint32_t id,
                                                 uint32_t fresh) {
  if ((size_ + 1) * 2 > table_.size()) Grow();
  const size_t mask = table_.size() - 1;
  for (size_t h = (id * size_t{0x9E3779B97F4A7C15}) >> 32 & mask;;
       h = (h + 1) & mask) {
    Entry& entry = table_[h];
    if (entry.id == id) return entry.index;
    if (entry.id == UINT32_MAX) {
      entry = {id, fresh};
      ++size_;
      return fresh;
    }
  }
}

void QuantifierCombiner::IdIndex::Grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(std::max<size_t>(16, old.size() * 2), Entry());
  size_ = 0;
  for (const Entry& entry : old) {
    if (entry.id != UINT32_MAX) FindOrInsert(entry.id, entry.index);
  }
}

QuantifierCombiner::QuantifierCombiner(sql::WorldQuantifier quantifier,
                                       const RowDictionary* dictionary)
    : quantifier_(quantifier), dictionary_(dictionary) {}

Result<QuantifierCombiner> QuantifierCombiner::Create(
    sql::WorldQuantifier quantifier, const RowDictionary* dictionary) {
  switch (quantifier) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain:
    case sql::WorldQuantifier::kConf:
      return QuantifierCombiner(quantifier, dictionary);
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

void QuantifierCombiner::BeginWorld(double probability, const Schema& schema,
                                    bool empty) {
  ++worlds_fed_;
  if (!saw_schema_) {
    first_schema_ = schema;
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 && schema.num_columns() > 0) {
    value_schema_ = schema;
  }
  if (quantifier_ == sql::WorldQuantifier::kConf && !empty) {
    nonempty_prob_ += probability;
  }
}

void QuantifierCombiner::Add(uint32_t index, double probability) {
  Accum& entry = acc_[index];
  if (entry.last_world == worlds_fed_) return;  // in-world duplicate
  entry.last_world = worlds_fed_;
  ++entry.worlds_seen;
  entry.conf += probability;
}

uint32_t QuantifierCombiner::Intern(const Tuple& row) {
  const auto [it, inserted] =
      by_row_.try_emplace(row, static_cast<uint32_t>(acc_.size()));
  if (inserted) {
    acc_.emplace_back();
    rows_.push_back(&it->first);
  }
  return it->second;
}

uint32_t QuantifierCombiner::InternId(uint32_t id) {
  const uint32_t index =
      by_id_.FindOrInsert(id, static_cast<uint32_t>(acc_.size()));
  if (index == acc_.size()) {
    acc_.emplace_back();
    ids_.push_back(id);
  }
  return index;
}

const Tuple& QuantifierCombiner::RowOf(uint32_t index) const {
  return dictionary_ != nullptr ? dictionary_->rows[ids_[index]]
                                : *rows_[index];
}

void QuantifierCombiner::Feed(double probability, const Table& table) {
  BeginWorld(probability, table.schema(), table.empty());
  for (const Tuple& row : table.rows()) Add(Intern(row), probability);
}

void QuantifierCombiner::FeedIds(double probability,
                                 const std::vector<uint32_t>& ids) {
  BeginWorld(probability, dictionary_->schema, ids.empty());
  for (uint32_t id : ids) Add(InternId(id), probability);
}

void QuantifierCombiner::Merge(QuantifierCombiner&& other) {
  if (!saw_schema_ && other.saw_schema_) {
    first_schema_ = std::move(other.first_schema_);
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 &&
      other.value_schema_.num_columns() > 0) {
    value_schema_ = std::move(other.value_schema_);
  }
  nonempty_prob_ += other.nonempty_prob_;
  // `other`'s worlds come after ours in the merged ordinal space, so its
  // 1-based last_world stamps shift by our pre-merge worlds_fed_. The
  // shifted stamp is always the newer one (> worlds_fed_ >= any existing
  // stamp), which keeps in-world dup detection correct for future Feeds.
  const size_t shift = worlds_fed_;
  for (uint32_t i = 0; i < other.acc_.size(); ++i) {
    const Accum& entry = other.acc_[i];
    Accum& mine = acc_[dictionary_ != nullptr ? InternId(other.ids_[i])
                                              : Intern(*other.rows_[i])];
    mine.conf += entry.conf;
    mine.worlds_seen += entry.worlds_seen;
    mine.last_world = entry.last_world + shift;
  }
  worlds_fed_ += other.worlds_fed_;
}

Result<Table> QuantifierCombiner::Finish(double normalizer) {
  // Zero total surviving mass (assert killed every world, or every sample
  // weight was 0) has no well-defined conf distribution — fail cleanly
  // instead of emitting NaN confidences. possible/certain never divide.
  if (quantifier_ == sql::WorldQuantifier::kConf && !(normalizer > 0)) {
    return Status::EmptyWorldSet(
        "conf is undefined over zero total probability mass");
  }
  // Deterministic emission order: the tuple total order, which is id
  // order for a dictionary's rows.
  std::vector<uint32_t> ordered;
  ordered.reserve(acc_.size());
  for (uint32_t i = 0; i < acc_.size(); ++i) {
    if (quantifier_ == sql::WorldQuantifier::kCertain &&
        acc_[i].worlds_seen != worlds_fed_) {
      continue;  // missed at least one world
    }
    ordered.push_back(i);
  }
  if (dictionary_ != nullptr) {
    std::sort(ordered.begin(), ordered.end(),
              [&](uint32_t a, uint32_t b) { return ids_[a] < ids_[b]; });
  } else {
    std::sort(ordered.begin(), ordered.end(),
              [&](uint32_t a, uint32_t b) { return *rows_[a] < *rows_[b]; });
  }

  switch (quantifier_) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain: {
      if (!saw_schema_) return Table();  // no worlds fed
      Table out(first_schema_);
      for (uint32_t i : ordered) out.AppendUnchecked(RowOf(i));
      return out;
    }
    case sql::WorldQuantifier::kConf: {
      // 0-column answers: confidence that the answer is non-empty.
      if (value_schema_.num_columns() == 0) {
        Schema schema;
        schema.AddColumn(Column("conf", DataType::kReal));
        Table out(std::move(schema));
        out.AppendUnchecked(Tuple({Value::Real(nonempty_prob_ / normalizer)}));
        return out;
      }
      Schema schema = value_schema_;
      schema.AddColumn(Column("conf", DataType::kReal));
      Table out(std::move(schema));
      for (uint32_t i : ordered) {
        Tuple extended = RowOf(i);
        extended.Append(Value::Real(acc_[i].conf / normalizer));
        out.AppendUnchecked(std::move(extended));
      }
      return out;
    }
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

size_t GroupedQuantifierCombiner::KeyHash::operator()(
    const std::vector<uint32_t>& key) const {
  size_t h = key.size();
  for (uint32_t id : key) h = (h ^ id) * size_t{0x100000001B3};
  return h;
}

GroupedQuantifierCombiner::GroupedQuantifierCombiner(
    sql::WorldQuantifier quantifier, const RowDictionary* answers,
    const RowDictionary* keys)
    : quantifier_(quantifier), answers_(answers), keys_(keys) {
  if (keys_ != nullptr) key_schema_ = keys_->schema;
}

uint32_t GroupedQuantifierCombiner::InternKey(const Tuple& row) {
  const auto [it, inserted] =
      key_ids_.try_emplace(row, static_cast<uint32_t>(key_rows_.size()));
  if (inserted) key_rows_.push_back(&it->first);
  return it->second;
}

void GroupedQuantifierCombiner::Canonicalize() {
  std::sort(canonical_.begin(), canonical_.end());
  canonical_.erase(std::unique(canonical_.begin(), canonical_.end()),
                   canonical_.end());
}

Result<GroupedQuantifierCombiner::GroupAccum*>
GroupedQuantifierCombiner::Group() {
  auto it = groups_.find(canonical_);
  if (it == groups_.end()) {
    // Create the combiner BEFORE inserting the group entry: a kNone
    // quantifier must fail without leaving a combinerless GroupAccum
    // behind for Finish() to trip over.
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                            QuantifierCombiner::Create(quantifier_, answers_));
    GroupAccum fresh;
    fresh.combiner.emplace(std::move(combiner));
    it = groups_.emplace(canonical_, std::move(fresh)).first;
  }
  return &it->second;
}

Status GroupedQuantifierCombiner::Feed(double probability, const Table& answer,
                                       const Table& group_key_answer) {
  if (worlds_fed_ == 0 && groups_.empty()) {
    key_schema_ = group_key_answer.schema();
  }
  canonical_.clear();
  for (const Tuple& row : group_key_answer.rows()) {
    canonical_.push_back(InternKey(row));
  }
  Canonicalize();
  MAYBMS_ASSIGN_OR_RETURN(GroupAccum * group, Group());
  group->combiner->Feed(probability, answer);
  group->mass += probability;
  total_mass_ += probability;
  ++worlds_fed_;
  return Status::OK();
}

Status GroupedQuantifierCombiner::FeedIds(
    double probability, const std::vector<uint32_t>& answer,
    const std::vector<uint32_t>& group_key_answer) {
  canonical_ = group_key_answer;
  Canonicalize();
  MAYBMS_ASSIGN_OR_RETURN(GroupAccum * group, Group());
  group->combiner->FeedIds(probability, answer);
  group->mass += probability;
  total_mass_ += probability;
  ++worlds_fed_;
  return Status::OK();
}

Status GroupedQuantifierCombiner::Merge(GroupedQuantifierCombiner&& other) {
  if (worlds_fed_ == 0 && groups_.empty()) key_schema_ = other.key_schema_;
  for (auto& [key, group] : other.groups_) {
    canonical_ = key;
    if (keys_ == nullptr) {  // translate other's key ids into ours
      for (uint32_t& id : canonical_) id = InternKey(*other.key_rows_[id]);
      Canonicalize();
    }
    MAYBMS_ASSIGN_OR_RETURN(GroupAccum * mine, Group());
    mine->combiner->Merge(std::move(*group.combiner));
    mine->mass += group.mass;
  }
  total_mass_ += other.total_mass_;
  worlds_fed_ += other.worlds_fed_;
  return Status::OK();
}

Result<std::vector<SelectEvaluation::GroupResult>>
GroupedQuantifierCombiner::Finish() {
  std::vector<SelectEvaluation::GroupResult> out;
  out.reserve(groups_.size());
  for (auto& [key, group] : groups_) {
    MAYBMS_ASSIGN_OR_RETURN(
        Table combined,
        group.combiner->Finish(group.mass > 0 ? group.mass : 1.0));
    Table key_table(key_schema_);
    for (uint32_t id : key) {
      key_table.AppendUnchecked(keys_ != nullptr ? keys_->rows[id]
                                                 : *key_rows_[id]);
    }
    if (keys_ == nullptr) key_table.SortRows();  // interned ids are unordered
    out.push_back(SelectEvaluation::GroupResult{
        total_mass_ > 0 ? group.mass / total_mass_ : 0, std::move(key_table),
        std::move(combined)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.key.rows() < b.key.rows();
  });
  return out;
}

}  // namespace maybms::worlds
