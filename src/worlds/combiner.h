#ifndef MAYBMS_WORLDS_COMBINER_H_
#define MAYBMS_WORLDS_COMBINER_H_

// Streaming world-combination for possible / certain / conf.
//
// Combining from the full vector of (probability, answer table) pairs
// would force every per-world answer to stay materialized until the last
// world has been evaluated, and cost O(W log W) comparisons plus one
// Table allocation per world. The paper's world-set algebra only ever
// needs tuple-level accumulation: a tuple's confidence is the sum of the
// probabilities of the worlds whose answer contains it, a tuple is certain
// iff every world's answer contains it, possible iff some world's does.
//
// QuantifierCombiner exploits that: it is fed one world at a time and
// keeps one accumulator per distinct answer tuple, so each per-world
// answer can be discarded the moment it has been fed. Total cost is
// O(total answer tuples) expected plus one O(D log D) sort of the D
// distinct output tuples at the end.
//
// A world arrives in one of two forms, into the same accumulators:
//  * a Table (SQL ran in the world): each row is interned by value, one
//    hash per row;
//  * row ids (the world was assembled from summaries,
//    worlds/world_pipeline.h): numbers into a RowDictionary, the rows
//    numbered once for the whole statement, so a world costs a few integer
//    probes and no tuple is built, hashed or compared.
// A combiner takes one form only; both give the same bytes for the same
// worlds, conf bits included, because every accumulator adds the same
// probabilities in the same order.
//
// Tuple identity follows the rules documented in world_set.h: tuples hash
// and compare under Value's total order (Tuple::Hash / Tuple::Compare),
// where NULL is a plain value (two NULL answer fields are identical for
// world-combination purposes) and numerics are type-tagged consistently
// (Integer(1) and Real(1.0) coincide). Output order is deterministic:
// rows are emitted sorted by that total order. The set-based definitions
// the combiner must reproduce live in tests/set_combiners.h, and
// tests/combiner_property_test.cc compares the two on randomized inputs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "types/tuple.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// Rows numbered once for a statement, so that its worlds can be fed to
/// the combiners as row ids: id i is rows[i]. The rows are distinct and
/// sorted in the tuple total order, so id order is row order.
struct RowDictionary {
  Schema schema;
  std::vector<Tuple> rows;
};

/// Streaming accumulator for one possible/certain/conf combination.
///
/// Usage:
///   MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner c,
///                           QuantifierCombiner::Create(quantifier));
///   for (world : worlds) c.Feed(world.probability, result_of(world));
///   MAYBMS_ASSIGN_OR_RETURN(Table combined, c.Finish(total_probability));
///
/// Feed weights may be unnormalized (e.g. pre-assert probabilities or
/// Monte-Carlo sample counts); Finish(normalizer) divides accumulated
/// confidences by `normalizer`. Pass 1.0 when the fed weights already sum
/// to one. possible/certain ignore the weights entirely.
class QuantifierCombiner {
 public:
  /// Rejects WorldQuantifier::kNone ("group worlds by requires possible,
  /// certain, or conf"). With a `dictionary` (borrowed; it must outlive
  /// the combiner) worlds are fed as its row ids (FeedIds), else as
  /// Tables (Feed).
  static Result<QuantifierCombiner> Create(
      sql::WorldQuantifier quantifier,
      const RowDictionary* dictionary = nullptr);

  QuantifierCombiner(QuantifierCombiner&&) = default;
  QuantifierCombiner& operator=(QuantifierCombiner&&) = default;

  /// Folds one world's answer into the accumulator. `table` may be
  /// destroyed immediately after the call. Duplicate rows within one
  /// world's answer count once (set semantics across worlds).
  void Feed(double probability, const Table& table);

  /// Folds one world whose answer is the dictionary rows `ids`, in any
  /// order; duplicates count once, as in Feed.
  void FeedIds(double probability, const std::vector<uint32_t>& ids);

  /// Number of worlds fed so far.
  size_t worlds_fed() const { return worlds_fed_; }

  /// Absorbs `other` (a combiner for the SAME quantifier and dictionary)
  /// as if its worlds had been fed to this combiner immediately after
  /// this combiner's own worlds, in `other`'s feed order. This is the
  /// parallel merge: per-chunk combiners are merged in chunk-index order,
  /// which keeps every accumulation order — and therefore every output
  /// byte — independent of the thread count (see base/thread_pool.h).
  /// Consumes `other`.
  void Merge(QuantifierCombiner&& other);

  /// Emits the combined relation, sorted by tuple total order. Consumes
  /// the combiner.
  /// A conf combination with `normalizer` <= 0 (zero total surviving
  /// mass) is an error, never NaN confidences.
  Result<Table> Finish(double normalizer = 1.0);

 private:
  QuantifierCombiner(sql::WorldQuantifier quantifier,
                     const RowDictionary* dictionary);

  struct Accum {
    double conf = 0;          // conf: accumulated probability mass
    size_t worlds_seen = 0;   // certain: worlds whose answer contains it
    size_t last_world = 0;    // 1-based ordinal of the last feeding world
  };

  /// Row ids → accumulator indices: open addressing with linear probing
  /// over a power-of-two table kept at most half full, so a lookup is a
  /// multiply and a probe or two. Sparse on purpose: one combiner per
  /// chunk holds only the ids its worlds fed, however many rows the
  /// dictionary has.
  class IdIndex {
   public:
    /// The index of `id` (< UINT32_MAX), or `fresh` after recording it as
    /// `id`'s index if `id` is new.
    uint32_t FindOrInsert(uint32_t id, uint32_t fresh);

   private:
    struct Entry {
      uint32_t id = UINT32_MAX;  // UINT32_MAX: empty
      uint32_t index = 0;
    };
    void Grow();

    std::vector<Entry> table_;
    size_t size_ = 0;
  };

  /// Starts world `worlds_fed_ + 1` with an answer of `schema`.
  void BeginWorld(double probability, const Schema& schema, bool empty);
  /// Adds the current world to the accumulator at `index`, once per world.
  void Add(uint32_t index, double probability);
  /// The accumulator of `row` / of dictionary id `id`, created if new.
  uint32_t Intern(const Tuple& row);
  uint32_t InternId(uint32_t id);
  /// Row of the accumulator at `index`.
  const Tuple& RowOf(uint32_t index) const;

  sql::WorldQuantifier quantifier_;
  const RowDictionary* dictionary_;  // null: worlds are fed as Tables
  size_t worlds_fed_ = 0;
  std::vector<Accum> acc_;  // one per distinct row fed
  // Which row each accumulator counts: the interned rows (Table-fed; the
  // map's keys, which stay put) or dictionary ids (id-fed).
  std::unordered_map<Tuple, uint32_t, TupleHash> by_row_;
  std::vector<const Tuple*> rows_;
  IdIndex by_id_;
  std::vector<uint32_t> ids_;
  Schema value_schema_;        // first fed schema with > 0 columns
  bool saw_schema_ = false;    // any world fed (possible/certain schema)
  Schema first_schema_;        // schema of the very first fed world
  double nonempty_prob_ = 0;   // conf, 0-column answers: P(non-empty)
};

/// Streaming accumulator for `group worlds by`: one QuantifierCombiner
/// per distinct group key, the set of rows the grouping query answers,
/// fed unnormalized world probabilities; Finish() normalizes within each
/// group and emits groups in the deterministic total order of their
/// sorted, distinct key rows. Keys are numbered like answers (Tables'
/// rows interned here, or dictionary ids) and groups hashed on the sorted
/// distinct ids. It is the grouped sink of the shared world pipeline
/// (worlds/world_pipeline.h).
class GroupedQuantifierCombiner {
 public:
  /// kNone is rejected at the first Feed, with the same error the
  /// per-group QuantifierCombiner::Create produces. With dictionaries
  /// (borrowed), worlds are fed as row ids of `answers` and `keys`
  /// (FeedIds), else as Tables (Feed).
  explicit GroupedQuantifierCombiner(sql::WorldQuantifier quantifier,
                                     const RowDictionary* answers = nullptr,
                                     const RowDictionary* keys = nullptr);

  /// Folds one world: `group_key_answer` is the raw grouping-query
  /// answer, `answer` the world's statement answer. Both may be destroyed
  /// after the call. `probability` may be unnormalized (e.g. pre-assert
  /// mass).
  Status Feed(double probability, const Table& answer,
              const Table& group_key_answer);

  /// Folds one world given as row ids of the answer and the key
  /// dictionaries, in any order, duplicates allowed.
  Status FeedIds(double probability, const std::vector<uint32_t>& answer,
                 const std::vector<uint32_t>& group_key_answer);

  /// Worlds fed so far. Callers apply assert filtering *before* Feed, so
  /// this doubles as the survivor count.
  size_t worlds_fed() const { return worlds_fed_; }

  /// Absorbs `other` (same quantifier and dictionaries) as if its worlds
  /// had been fed right after this combiner's own, per group key — the
  /// grouped counterpart of QuantifierCombiner::Merge, with the same
  /// chunk-order determinism contract. Consumes `other`.
  Status Merge(GroupedQuantifierCombiner&& other);

  /// One GroupResult per distinct key: probability = group mass / total
  /// fed mass, relation combined under the quantifier with weights
  /// normalized within the group. Consumes the combiner.
  Result<std::vector<SelectEvaluation::GroupResult>> Finish();

 private:
  struct GroupAccum {
    double mass = 0;
    std::optional<QuantifierCombiner> combiner;
  };
  struct KeyHash {
    size_t operator()(const std::vector<uint32_t>& key) const;
  };

  /// The group of the canonical key in `canonical_`, created if new.
  Result<GroupAccum*> Group();
  /// Sorts and deduplicates `canonical_`.
  void Canonicalize();
  /// The key id of `row`, interned if new (Table-fed keys).
  uint32_t InternKey(const Tuple& row);

  sql::WorldQuantifier quantifier_;
  const RowDictionary* answers_;
  const RowDictionary* keys_;  // null: keys are fed as Tables
  size_t worlds_fed_ = 0;
  double total_mass_ = 0;
  // Groups by the sorted distinct ids of their key rows.
  std::unordered_map<std::vector<uint32_t>, GroupAccum, KeyHash> groups_;
  // Table-fed keys: the rows interned so far, by id (the map's keys).
  std::unordered_map<Tuple, uint32_t, TupleHash> key_ids_;
  std::vector<const Tuple*> key_rows_;
  Schema key_schema_;  // the grouping query's answer schema
  std::vector<uint32_t> canonical_;  // the current world's key
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMBINER_H_
