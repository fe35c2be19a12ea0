#include "worlds/sampling.h"

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "engine/prepared.h"
#include "worlds/combiner.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

namespace {

/// Per-sample generator: the stream for sample `s` is a pure function of
/// (seed, s), so draws are identical whether samples run sequentially or
/// scattered across threads. (A single shared generator would tie each
/// draw to the dynamic schedule.) SplitMix64 construction is O(1) — one
/// 64-bit state word — so per-sample seeding costs nothing; an mt19937's
/// 624-word init here dominated cheap samples (2-3x on approx_conf).
base::SplitMix64 RngForSample(uint32_t seed, size_t s) {
  return base::SplitMix64((static_cast<uint64_t>(seed) << 32) ^
                          static_cast<uint64_t>(s));
}

}  // namespace

Result<Table> EstimateConfidence(const WorldSet& world_set,
                                 const sql::SelectStatement& stmt,
                                 size_t samples, uint32_t seed,
                                 size_t threads) {
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }
  if (stmt.repair.has_value() || stmt.choice.has_value() ||
      stmt.assert_condition || stmt.group_worlds_by) {
    return Status::Unsupported(
        "approximate confidence requires a plain SQL query");
  }
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);

  // The weighted-sample variant of the streaming combiner: every draw is
  // a world of weight 1; Finish(samples) turns accumulated hit counts
  // into confidence estimates. Each sampled answer dies right after it is
  // fed — only the accumulators' distinct tuples stay resident.
  //
  // Combiners are per SLOT here, not per chunk: every fed weight is
  // exactly 1.0, so each accumulator is a sum of ones — exact integer
  // arithmetic in doubles, independent of grouping and order — and
  // Finish emits rows in sorted tuple order. The result is therefore
  // byte-identical at every thread count without per-chunk combiners,
  // whose cold hash maps re-materialize every distinct answer tuple once
  // per chunk (a measured ~25% overhead at high sample counts). One slot
  // (threads=1) degenerates to the plain sequential feed.
  MAYBMS_ASSIGN_OR_RETURN(
      QuantifierCombiner combiner,
      QuantifierCombiner::Create(sql::WorldQuantifier::kConf));
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // Sampled worlds share one schema catalog: plan the core once per slot
  // against that slot's first draw, execute per sample.
  std::vector<std::optional<engine::PreparedSelect>> plans(
      pool.Slots(threads));
  std::vector<std::optional<QuantifierCombiner>> slot_combiners(
      pool.Slots(threads));
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      samples, threads, [&](size_t s, size_t slot, size_t /*chunk*/)
                            -> Status {
        base::SplitMix64 rng = RngForSample(seed, s);
        MAYBMS_ASSIGN_OR_RETURN(World world, world_set.SampleWorld(&rng));
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedSelect::Prepare(*core, world.db));
        }
        MAYBMS_ASSIGN_OR_RETURN(Table answer, plans[slot]->Execute(world.db));
        if (!slot_combiners[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              slot_combiners[slot],
              QuantifierCombiner::Create(sql::WorldQuantifier::kConf));
        }
        slot_combiners[slot]->Feed(1.0, answer);
        return Status::OK();
      }));
  for (auto& c : slot_combiners) {
    if (c.has_value()) combiner.Merge(std::move(*c));
  }
  return combiner.Finish(static_cast<double>(samples));
}

Result<double> EstimateConditionProbability(const WorldSet& world_set,
                                            const sql::Expr& condition,
                                            size_t samples, uint32_t seed,
                                            size_t threads) {
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }
  base::ThreadPool& pool = base::ThreadPool::Shared();
  std::vector<size_t> chunk_hits(base::ThreadPool::NumChunks(samples), 0);
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      samples, threads, [&](size_t s, size_t, size_t chunk) -> Status {
        base::SplitMix64 rng = RngForSample(seed, s);
        MAYBMS_ASSIGN_OR_RETURN(World world, world_set.SampleWorld(&rng));
        engine::EvalContext ctx{&world.db, nullptr, nullptr, nullptr, nullptr,
                                nullptr};
        MAYBMS_ASSIGN_OR_RETURN(Trivalent holds,
                                engine::EvalPredicate(condition, ctx));
        if (holds == Trivalent::kTrue) ++chunk_hits[chunk];
        return Status::OK();
      }));
  size_t hits = 0;
  for (size_t h : chunk_hits) hits += h;
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace maybms::worlds
