#ifndef SCIBORQ_COORD_MERGE_H_
#define SCIBORQ_COORD_MERGE_H_

#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/aggregate.h"
#include "util/result.h"

namespace sciborq {

/// One shard's contribution to a fan-out: its label ("shard0", ...), the
/// transport/engine status, and — when the status is OK — the outcome it
/// returned plus how long the round trip took.
struct ShardAnswer {
  std::string label;
  Status status = Status::OK();
  QueryOutcome outcome;
  double elapsed_seconds = 0.0;
};

struct MergeOptions {
  /// The aggregates of the fanned-out query, in SELECT order — each kind
  /// decides its composition rule (COUNT/SUM add, AVG/VAR merge moments or
  /// weight by population, MIN/MAX take the extreme).
  std::vector<AggregateSpec> aggregates;
  /// Confidence level for the composed intervals.
  double confidence = 0.95;
  /// Shards the query fanned out to; fewer OK answers => degraded merge.
  int shards_total = 0;
  /// The client's relative error bound e (<= 0: EXACT). The merged answer
  /// meets it when every aggregate of every group composes to
  /// RelativeError() <= e; the shards' own flags never decide it.
  double max_relative_error = 0.0;
};

/// Composes the shards' partial answers into one global QueryOutcome.
///
/// Two regimes:
///  - *Moments merge* — every responder answered exactly and shipped its
///    Welford partials (QueryExecOptions::mergeable). States merge per group
///    key in shard order via RunningMoments::Merge, then finish; whenever
///    each shard's slice folded as one morsel, the merged values are
///    bit-identical to a single-node run over the concatenated data.
///  - *Estimate composition* — at least one responder answered from an
///    impression (no partials). Point estimates compose per the aggregate's
///    kind with error propagation: COUNT/SUM sum (se^2 adds); AVG and VAR
///    weight each shard by its row's estimated matching population
///    (QueryResultRow::population — the HT count Σ 1/π on a layer, the true
///    count on the base), so a layer answer and a base answer weigh what
///    their slices hold, not how many rows each happened to read, and their
///    interval counts how far an estimated weight can move the mean; MIN/MAX
///    take the extreme (se of the winning shard). An exact answer its slice
///    cannot define (NaN: AVG over no rows) adds nothing. Intervals use the
///    normal quantile at `confidence`.
///
/// `error_bound_met` is the coordinator's own judgement of the composed
/// intervals against `max_relative_error` (see MergeOptions). Because
/// variances add, k shards that each meet e·√k compose to about e, which
/// is what the coordinator asks each shard for in round one; when the
/// composed interval still misses, SecondRoundBounds says whom to re-ask.
///
/// Degraded mode (OK answers < shards_total): the merge still answers from
/// the responders, but flags `partial`, scales COUNT/SUM up by
/// total/responded, widens every standard error by the missing fraction,
/// and clears exact/error_bound_met — the caller knows exactly what the
/// answer covers. The escalation trace lists every shard's attempts under a
/// "shardN/" prefix; unreachable shards contribute a synthetic attempt with
/// infinite error.
///
/// Errors: InvalidArgument when no shard answered OK, or when responders
/// disagree on result shape (different aggregate counts).
Result<QueryOutcome> MergeShardOutcomes(const std::vector<ShardAnswer>& shards,
                                        const MergeOptions& options);

/// The largest relative error over every aggregate of every group of a
/// merged answer (exact cells count as 0; NaN when a cell's is undefined).
double ComposedWorstRelativeError(const QueryOutcome& merged);

/// Round two of a bounded fan-out, for a non-degraded `merged` answer of
/// `shards` that missed `options.max_relative_error`. Per missed aggregate
/// cell it picks the shards with the largest share of the composed
/// variance — the fewest whose removal leaves the others' variance under
/// the bound's — and gives each an equal part of what remains: the shard's
/// relative bound that closes the gap, or 0 (EXACT) when no looser bound
/// can (a zero estimate, MIN/MAX). Index-aligned with `shards`: the
/// tightest bound a shard must be re-asked at, or -1 to keep its answer.
std::vector<double> SecondRoundBounds(const std::vector<ShardAnswer>& shards,
                                      const QueryOutcome& merged,
                                      const MergeOptions& options);

/// Appends `shard`'s escalation attempts to `ledger` under its label
/// ("shard0/l1", ...), or one synthetic infinite-error attempt naming why
/// an unreachable shard did not answer.
void AppendShardLedger(const ShardAnswer& shard,
                       std::vector<LayerAttempt>* ledger);

/// Merges per-shard catalog listings into the coordinator's view: one entry
/// per table name with rows/population/log depth summed, the first
/// responder's schema and layer geometry, and `shards` = how many shards
/// hold the table. Output sorted by name.
std::vector<TableInfo> MergeTableInfos(
    const std::vector<std::vector<TableInfo>>& per_shard);

}  // namespace sciborq

#endif  // SCIBORQ_COORD_MERGE_H_
