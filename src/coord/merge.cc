#include "coord/merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "stats/estimators.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// One output row's contributions: which responder rows carry this group key.
struct KeySlot {
  Value key;
  std::vector<std::pair<size_t, size_t>> contribs;  ///< (responder, row)
};

/// True when every responder answered exactly AND shipped full-shape Welford
/// partials — the bit-exact merge regime.
bool AllMergeable(const std::vector<const ShardAnswer*>& ok, size_t num_aggs) {
  for (const ShardAnswer* shard : ok) {
    const QueryOutcome& o = shard->outcome;
    if (!o.exact) return false;
    if (o.partials.size() != o.rows.size()) return false;
    for (const std::vector<AggregateMoments>& row : o.partials) {
      if (row.size() != num_aggs) return false;
    }
  }
  return true;
}

/// Aligns rows across responders by group key, first-seen in shard order —
/// with contiguous ingest routing shard 0 holds the earliest slice, so this
/// tracks the single-node first-seen group order.
std::vector<KeySlot> AlignByKey(const std::vector<const ShardAnswer*>& ok) {
  std::vector<KeySlot> slots;
  for (size_t s = 0; s < ok.size(); ++s) {
    const std::vector<QueryResultRow>& rows = ok[s]->outcome.rows;
    for (size_t r = 0; r < rows.size(); ++r) {
      const Value& key = rows[r].group_key;
      auto it = std::find_if(slots.begin(), slots.end(), [&](const KeySlot& k) {
        return k.key == key;
      });
      if (it == slots.end()) {
        slots.push_back(KeySlot{key, {}});
        it = std::prev(slots.end());
      }
      it->contribs.emplace_back(s, r);
    }
  }
  return slots;
}

/// An exact answer its slice cannot define (NaN: AVG/MIN/MAX over no rows,
/// VAR under two) adds nothing to the composition.
bool Undefined(const AggregateEstimate& est) {
  return est.exact && std::isnan(est.estimate);
}

/// A shard row's weight when AVG/VAR average shards: the matching
/// population its estimate stands for.
double PopulationWeight(const QueryResultRow& row) {
  return std::max(1.0, row.population);
}

bool Additive(AggKind kind) {
  return kind == AggKind::kCount || kind == AggKind::kSum;
}

/// One shard row's share of the composed variance of an estimate-mode
/// COUNT/SUM (its se^2) or AVG/VAR, whose shards average with weight w =
/// population over the total W: (w·se)^2 / W^2, plus how far the composed
/// `mean` moves because w is itself estimated — an HT count over m sampled
/// rows varies by about w^2/m - w (the equal-π approximation; 0 on the
/// base, where w = m).
double VarianceShare(AggKind kind, const QueryResultRow& row,
                     const AggregateEstimate& est, double mean,
                     double wtotal) {
  if (est.exact) return 0.0;
  const double se2 = est.std_error * est.std_error;
  if (Additive(kind)) return se2;
  const double w = PopulationWeight(row);
  const double m = static_cast<double>(row.input_rows);
  const double weight_var = m > 0.0 ? std::max(0.0, w * w / m - w) : 0.0;
  const double shift = est.estimate - mean;
  return (w * w * se2 + shift * shift * weight_var) / (wtotal * wtotal);
}

}  // namespace

Result<QueryOutcome> MergeShardOutcomes(const std::vector<ShardAnswer>& shards,
                                        const MergeOptions& options) {
  std::vector<const ShardAnswer*> ok;
  for (const ShardAnswer& shard : shards) {
    if (shard.status.ok()) ok.push_back(&shard);
  }
  if (ok.empty()) {
    Status first = Status::InvalidArgument("no shards were asked");
    for (const ShardAnswer& shard : shards) {
      if (!shard.status.ok()) {
        first = shard.status;
        break;
      }
    }
    return Status::IOError(StrFormat(
        "no shard answered (0/%d): %s", static_cast<int>(shards.size()),
        first.message().c_str()));
  }

  const size_t num_aggs = options.aggregates.size();
  for (const ShardAnswer* shard : ok) {
    for (const QueryResultRow& row : shard->outcome.rows) {
      if (row.values.size() != num_aggs) {
        return Status::Internal(StrFormat(
            "%s answered %zu aggregates, expected %zu — shards disagree "
            "on query shape",
            shard->label.c_str(), row.values.size(), num_aggs));
      }
    }
    if (shard->outcome.estimates.size() != shard->outcome.rows.size()) {
      return Status::Internal(
          StrFormat("%s: estimate matrix does not match its rows",
                    shard->label.c_str()));
    }
  }

  const int responded = static_cast<int>(ok.size());
  const int total = std::max(options.shards_total, responded);
  const bool degraded = responded < total;
  const double missing_frac =
      total > 0 ? static_cast<double>(total - responded) / total : 0.0;
  const double scale =
      responded > 0 ? static_cast<double>(total) / responded : 1.0;
  const double z = NormalQuantile(0.5 + options.confidence / 2.0);
  const bool moments_mode = AllMergeable(ok, num_aggs);

  QueryOutcome merged;
  merged.table = ok.front()->outcome.table;
  merged.sql = ok.front()->outcome.sql;
  merged.partial = degraded;
  merged.shards_responded = responded;
  merged.shards_total = total;

  for (const KeySlot& slot : AlignByKey(ok)) {
    QueryResultRow out_row;
    out_row.group_key = slot.key;
    out_row.values.resize(num_aggs, 0.0);
    std::vector<AggregateEstimate> out_ests(num_aggs);
    for (const auto& [s, r] : slot.contribs) {
      out_row.input_rows += ok[s]->outcome.rows[r].input_rows;
      out_row.population += ok[s]->outcome.rows[r].population;
    }

    for (size_t a = 0; a < num_aggs; ++a) {
      const AggKind kind = options.aggregates[a].kind;
      double est = 0.0;
      double se = 0.0;
      int64_t sample_rows = 0;
      bool exact = true;

      if (moments_mode) {
        AggregateMoments state;
        for (const auto& [s, r] : slot.contribs) {
          state.Merge(ok[s]->outcome.partials[r][a]);
        }
        // Strict finish: a globally degenerate aggregate (AVG over zero
        // matching rows anywhere) fails exactly like the single-node run.
        SCIBORQ_ASSIGN_OR_RETURN(est, state.Finish(kind));
        sample_rows = out_row.input_rows;
      } else {
        // Estimate composition with error propagation.
        double sum_est = 0.0, wsum_est = 0.0, wtotal = 0.0;
        double ext_est = 0.0, ext_se = 0.0;
        bool ext_seen = false;
        for (const auto& [s, r] : slot.contribs) {
          const QueryResultRow& row = ok[s]->outcome.rows[r];
          const AggregateEstimate& e = ok[s]->outcome.estimates[r][a];
          if (Undefined(e)) continue;
          const double w = PopulationWeight(row);
          sum_est += e.estimate;
          wsum_est += w * e.estimate;
          wtotal += w;
          const bool better =
              !ext_seen || (kind == AggKind::kMin ? e.estimate < ext_est
                                                  : e.estimate > ext_est);
          if (better) {
            ext_est = e.estimate;
            ext_se = e.std_error;
            ext_seen = true;
          }
          sample_rows += e.sample_rows;
          exact = exact && e.exact;
        }
        switch (kind) {
          case AggKind::kCount:
          case AggKind::kSum:
            est = sum_est;
            break;
          case AggKind::kAvg:
          case AggKind::kVariance:
            est = wtotal > 0.0 ? wsum_est / wtotal : sum_est;
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            est = ext_est;
            se = ext_se;
            break;
          case AggKind::kLast:
            return Status::InvalidArgument(
                "LAST is not mergeable across shards");
        }
        if (kind != AggKind::kMin && kind != AggKind::kMax) {
          double var = 0.0;
          for (const auto& [s, r] : slot.contribs) {
            const AggregateEstimate& e = ok[s]->outcome.estimates[r][a];
            if (Undefined(e)) continue;
            var += VarianceShare(kind, ok[s]->outcome.rows[r], e, est, wtotal);
          }
          se = std::sqrt(var);
        }
      }

      if (degraded) {
        // Answer from who responded, say so in the bound: additive
        // aggregates extrapolate to the missing slice, and every error bar
        // widens by at least the missing fraction of the estimate.
        if (Additive(kind)) {
          est *= scale;
          se *= scale;
        }
        se = std::max(se, std::fabs(est) * missing_frac);
        exact = false;
      } else if (moments_mode) {
        se = 0.0;
      }

      AggregateEstimate& out = out_ests[a];
      out.estimate = est;
      out.std_error = se;
      out.ci_lo = se > 0.0 ? est - z * se : est;
      out.ci_hi = se > 0.0 ? est + z * se : est;
      out.confidence = options.confidence;
      out.sample_rows = sample_rows;
      out.exact = (moments_mode || exact) && !degraded;
      out_row.values[a] = est;
    }

    merged.rows.push_back(std::move(out_row));
    merged.estimates.push_back(std::move(out_ests));
  }

  bool all_exact = true, any_deadline = false;
  std::string answered_by;
  bool answered_uniform = true;
  for (const ShardAnswer* shard : ok) {
    all_exact = all_exact && shard->outcome.exact;
    any_deadline = any_deadline || shard->outcome.deadline_exceeded;
    merged.elapsed_seconds =
        std::max(merged.elapsed_seconds, shard->elapsed_seconds);
    if (answered_by.empty()) {
      answered_by = shard->outcome.answered_by;
    } else if (answered_by != shard->outcome.answered_by) {
      answered_uniform = false;
    }
  }
  merged.exact = all_exact && !degraded;
  // The coordinator judges the composed intervals, never the shards' flags:
  // shards that each missed may compose to a met bound, and shards that
  // each met a loose one may not. A degraded answer never meets it.
  const double worst = ComposedWorstRelativeError(merged);
  merged.error_bound_met =
      !degraded && worst <= std::max(0.0, options.max_relative_error);
  merged.deadline_exceeded = any_deadline;
  merged.answered_by = answered_uniform ? answered_by : "mixed";

  // The escalation trace becomes a per-shard ledger: every shard's attempts
  // under its label, unreachable shards with an infinite-error marker.
  for (const ShardAnswer& shard : shards) {
    AppendShardLedger(shard, &merged.attempts);
  }
  return merged;
}

double ComposedWorstRelativeError(const QueryOutcome& merged) {
  double worst = 0.0;
  for (const std::vector<AggregateEstimate>& row : merged.estimates) {
    for (const AggregateEstimate& est : row) {
      const double rel = est.RelativeError();
      if (std::isnan(rel)) return rel;
      worst = std::max(worst, rel);
    }
  }
  return worst;
}

std::vector<double> SecondRoundBounds(const std::vector<ShardAnswer>& shards,
                                      const QueryOutcome& merged,
                                      const MergeOptions& options) {
  std::vector<double> bounds(shards.size(), -1.0);
  std::vector<const ShardAnswer*> ok;
  std::vector<size_t> index;  // ok[i] is shards[index[i]]
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].status.ok()) continue;
    ok.push_back(&shards[i]);
    index.push_back(i);
  }
  if (merged.partial || ok.empty()) return bounds;
  const std::vector<KeySlot> slots = AlignByKey(ok);
  if (slots.size() != merged.estimates.size()) return bounds;
  const double e = std::max(0.0, options.max_relative_error);
  const double z = NormalQuantile(0.5 + options.confidence / 2.0);
  const auto tighten = [&bounds](size_t shard, double bound) {
    if (!(bound > 0.0) || !std::isfinite(bound)) bound = 0.0;  // EXACT
    bounds[shard] = bounds[shard] < 0.0 ? bound : std::min(bounds[shard], bound);
  };

  for (size_t g = 0; g < slots.size(); ++g) {
    for (size_t a = 0; a < options.aggregates.size(); ++a) {
      const AggregateEstimate& cell = merged.estimates[g][a];
      if (cell.RelativeError() <= e) continue;
      const AggKind kind = options.aggregates[a].kind;
      // One contribution per shard row: its share of the composed variance
      // and its own relative error. Variance falls with the rows a shard
      // reads, and its relative error with their square root, so cutting a
      // share to `each` takes relative error × √(each / share).
      struct Share {
        size_t shard;
        double variance;
        double relative_error;
      };
      std::vector<Share> shares;
      double wtotal = 0.0;
      for (const auto& [s, r] : slots[g].contribs) {
        const AggregateEstimate& est = ok[s]->outcome.estimates[r][a];
        if (!Undefined(est)) wtotal += PopulationWeight(ok[s]->outcome.rows[r]);
      }
      for (const auto& [s, r] : slots[g].contribs) {
        const AggregateEstimate& est = ok[s]->outcome.estimates[r][a];
        if (Undefined(est)) continue;
        shares.push_back({index[s],
                          VarianceShare(kind, ok[s]->outcome.rows[r], est,
                                        cell.estimate, wtotal),
                          est.RelativeError()});
      }
      if (kind == AggKind::kMin || kind == AggKind::kMax) {
        // An extreme has no composable variance: only exact shards close it.
        for (const Share& share : shares) {
          if (share.relative_error != 0.0) tighten(share.shard, 0.0);
        }
        continue;
      }
      std::stable_sort(shares.begin(), shares.end(),
                       [](const Share& x, const Share& y) {
                         return x.variance > y.variance;
                       });
      const double allowed = std::pow(e * std::fabs(cell.estimate) / z, 2);
      const auto rest_after = [&shares](size_t m) {
        double rest = 0.0;
        for (size_t i = m; i < shares.size(); ++i) rest += shares[i].variance;
        return rest;
      };
      // The fewest largest shares whose removal brings the rest under the
      // allowed variance; a zero estimate allows none, so every shard with
      // any variance goes EXACT.
      size_t m = 0;
      while (m < shares.size() && shares[m].variance > 0.0 &&
             !(rest_after(m) < allowed)) {
        ++m;
      }
      if (m == 0) continue;
      const double each = (allowed - rest_after(m)) / static_cast<double>(m);
      for (size_t i = 0; i < m; ++i) {
        tighten(shares[i].shard,
                shares[i].relative_error *
                    std::sqrt(std::max(0.0, each) / shares[i].variance));
      }
    }
  }
  return bounds;
}

void AppendShardLedger(const ShardAnswer& shard,
                       std::vector<LayerAttempt>* ledger) {
  if (shard.status.ok()) {
    for (const LayerAttempt& attempt : shard.outcome.attempts) {
      LayerAttempt tagged = attempt;
      tagged.layer_name = shard.label + "/" + attempt.layer_name;
      ledger->push_back(std::move(tagged));
    }
    return;
  }
  LayerAttempt dead;
  dead.layer_name = StrFormat("%s/unreachable: %s", shard.label.c_str(),
                              shard.status.message().c_str());
  dead.elapsed_seconds = shard.elapsed_seconds;
  dead.worst_relative_error = std::numeric_limits<double>::infinity();
  dead.met_error_bound = false;
  ledger->push_back(std::move(dead));
}

std::vector<TableInfo> MergeTableInfos(
    const std::vector<std::vector<TableInfo>>& per_shard) {
  std::map<std::string, TableInfo> by_name;
  for (const std::vector<TableInfo>& tables : per_shard) {
    for (const TableInfo& info : tables) {
      auto it = by_name.find(info.name);
      if (it == by_name.end()) {
        TableInfo merged = info;
        merged.shards = 1;
        by_name.emplace(info.name, std::move(merged));
        continue;
      }
      TableInfo& merged = it->second;
      merged.rows += info.rows;
      merged.population_seen += info.population_seen;
      // Every query fans out to every shard, so each shard counts it once:
      // the sum would count a query once per shard.
      merged.recorded_queries =
          std::max(merged.recorded_queries, info.recorded_queries);
      for (size_t i = 0;
           i < merged.layers.size() && i < info.layers.size(); ++i) {
        merged.layers[i].rows += info.layers[i].rows;
        merged.layers[i].capacity += info.layers[i].capacity;
      }
      merged.biased = merged.biased || info.biased;
      ++merged.shards;
    }
  }
  std::vector<TableInfo> out;
  out.reserve(by_name.size());
  for (auto& [name, info] : by_name) out.push_back(std::move(info));
  return out;
}

}  // namespace sciborq
