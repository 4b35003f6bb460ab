#include "exec/aggregate.h"

#include <limits>
#include <unordered_map>

#include "stats/descriptive.h"
#include "util/string_util.h"

namespace sciborq {

std::string_view AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kVariance:
      return "VAR";
    case AggKind::kLast:
      return "LAST";
  }
  return "?";
}

std::string AggregateSpec::ToString() const {
  if (kind == AggKind::kCount && column.empty()) return "COUNT(*)";
  return StrFormat("%s(%s)", std::string(AggKindToString(kind)).c_str(),
                   column.c_str());
}

namespace {

Result<const Column*> NumericColumn(const Table& table,
                                    const std::string& name) {
  SCIBORQ_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name));
  if (!IsNumeric(col->type())) {
    return Status::InvalidArgument(
        StrFormat("aggregate requires numeric column, got '%s'", name.c_str()));
  }
  return col;
}

}  // namespace

Result<double> AggregateMoments::Finish(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return static_cast<double>(count_only + moments.count());
    case AggKind::kSum:
      return moments.mean() * static_cast<double>(moments.count());
    case AggKind::kAvg:
      if (moments.count() == 0) {
        return Status::InvalidArgument("AVG over zero rows");
      }
      return moments.mean();
    case AggKind::kMin:
      if (moments.count() == 0) {
        return Status::InvalidArgument("MIN over zero rows");
      }
      return moments.min();
    case AggKind::kMax:
      if (moments.count() == 0) {
        return Status::InvalidArgument("MAX over zero rows");
      }
      return moments.max();
    case AggKind::kVariance:
      if (moments.count() < 2) {
        return Status::InvalidArgument("VAR needs at least two rows");
      }
      return moments.variance();
    case AggKind::kLast:
      return Status::InvalidArgument(
          "LAST is answered by the latest-value path, not moment aggregation");
  }
  return Status::Internal("unreachable aggregate kind");
}

double AggregateMoments::FinishLenient(AggKind kind) const {
  Result<double> v = Finish(kind);
  if (v.ok()) return *v;
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

/// One (group, aggregate) cell of the fold: on the base it folds `moments`,
/// on a sample only what its estimate reads (see GroupRow).
struct Cell {
  AggregateMoments moments;
  HtMoments ht;
  RunningExtremes extremes;
};

/// The rows one group took in: how many and, on a sample, their HT count
/// (Σ 1/π: the group's population and its COUNT(*) state) and π range.
struct GroupTally {
  int64_t rows = 0;
  HtMoments count;
  RunningExtremes pi;
};

/// Hash aggregation state over one stream of selected rows: group keys in
/// first-appearance order plus one Cell per spec per group, stored
/// group-major. Serves both as the per-morsel partial of the parallel scan
/// and as the global fold target.
struct GroupSet {
  const Column* key_col = nullptr;  ///< null = ungrouped: group 0 only
  const std::vector<const Column*>* inputs = nullptr;
  const std::vector<AggregateSpec>* specs = nullptr;
  const InclusionProbabilities* probs = nullptr;  ///< null = base data

  std::vector<Value> keys;
  std::vector<GroupTally> tallies;
  std::vector<Cell> cells;
  std::unordered_map<int64_t, size_t> int_groups;
  std::unordered_map<std::string, size_t> str_groups;

  GroupSet(const Column* key, const std::vector<const Column*>* in,
           const std::vector<AggregateSpec>* s,
           const InclusionProbabilities* p)
      : key_col(key), inputs(in), specs(s), probs(p) {
    if (key_col == nullptr) AppendGroup(Value::Null());
  }

  size_t AppendGroup(Value key) {
    keys.push_back(std::move(key));
    tallies.emplace_back();
    cells.resize(cells.size() + specs->size());
    return keys.size() - 1;
  }

  size_t GroupIndexForKey(const Value& key) {
    if (key_col == nullptr) return 0;
    if (key.is_int64()) {
      const auto [it, inserted] = int_groups.emplace(key.int64(), keys.size());
      return inserted ? AppendGroup(key) : it->second;
    }
    const auto [it, inserted] = str_groups.emplace(key.str(), keys.size());
    return inserted ? AppendGroup(key) : it->second;
  }

  /// Group of `row`, or -1 for a NULL key (SQL semantics: dropped). A seen
  /// key costs one hash probe: the map node, the key copy and the boxed
  /// Value are made only at the key's first appearance.
  int64_t GroupIndexForRow(int64_t row) {
    if (key_col->IsNull(row)) return -1;
    if (key_col->type() == DataType::kInt64) {
      const int64_t key = key_col->GetInt64(row);
      const auto it = int_groups.find(key);
      if (it != int_groups.end()) return static_cast<int64_t>(it->second);
      int_groups.emplace(key, keys.size());
      return static_cast<int64_t>(AppendGroup(Value(key)));
    }
    const std::string& key = key_col->GetString(row);
    const auto it = str_groups.find(key);
    if (it != str_groups.end()) return static_cast<int64_t>(it->second);
    str_groups.emplace(key, keys.size());
    return static_cast<int64_t>(AppendGroup(Value(key)));
  }

  /// Calls fold(state, i) for every row i of the morsel with a group, where
  /// `state` is the row's group's entry of the group-major `states` at
  /// offset `s`. Ungrouped, the one state is folded as a local and stored
  /// back, so the loop keeps it in registers.
  template <typename State, typename Fold>
  static void ForEachGrouped(const std::vector<int64_t>& group_of, int64_t n,
                             std::vector<State>* states, size_t stride,
                             size_t s, const Fold& fold) {
    if (group_of.empty()) {
      State local = (*states)[s];
      for (int64_t i = 0; i < n; ++i) fold(local, i);
      (*states)[s] = local;
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      const int64_t g = group_of[static_cast<size_t>(i)];
      if (g >= 0) fold((*states)[static_cast<size_t>(g) * stride + s], i);
    }
  }

  /// Folds the selected rows rows[begin, end): one pass assigns groups, then
  /// one pass per aggregate, each in row order.
  void AbsorbMorsel(const SelectionVector& rows, int64_t begin, int64_t end) {
    const int64_t* sel = rows.data() + begin;
    const int64_t n = end - begin;
    std::vector<int64_t> group_of;
    if (key_col != nullptr) {
      group_of.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        group_of[static_cast<size_t>(i)] = GroupIndexForRow(sel[i]);
      }
    }
    const bool sample = probs != nullptr;
    const InclusionProbabilities pi =
        sample ? *probs : InclusionProbabilities();
    ForEachGrouped(group_of, n, &tallies, 1, 0,
                   [sample, &pi, sel](GroupTally& tally, int64_t i) {
                     ++tally.rows;
                     if (!sample) return;
                     const double p = pi.at(sel[i]);
                     tally.count.Add(1.0, p);
                     tally.pi.Add(p);
                   });
    const size_t num_specs = specs->size();
    for (size_t s = 0; s < num_specs; ++s) {
      const Column* in = (*inputs)[s];
      if (in == nullptr) continue;  // COUNT(*) is read off the group's tally
      // add(cell, v, row) for every non-null value, in row order.
      const auto fold_values = [&](const auto& add) {
        ForEachGrouped(group_of, n, &cells, num_specs, s,
                       [&](Cell& cell, int64_t i) {
                         const int64_t row = sel[i];
                         if (in->IsNull(row)) return;
                         add(cell, in->NumericAt(row), row);
                       });
      };
      const AggKind kind = (*specs)[s].kind;
      if (!sample || kind == AggKind::kVariance) {
        fold_values([](Cell& cell, double v, int64_t) { cell.moments.Add(v); });
      } else if (kind == AggKind::kMin || kind == AggKind::kMax) {
        fold_values(
            [](Cell& cell, double v, int64_t) { cell.extremes.Add(v); });
      } else if (kind == AggKind::kAvg) {
        fold_values([&pi](Cell& cell, double v, int64_t row) {
          cell.ht.AddForMean(v, pi.at(row));
        });
      } else {
        // COUNT(col) expands a 1 per counted value; SUM the value.
        const bool count = kind == AggKind::kCount;
        fold_values([&pi, count](Cell& cell, double v, int64_t row) {
          cell.ht.Add(count ? 1.0 : v, pi.at(row));
        });
      }
    }
  }

  /// Folds a partial in: partial groups merge in their first-appearance
  /// order, so the global group order equals the serial scan's order.
  void MergePartial(const GroupSet& partial) {
    const size_t num_specs = specs->size();
    for (size_t pg = 0; pg < partial.keys.size(); ++pg) {
      const size_t g = GroupIndexForKey(partial.keys[pg]);
      tallies[g].rows += partial.tallies[pg].rows;
      tallies[g].count.Merge(partial.tallies[pg].count);
      tallies[g].pi.Merge(partial.tallies[pg].pi);
      for (size_t s = 0; s < num_specs; ++s) {
        Cell& cell = cells[g * num_specs + s];
        const Cell& other = partial.cells[pg * num_specs + s];
        cell.moments.Merge(other.moments);
        cell.ht.Merge(other.ht);
        cell.extremes.Merge(other.extremes);
      }
    }
  }
};

}  // namespace

Result<std::vector<GroupRow>> ComputeGroupedAggregates(
    const Table& table, const SelectionVector& rows,
    const std::string& group_column, const std::vector<AggregateSpec>& specs,
    ThreadPool* pool, const InclusionProbabilities* probs) {
  const Column* key_col = nullptr;
  if (!group_column.empty()) {
    SCIBORQ_ASSIGN_OR_RETURN(key_col, table.ColumnByName(group_column));
    if (key_col->type() == DataType::kDouble) {
      return Status::InvalidArgument(
          "grouping on double columns is not supported (bin them first)");
    }
  }

  // Pre-resolve aggregate input columns once.
  std::vector<const Column*> inputs(specs.size(), nullptr);
  for (size_t s = 0; s < specs.size(); ++s) {
    if (specs[s].kind == AggKind::kCount && specs[s].column.empty()) continue;
    SCIBORQ_ASSIGN_OR_RETURN(inputs[s], NumericColumn(table, specs[s].column));
  }

  GroupSet global(key_col, &inputs, &specs, probs);
  ParallelMorselReduce<GroupSet>(
      pool, static_cast<int64_t>(rows.size()), kDefaultMorselRows,
      [&](int64_t begin, int64_t end) {
        GroupSet partial(key_col, &inputs, &specs, probs);
        partial.AbsorbMorsel(rows, begin, end);
        return partial;
      },
      [&global](GroupSet&& partial) { global.MergePartial(partial); });

  const bool sample = probs != nullptr;
  const size_t num_specs = specs.size();
  std::vector<GroupRow> out(global.keys.size());
  for (size_t g = 0; g < out.size(); ++g) {
    GroupRow& group_row = out[g];
    const GroupTally& tally = global.tallies[g];
    group_row.key = std::move(global.keys[g]);
    group_row.group_rows = tally.rows;
    group_row.population =
        sample ? tally.count.total() : static_cast<double>(tally.rows);
    group_row.equal_probabilities = tally.pi.min == tally.pi.max;
    group_row.moments.reserve(num_specs);
    if (sample) {
      group_row.ht.reserve(num_specs);
      group_row.extremes.reserve(num_specs);
    }
    for (size_t s = 0; s < num_specs; ++s) {
      Cell& cell = global.cells[g * num_specs + s];
      if (inputs[s] == nullptr) {  // COUNT(*): the group's tally
        cell.moments.count_only = tally.rows;
        cell.ht = tally.count;
      }
      group_row.moments.push_back(cell.moments);
      if (sample) {
        group_row.ht.push_back(cell.ht);
        group_row.extremes.push_back(cell.extremes);
      }
    }
  }
  return out;
}

}  // namespace sciborq
