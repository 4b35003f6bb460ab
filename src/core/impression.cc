#include "core/impression.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

std::string_view SamplingPolicyToString(SamplingPolicy policy) {
  switch (policy) {
    case SamplingPolicy::kUniform:
      return "uniform";
    case SamplingPolicy::kLastSeen:
      return "last-seen";
    case SamplingPolicy::kBiased:
      return "biased";
  }
  return "unknown";
}

namespace {

/// Morton codes of every row of `rows` under `key`: each of the m
/// attributes is quantised to b = 16/m bits over its domain (NULL and NaN
/// to the top cell), and bit j of attribute a lands at bit j·m + (m−1−a) of
/// the code. 16 bits place a 64Ki-row layer in as many cells as it has rows,
/// finer than its zones need, and sort in two radix passes.
std::vector<uint32_t> ZOrderCodes(const Table& rows, const ClusterKey& key) {
  const auto n = static_cast<size_t>(rows.num_rows());
  const int m = static_cast<int>(key.attributes.size());
  const int bits = std::max(1, 16 / m);
  const double cells = std::ldexp(1.0, bits);
  const auto top = static_cast<uint32_t>(cells - 1.0);
  // spread[v]: the bits of byte v at stride m (bit j at j·m); b ≤ 8 for
  // m ≥ 2, and a lone attribute's code is its quantised value itself.
  std::array<uint32_t, 256> spread{};
  for (uint32_t v = 0; v < 256; ++v) {
    for (int j = 0; j < std::min(bits, 8); ++j) {
      spread[v] |= ((v >> j) & 1U) << (j * m);
    }
  }
  std::vector<uint32_t> codes(n, 0);
  for (int a = 0; a < m; ++a) {
    const ClusterKey::Attribute& attr = key.attributes[static_cast<size_t>(a)];
    const Column& col = rows.column(attr.column);
    SCIBORQ_DCHECK(IsNumeric(col.type()));
    const double scale = cells / (attr.domain_max - attr.domain_min);
    const int offset = m - 1 - a;
    const auto quantise = [&](double v) {
      const double cell = (v - attr.domain_min) * scale;
      if (!(cell < cells)) return top;  // above the domain, or NaN
      return cell > 0.0 ? static_cast<uint32_t>(cell) : 0U;
    };
    const auto place = [&](size_t row, uint32_t q) {
      const uint32_t z = m == 1 ? q : spread[q & 0xFFU];
      codes[row] |= z << offset;
    };
    if (col.type() == DataType::kDouble && col.null_count() == 0) {
      const double* data = col.data_double().data();
      for (size_t row = 0; row < n; ++row) place(row, quantise(data[row]));
    } else {
      for (size_t row = 0; row < n; ++row) {
        const auto r = static_cast<int64_t>(row);
        place(row, col.IsNull(r) ? top : quantise(col.NumericAt(r)));
      }
    }
  }
  return codes;
}

/// Stable LSD radix sort of (code << 32 | slot) entries on their 16-bit
/// codes, one byte per pass; a pass whose byte is the same everywhere is
/// skipped.
void SortByCode(std::vector<uint64_t>* entries) {
  std::vector<uint64_t> scratch(entries->size());
  for (int shift = 32; shift < 48; shift += 8) {
    std::array<size_t, 256> count{};
    for (const uint64_t e : *entries) ++count[(e >> shift) & 0xFF];
    if (std::find(count.begin(), count.end(), entries->size()) !=
        count.end()) {
      continue;
    }
    size_t next = 0;
    for (size_t& c : count) next += std::exchange(c, next);
    for (const uint64_t e : *entries) scratch[count[(e >> shift) & 0xFF]++] = e;
    entries->swap(scratch);
  }
}

template <typename T>
std::vector<T> Gather(const std::vector<T>& values,
                      const SelectionVector& rows) {
  std::vector<T> out;
  out.reserve(rows.size());
  for (const int64_t row : rows) out.push_back(values[static_cast<size_t>(row)]);
  return out;
}

}  // namespace

Impression::Impression(std::string name, int64_t capacity,
                       SamplingPolicy policy, Table rows,
                       ClusterKey cluster_key)
    : name_(std::move(name)),
      capacity_(capacity),
      policy_(policy),
      cluster_key_(std::move(cluster_key)),
      rows_(std::move(rows)),
      slot_rows_(static_cast<size_t>(rows_.num_rows())) {
  std::iota(slot_rows_.begin(), slot_rows_.end(), 0);
}

Impression::Impression(std::string name, Schema schema, int64_t capacity,
                       SamplingPolicy policy, ClusterKey cluster_key)
    : Impression(std::move(name), capacity, policy, Table(std::move(schema)),
                 std::move(cluster_key)) {}

void Impression::AppendSampledRow(const Table& src, int64_t src_row,
                                  double weight, int64_t source_id) {
  SCIBORQ_DCHECK(size() < capacity_);
  slot_rows_.push_back(size());
  rows_.AppendRowFrom(src, src_row);
  weights_.push_back(weight);
  source_ids_.push_back(source_id);
}

void Impression::ReplaceSampledRow(int64_t slot, const Table& src,
                                   int64_t src_row, double weight,
                                   int64_t source_id) {
  const int64_t row = RowOfSlot(slot);
  rows_.SetRowFrom(src, src_row, row);  // drops the zone maps
  weights_[static_cast<size_t>(row)] = weight;
  source_ids_[static_cast<size_t>(row)] = source_id;
}

void Impression::FinishBatch(int64_t population_seen, double population_weight,
                             std::vector<int64_t> acceptance_curve,
                             int64_t curve_interval, int64_t total_accepted) {
  population_seen_ = population_seen;
  population_weight_ = population_weight;
  acceptance_curve_ = std::move(acceptance_curve);
  curve_interval_ = curve_interval;
  total_accepted_ = total_accepted;
  if (!probs_pinned_) probs_.clear();  // recomputed below, after the sort
  Cluster();
  RefreshInclusionProbabilities();
}

void Impression::Cluster() {
  if (cluster_key_.empty() || size() == 0) return;
  SCIBORQ_CHECK(size() <= (int64_t{1} << 32));
  // Sort the slots by (code, slot): codes are taken in slot order and the
  // sort is stable, so the physical order is a function of the sample alone.
  const std::vector<uint32_t> codes = ZOrderCodes(rows_, cluster_key_);
  std::vector<uint64_t> entries(slot_rows_.size());
  for (size_t slot = 0; slot < entries.size(); ++slot) {
    entries[slot] =
        uint64_t{codes[static_cast<size_t>(slot_rows_[slot])]} << 32 | slot;
  }
  SortByCode(&entries);
  SelectionVector take(entries.size());
  for (size_t row = 0; row < entries.size(); ++row) {
    const uint64_t slot = entries[row] & 0xFFFFFFFFU;
    take[row] = slot_rows_[slot];
    slot_rows_[slot] = static_cast<int64_t>(row);
  }
  // In place: a fresh copy of every column per ingest call fragments the
  // heap enough to move peak RSS.
  const PermutationCycles cycles = PermutationCycles::Of(take);
  rows_.PermuteRows(cycles);
  cycles.Apply(&weights_);
  cycles.Apply(&source_ids_);
  if (!probs_.empty()) cycles.Apply(&probs_);
  // Zone maps on the key columns only: the scan prunes on them, and the
  // sidecar of any other column would be built on every ingest for nothing.
  for (const ClusterKey::Attribute& attr : cluster_key_.attributes) {
    rows_.column(attr.column).BuildEncoding(kLayerZoneRows);
  }
}

void Impression::RefreshInclusionProbabilities() {
  if (probs_pinned_) return;
  probs_.clear();
  common_prob_ = 1.0;
  const auto n = static_cast<double>(size());
  switch (policy_) {
    case SamplingPolicy::kUniform: {
      if (population_seen_ > size()) {
        common_prob_ = n / static_cast<double>(population_seen_);
      }
      return;
    }
    case SamplingPolicy::kBiased: {
      if (population_seen_ <= size() || population_weight_ <= 0.0) return;
      probs_.resize(static_cast<size_t>(size()));
      for (size_t row = 0; row < probs_.size(); ++row) {
        const double w = weights_[row];
        if (!(w > 0.0)) {
          probs_[row] = 1.0 / static_cast<double>(population_seen_);
        } else if (has_acceptance_model()) {
          // First-order retention model (see FinishBatch): arrival
          // position t (1-based), capacity n_cap.
          const double t = static_cast<double>(source_ids_[row] + 1);
          const auto n_cap = static_cast<double>(capacity_);
          const double accept =
              t <= n_cap ? 1.0 : std::min(1.0, n_cap * w / t);
          const double later = std::max(
              0.0, static_cast<double>(total_accepted_) - AcceptancesAt(t));
          const double survival = std::exp(-later / n_cap);
          probs_[row] = std::clamp(accept * survival, 1e-12, 1.0);
        } else {
          // Fallback without a model: the coarse Σw surrogate.
          probs_[row] = std::min(1.0, n * w / population_weight_);
        }
      }
      return;
    }
    case SamplingPolicy::kLastSeen: {
      // Effective window: the sample refreshes at rate k/D per tuple, with
      // k the capacity, so the resident rows are (approximately) a uniform
      // draw from the most recent W = n·D/k tuples.
      if (expected_ingest_ <= 0) {
        if (population_seen_ > size()) {
          common_prob_ = n / static_cast<double>(population_seen_);
        }
        return;
      }
      const double window =
          n * static_cast<double>(expected_ingest_) /
          static_cast<double>(capacity_);
      const double effective =
          std::min(static_cast<double>(population_seen_), window);
      if (effective > n) common_prob_ = n / effective;
      return;
    }
  }
}

double Impression::AcceptancesAt(double position) const {
  if (acceptance_curve_.empty()) {
    // Single segment: interpolate 0 -> total over (capacity, population].
    const double span =
        static_cast<double>(population_seen_ - capacity_);
    if (span <= 0.0) return 0.0;
    const double frac =
        std::clamp((position - static_cast<double>(capacity_)) / span, 0.0, 1.0);
    return frac * static_cast<double>(total_accepted_);
  }
  const auto interval = static_cast<double>(curve_interval_);
  const double idx = position / interval;  // checkpoints at 1*I, 2*I, ...
  if (idx <= 1.0) {
    return idx * static_cast<double>(acceptance_curve_.front());
  }
  const auto k = static_cast<size_t>(idx - 1.0);  // checkpoint index below
  if (k + 1 >= acceptance_curve_.size()) {
    // Beyond the last checkpoint: interpolate toward the final total.
    const double last_pos =
        static_cast<double>(acceptance_curve_.size()) * interval;
    const double span = static_cast<double>(population_seen_) - last_pos;
    const auto last_val = static_cast<double>(acceptance_curve_.back());
    if (span <= 0.0) return last_val;
    const double frac = std::clamp((position - last_pos) / span, 0.0, 1.0);
    return last_val + frac * (static_cast<double>(total_accepted_) - last_val);
  }
  const auto lo = static_cast<double>(acceptance_curve_[k]);
  const auto hi = static_cast<double>(acceptance_curve_[k + 1]);
  const double frac = idx - 1.0 - static_cast<double>(k);
  return lo + frac * (hi - lo);
}

Impression Impression::Clone(std::string new_name) const {
  Impression copy = *this;
  copy.name_ = std::move(new_name);
  return copy;
}

ImpressionState Impression::SaveState() const {
  ImpressionState state;
  state.name = name_;
  state.capacity = capacity_;
  state.policy = policy_;
  if (cluster_key_.empty()) {
    state.rows = rows_;
    state.weights = weights_;
    state.source_ids = source_ids_;
    if (probs_pinned_) state.explicit_probs = probs_;
  } else {
    state.rows = rows_.TakeRows(slot_rows_);
    state.weights = Gather(weights_, slot_rows_);
    state.source_ids = Gather(source_ids_, slot_rows_);
    if (probs_pinned_) state.explicit_probs = Gather(probs_, slot_rows_);
  }
  state.population_seen = population_seen_;
  state.population_weight = population_weight_;
  state.expected_ingest = expected_ingest_;
  state.acceptance_curve = acceptance_curve_;
  state.curve_interval = curve_interval_;
  state.total_accepted = total_accepted_;
  return state;
}

Result<Impression> Impression::FromState(ImpressionState state,
                                         ClusterKey cluster_key) {
  if (state.capacity <= 0) {
    return Status::InvalidArgument("impression state: non-positive capacity");
  }
  Impression out(std::move(state.name), state.capacity, state.policy,
                 std::move(state.rows), std::move(cluster_key));
  out.weights_ = std::move(state.weights);
  out.source_ids_ = std::move(state.source_ids);
  out.probs_ = std::move(state.explicit_probs);
  out.probs_pinned_ = !out.probs_.empty();
  out.population_seen_ = state.population_seen;
  out.population_weight_ = state.population_weight;
  out.expected_ingest_ = state.expected_ingest;
  out.acceptance_curve_ = std::move(state.acceptance_curve);
  out.curve_interval_ = state.curve_interval;
  out.total_accepted_ = state.total_accepted;
  if (Status st = out.Validate(); !st.ok()) {
    // Validate reports Internal (its in-process contract); state restoration
    // is an input-validation path, so surface InvalidArgument instead.
    return Status::InvalidArgument("impression state: " + st.message());
  }
  if (out.probs_pinned_) {
    for (const double p : out.probs_) {
      if (!(p > 0.0) || p > 1.0) {
        return Status::InvalidArgument(
            "impression state: explicit inclusion probabilities must be in "
            "(0, 1]");
      }
    }
  }
  for (const ClusterKey::Attribute& attr : out.cluster_key_.attributes) {
    if (attr.column < 0 || attr.column >= out.rows_.num_columns() ||
        !IsNumeric(out.rows_.column(attr.column).type()) ||
        !(attr.domain_max > attr.domain_min)) {
      return Status::InvalidArgument(
          "impression state: cluster key needs numeric columns over "
          "non-empty domains");
    }
  }
  out.Cluster();
  out.RefreshInclusionProbabilities();
  return out;
}

Status Impression::Validate() const {
  SCIBORQ_RETURN_NOT_OK(rows_.Validate());
  if (size() > capacity_) {
    return Status::Internal("impression exceeds its capacity");
  }
  if (static_cast<int64_t>(weights_.size()) != size() ||
      static_cast<int64_t>(source_ids_.size()) != size() ||
      static_cast<int64_t>(slot_rows_.size()) != size()) {
    return Status::Internal("impression parallel arrays out of sync");
  }
  if (!probs_.empty() && static_cast<int64_t>(probs_.size()) != size()) {
    return Status::Internal("inclusion probability vector out of sync");
  }
  if (population_seen_ < size()) {
    return Status::Internal("population smaller than sample");
  }
  return Status::OK();
}

std::string Impression::ToString() const {
  return StrFormat(
      "Impression('%s', %s, %lld/%lld rows, population=%lld, %lld bytes)",
      name_.c_str(), std::string(SamplingPolicyToString(policy_)).c_str(),
      static_cast<long long>(size()), static_cast<long long>(capacity_),
      static_cast<long long>(population_seen_),
      static_cast<long long>(MemoryUsageBytes()));
}

}  // namespace sciborq
