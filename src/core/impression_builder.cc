#include "core/impression_builder.h"

#include "util/string_util.h"

namespace sciborq {

Result<ImpressionBuilder> ImpressionBuilder::Make(const Schema& schema,
                                                  ImpressionSpec spec) {
  if (spec.capacity <= 0) {
    return Status::InvalidArgument("impression capacity must be positive");
  }
  Impression impression(spec.name, schema, spec.capacity, spec.policy);
  ImpressionBuilder builder(spec, std::move(impression));
  switch (spec.policy) {
    case SamplingPolicy::kUniform: {
      SCIBORQ_ASSIGN_OR_RETURN(ReservoirSampler s,
                               ReservoirSampler::Make(spec.capacity, spec.seed));
      builder.uniform_ = std::move(s);
      break;
    }
    case SamplingPolicy::kLastSeen: {
      if (spec.expected_ingest <= 0) {
        return Status::InvalidArgument(
            "last-seen impressions need expected_ingest (D)");
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          LastSeenSampler s,
          LastSeenSampler::Make(spec.capacity, spec.capacity,
                                spec.expected_ingest, spec.seed));
      builder.last_seen_ = std::move(s);
      builder.impression_.set_expected_ingest(spec.expected_ingest);
      break;
    }
    case SamplingPolicy::kBiased: {
      if (spec.tracker == nullptr) {
        return Status::InvalidArgument(
            "biased impressions need an InterestTracker");
      }
      // TupleWeight reads every bound attribute with Column::NumericAt.
      const std::vector<int> bound = spec.tracker->BindColumns(schema);
      for (size_t a = 0; a < bound.size(); ++a) {
        if (bound[a] < 0 || !IsNumeric(schema.field(bound[a]).type)) {
          return Status::InvalidArgument(StrFormat(
              "tracked attribute '%s' is not a numeric column of the schema",
              spec.tracker->attribute_name(static_cast<int>(a)).c_str()));
        }
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          BiasedReservoirSampler s,
          BiasedReservoirSampler::Make(spec.capacity, spec.seed));
      builder.biased_ = std::move(s);
      // The queries that steer the bias filter on the tracked attributes,
      // so the impression is clustered on them.
      ClusterKey key;
      for (size_t a = 0; a < bound.size(); ++a) {
        const StreamingHistogram& hist =
            spec.tracker->histogram(static_cast<int>(a));
        key.attributes.push_back(
            {bound[a], hist.domain_min(), hist.domain_max()});
      }
      builder.impression_ = Impression(spec.name, schema, spec.capacity,
                                       spec.policy, std::move(key));
      break;
    }
  }
  return builder;
}

Status ImpressionBuilder::IngestParts(const std::vector<const Table*>& parts) {
  // Every part is checked before any row is offered, so a rejected call
  // leaves the impression (and its π) as the last call left it.
  for (const Table* part : parts) {
    if (!part->schema().Equals(impression_.rows().schema())) {
      return Status::InvalidArgument(
          "batch schema does not match the impression schema");
    }
  }
  std::vector<int> bound;
  if (spec_.policy == SamplingPolicy::kBiased) {
    bound = spec_.tracker->BindColumns(impression_.rows().schema());
  }
  // Source id: the global position of the tuple in the base stream.
  int64_t source_id = impression_.population_seen();
  for (const Table* part : parts) {
    const Table& batch = *part;
    for (int64_t row = 0; row < batch.num_rows(); ++row, ++source_id) {
      double weight = 1.0;
      ReservoirDecision decision;
      switch (spec_.policy) {
        case SamplingPolicy::kUniform:
          decision = uniform_->Offer();
          break;
        case SamplingPolicy::kLastSeen:
          decision = last_seen_->Offer();
          break;
        case SamplingPolicy::kBiased:
          weight = spec_.tracker->TupleWeight(batch, bound, row);
          decision = biased_->Offer(weight);
          break;
      }
      if (!decision.accepted) continue;
      if (decision.slot < impression_.size()) {
        impression_.ReplaceSampledRow(decision.slot, batch, row, weight,
                                      source_id);
      } else {
        impression_.AppendSampledRow(batch, row, weight, source_id);
      }
    }
  }
  if (spec_.policy == SamplingPolicy::kBiased) {
    impression_.FinishBatch(source_id, biased_->total_weight(),
                            biased_->acceptance_curve(),
                            biased_->curve_interval(),
                            biased_->accepted_post_fill());
  } else {
    impression_.FinishBatch(source_id, impression_.population_weight());
  }
  return Status::OK();
}

Impression ImpressionBuilder::Snapshot(const std::string& name) const {
  return impression_.Clone(name);
}

ImpressionBuilderState ImpressionBuilder::SaveState() const {
  ImpressionBuilderState state;
  state.impression = impression_.SaveState();
  if (uniform_) state.uniform = uniform_->SaveState();
  if (last_seen_) state.last_seen = last_seen_->SaveState();
  if (biased_) state.biased = biased_->SaveState();
  return state;
}

Status ImpressionBuilder::RestoreState(ImpressionBuilderState state) {
  if (state.impression.policy != spec_.policy) {
    return Status::InvalidArgument(
        "builder state: sampling policy does not match the builder spec");
  }
  if (!state.impression.rows.schema().Equals(impression_.rows().schema())) {
    return Status::InvalidArgument(
        "builder state: schema does not match the builder schema");
  }
  if (state.impression.capacity != spec_.capacity) {
    return Status::InvalidArgument(
        "builder state: capacity does not match the builder spec");
  }
  SCIBORQ_ASSIGN_OR_RETURN(
      Impression restored,
      Impression::FromState(std::move(state.impression),
                            impression_.cluster_key()));
  switch (spec_.policy) {
    case SamplingPolicy::kUniform: {
      if (!state.uniform) {
        return Status::InvalidArgument(
            "builder state: uniform policy needs a reservoir sampler state");
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          ReservoirSampler sampler,
          ReservoirSampler::Restore(spec_.capacity, *state.uniform));
      uniform_ = std::move(sampler);
      break;
    }
    case SamplingPolicy::kLastSeen: {
      if (!state.last_seen) {
        return Status::InvalidArgument(
            "builder state: last-seen policy needs a last-seen sampler state");
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          LastSeenSampler sampler,
          LastSeenSampler::Restore(spec_.capacity, spec_.capacity,
                                   spec_.expected_ingest, *state.last_seen));
      last_seen_ = std::move(sampler);
      break;
    }
    case SamplingPolicy::kBiased: {
      if (!state.biased) {
        return Status::InvalidArgument(
            "builder state: biased policy needs a biased sampler state");
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          BiasedReservoirSampler sampler,
          BiasedReservoirSampler::Restore(spec_.capacity,
                                          std::move(*state.biased)));
      biased_ = std::move(sampler);
      break;
    }
  }
  impression_ = std::move(restored);
  return Status::OK();
}

}  // namespace sciborq
