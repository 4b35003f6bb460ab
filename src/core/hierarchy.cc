#include "core/hierarchy.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

Status ValidateLayerSpecs(
    const std::vector<ImpressionHierarchy::LayerSpec>& layers) {
  if (layers.empty()) {
    return Status::InvalidArgument("hierarchy needs at least one layer");
  }
  if (layers.size() > static_cast<size_t>(ImpressionHierarchy::kMaxLayers)) {
    return Status::InvalidArgument(
        StrFormat("hierarchy has %zu layers; at most %d are allowed",
                  layers.size(), ImpressionHierarchy::kMaxLayers));
  }
  for (size_t i = 1; i < layers.size(); ++i) {
    if (layers[i].capacity >= layers[i - 1].capacity) {
      return Status::InvalidArgument(
          "layer capacities must be strictly decreasing");
    }
  }
  if (layers[0].capacity <= 0 || layers.back().capacity <= 0) {
    return Status::InvalidArgument("layer capacities must be positive");
  }
  std::unordered_set<std::string> names;
  for (const auto& layer : layers) {
    if (layer.name == "base") {
      return Status::InvalidArgument(
          "layer name 'base' is reserved for the base-table fallback "
          "(BoundedAnswer::answered_by distinguishes layers from it by name)");
    }
    if (!names.insert(layer.name).second) {
      return Status::InvalidArgument(StrFormat(
          "duplicate layer name '%s': layer names must be unique so that "
          "name-based lookups are unambiguous",
          layer.name.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Result<ImpressionHierarchy> ImpressionHierarchy::Make(
    const Schema& schema, std::vector<LayerSpec> layers,
    ImpressionSpec top_spec) {
  SCIBORQ_RETURN_NOT_OK(ValidateLayerSpecs(layers));
  top_spec.name = layers[0].name;
  top_spec.capacity = layers[0].capacity;
  const uint64_t derive_seed = top_spec.seed ^ 0xDE51BEDULL;
  SCIBORQ_ASSIGN_OR_RETURN(ImpressionBuilder top,
                           ImpressionBuilder::Make(schema, top_spec));
  ImpressionHierarchy hierarchy(std::move(layers), std::move(top),
                                derive_seed);
  SCIBORQ_RETURN_NOT_OK(hierarchy.RefreshDerivedLayers());
  return hierarchy;
}

HierarchyState ImpressionHierarchy::SaveState() const {
  HierarchyState state;
  state.derive_rng = derive_rng_.SaveState();
  state.top = top_builder_.SaveState();
  state.derived.reserve(derived_.size());
  for (const Impression& layer : derived_) {
    state.derived.push_back(layer.SaveState());
  }
  return state;
}

Result<ImpressionHierarchy> ImpressionHierarchy::Restore(
    const Schema& schema, ImpressionSpec top_spec, HierarchyState state) {
  // The layer geometry is implied by the saved impressions.
  std::vector<LayerSpec> layers;
  layers.push_back({state.top.impression.name, state.top.impression.capacity});
  for (const auto& layer : state.derived) {
    layers.push_back({layer.name, layer.capacity});
  }
  SCIBORQ_RETURN_NOT_OK(ValidateLayerSpecs(layers));
  top_spec.name = layers[0].name;
  top_spec.capacity = layers[0].capacity;
  SCIBORQ_ASSIGN_OR_RETURN(ImpressionBuilder top,
                           ImpressionBuilder::Make(schema, top_spec));
  SCIBORQ_RETURN_NOT_OK(top.RestoreState(std::move(state.top)));
  ImpressionHierarchy hierarchy(std::move(layers), std::move(top),
                                /*derive_seed=*/0);
  hierarchy.derive_rng_ = Rng::FromState(state.derive_rng);
  hierarchy.derived_.reserve(state.derived.size());
  for (auto& layer : state.derived) {
    SCIBORQ_ASSIGN_OR_RETURN(
        Impression restored,
        Impression::FromState(std::move(layer),
                              hierarchy.top_impression().cluster_key()));
    hierarchy.derived_.push_back(std::move(restored));
  }
  return hierarchy;
}

Status ImpressionHierarchy::IngestParts(const std::vector<const Table*>& parts) {
  SCIBORQ_RETURN_NOT_OK(top_builder_.IngestParts(parts));
  return RefreshDerivedLayers();
}

Result<Impression> ImpressionHierarchy::DeriveLayer(const Impression& parent,
                                                    const LayerSpec& spec) {
  const int64_t parent_n = parent.size();
  const int64_t child_n = std::min(spec.capacity, parent_n);
  // Partial Fisher-Yates over parent slots: uniform without replacement.
  // Drawing slots, not physical rows, keeps the draw independent of how the
  // parent is clustered.
  SelectionVector ids(static_cast<size_t>(parent_n));
  for (int64_t i = 0; i < parent_n; ++i) ids[static_cast<size_t>(i)] = i;
  for (int64_t i = 0; i < child_n; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(derive_rng_.NextBounded(
                static_cast<uint64_t>(parent_n - i)));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
  }
  ids.resize(static_cast<size_t>(child_n));
  for (int64_t& id : ids) id = parent.RowOfSlot(id);

  // Gather the drawn rows column by column, with their per-row bookkeeping
  // alongside, and build the child in one step: its slots are the draw
  // order, and FromState clusters it like its parent.
  const double ratio = parent_n > 0
                           ? static_cast<double>(child_n) /
                                 static_cast<double>(parent_n)
                           : 1.0;
  ImpressionState child;
  child.name = spec.name;
  child.capacity = spec.capacity;
  child.policy = parent.policy();
  child.rows = parent.rows().TakeRows(ids);
  child.weights.reserve(ids.size());
  child.source_ids.reserve(ids.size());
  child.explicit_probs.reserve(ids.size());
  for (const int64_t parent_row : ids) {
    const auto row = static_cast<size_t>(parent_row);
    child.weights.push_back(parent.row_weights()[row]);
    child.source_ids.push_back(parent.source_ids()[row]);
    child.explicit_probs.push_back(
        std::min(1.0, parent.InclusionProbability(parent_row) * ratio));
  }
  child.population_seen = parent.population_seen();
  child.population_weight = parent.population_weight();
  return Impression::FromState(std::move(child), parent.cluster_key());
}

Status ImpressionHierarchy::RefreshDerivedLayers() {
  derived_.clear();
  const Impression* parent = &top_impression();
  for (size_t i = 1; i < layer_specs_.size(); ++i) {
    if (parent->size() == 0) {
      // Nothing ingested yet: keep an empty placeholder so layer() is total.
      derived_.emplace_back(layer_specs_[i].name,
                            top_impression().rows().schema(),
                            layer_specs_[i].capacity, parent->policy(),
                            parent->cluster_key());
    } else {
      SCIBORQ_ASSIGN_OR_RETURN(Impression child,
                               DeriveLayer(*parent, layer_specs_[i]));
      derived_.push_back(std::move(child));
    }
    parent = &derived_.back();
  }
  return Status::OK();
}

const Impression& ImpressionHierarchy::layer(int i) const {
  SCIBORQ_CHECK(i >= 0 && i < num_layers());
  if (i == 0) return top_impression();
  return derived_[static_cast<size_t>(i - 1)];
}

std::vector<const Impression*> ImpressionHierarchy::EscalationOrder() const {
  std::vector<const Impression*> order;
  for (auto it = derived_.rbegin(); it != derived_.rend(); ++it) {
    order.push_back(&*it);
  }
  order.push_back(&top_impression());
  return order;
}

std::string ImpressionHierarchy::ToString() const {
  std::string out = "ImpressionHierarchy:";
  out += "\n  " + top_impression().ToString();
  for (const auto& d : derived_) out += "\n  " + d.ToString();
  return out;
}

}  // namespace sciborq
