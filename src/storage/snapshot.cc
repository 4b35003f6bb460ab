#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "column/serde.h"
#include "storage/file_io.h"
#include "util/errno_string.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

void EncodeRng(const Rng::State& state, BinaryWriter* w) {
  for (const uint64_t lane : state.s) w->PutU64(lane);
  w->PutF64(state.cached_gaussian);
  w->PutBool(state.has_cached_gaussian);
}

Result<Rng::State> DecodeRng(BinaryReader* r) {
  Rng::State state;
  uint64_t any = 0;
  for (auto& lane : state.s) {
    SCIBORQ_ASSIGN_OR_RETURN(lane, r->ReadU64());
    any |= lane;
  }
  if (any == 0) {
    // The all-zero state is a fixed point of xoshiro256** and can never be
    // produced by a live generator.
    return Status::InvalidArgument("snapshot: degenerate all-zero RNG state");
  }
  SCIBORQ_ASSIGN_OR_RETURN(state.cached_gaussian, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(state.has_cached_gaussian, r->ReadBool());
  return state;
}

/// u32 count + count fixed 8-byte LE elements, bulk-copied on LE hosts
/// (byte-identical to the element loop either way).
template <typename T>
void EncodeFixed64Vector(const std::vector<T>& v, BinaryWriter* w) {
  static_assert(sizeof(T) == 8, "fixed 8-byte elements expected");
  w->PutU32(static_cast<uint32_t>(v.size()));
  if (kHostLittleEndian) {
    w->PutRaw(v.data(), v.size() * sizeof(T));
    return;
  }
  for (const T x : v) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    w->PutU64(bits);
  }
}

template <typename T>
Result<std::vector<T>> DecodeFixed64Vector(BinaryReader* r,
                                           const char* what) {
  static_assert(sizeof(T) == 8, "fixed 8-byte elements expected");
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(n, 8, *r, what));
  std::vector<T> out(n);
  if (kHostLittleEndian) {
    SCIBORQ_ASSIGN_OR_RETURN(const std::string_view raw,
                             r->ReadRaw(static_cast<size_t>(n) * sizeof(T)));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }
  for (uint32_t i = 0; i < n; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(const uint64_t bits, r->ReadU64());
    std::memcpy(&out[i], &bits, sizeof(bits));
  }
  return out;
}

void EncodeF64Vector(const std::vector<double>& v, BinaryWriter* w) {
  EncodeFixed64Vector(v, w);
}

Result<std::vector<double>> DecodeF64Vector(BinaryReader* r,
                                            const char* what) {
  return DecodeFixed64Vector<double>(r, what);
}

void EncodeI64Vector(const std::vector<int64_t>& v, BinaryWriter* w) {
  EncodeFixed64Vector(v, w);
}

Result<std::vector<int64_t>> DecodeI64Vector(BinaryReader* r,
                                             const char* what) {
  return DecodeFixed64Vector<int64_t>(r, what);
}

Result<SamplingPolicy> PolicyFromTag(uint8_t tag) {
  switch (tag) {
    case 0:
      return SamplingPolicy::kUniform;
    case 1:
      return SamplingPolicy::kLastSeen;
    case 2:
      return SamplingPolicy::kBiased;
    default:
      return Status::InvalidArgument(
          StrFormat("snapshot: unknown sampling policy tag %u", tag));
  }
}

void EncodeImpressionState(const ImpressionState& s, BinaryWriter* w) {
  w->PutString(s.name);
  w->PutI64(s.capacity);
  w->PutU8(static_cast<uint8_t>(s.policy));
  EncodeTableEncoded(s.rows, w);
  EncodeF64Vector(s.weights, w);
  EncodeI64Vector(s.source_ids, w);
  EncodeF64Vector(s.explicit_probs, w);
  w->PutI64(s.population_seen);
  w->PutF64(s.population_weight);
  w->PutI64(s.freshness_k);
  w->PutI64(s.expected_ingest);
  EncodeI64Vector(s.acceptance_curve, w);
  w->PutI64(s.curve_interval);
  w->PutI64(s.total_accepted);
}

Result<ImpressionState> DecodeImpressionState(BinaryReader* r) {
  ImpressionState s;
  SCIBORQ_ASSIGN_OR_RETURN(s.name, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(s.capacity, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t policy_tag, r->ReadU8());
  SCIBORQ_ASSIGN_OR_RETURN(s.policy, PolicyFromTag(policy_tag));
  SCIBORQ_ASSIGN_OR_RETURN(s.rows, DecodeTableEncoded(r));
  SCIBORQ_ASSIGN_OR_RETURN(s.weights, DecodeF64Vector(r, "weight"));
  SCIBORQ_ASSIGN_OR_RETURN(s.source_ids, DecodeI64Vector(r, "source id"));
  SCIBORQ_ASSIGN_OR_RETURN(s.explicit_probs,
                           DecodeF64Vector(r, "inclusion probability"));
  SCIBORQ_ASSIGN_OR_RETURN(s.population_seen, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(s.population_weight, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(s.freshness_k, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(s.expected_ingest, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(s.acceptance_curve,
                           DecodeI64Vector(r, "acceptance checkpoint"));
  SCIBORQ_ASSIGN_OR_RETURN(s.curve_interval, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(s.total_accepted, r->ReadI64());
  return s;
}

// Sampler state tags inside an ImpressionBuilderState.
constexpr uint8_t kSamplerUniform = 0;
constexpr uint8_t kSamplerLastSeen = 1;
constexpr uint8_t kSamplerBiased = 2;

void EncodeBuilderState(const ImpressionBuilderState& s, BinaryWriter* w) {
  EncodeImpressionState(s.impression, w);
  if (s.uniform) {
    w->PutU8(kSamplerUniform);
    w->PutI64(s.uniform->seen);
    EncodeRng(s.uniform->rng, w);
  } else if (s.last_seen) {
    w->PutU8(kSamplerLastSeen);
    w->PutI64(s.last_seen->seen);
    EncodeRng(s.last_seen->rng, w);
  } else if (s.biased) {
    w->PutU8(kSamplerBiased);
    w->PutI64(s.biased->seen);
    w->PutF64(s.biased->total_weight);
    w->PutI64(s.biased->accepted_post_fill);
    w->PutI64(s.biased->curve_interval);
    EncodeI64Vector(s.biased->curve, w);
    EncodeRng(s.biased->rng, w);
  } else {
    // A live builder always has exactly one sampler engaged; encode a tag
    // the decoder rejects so a programming error cannot produce a file that
    // silently loses the sampler.
    w->PutU8(0xFF);
  }
}

Result<ImpressionBuilderState> DecodeBuilderState(BinaryReader* r) {
  ImpressionBuilderState s;
  SCIBORQ_ASSIGN_OR_RETURN(s.impression, DecodeImpressionState(r));
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  switch (tag) {
    case kSamplerUniform: {
      ReservoirSampler::State sampler;
      SCIBORQ_ASSIGN_OR_RETURN(sampler.seen, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.rng, DecodeRng(r));
      s.uniform = sampler;
      break;
    }
    case kSamplerLastSeen: {
      LastSeenSampler::State sampler;
      SCIBORQ_ASSIGN_OR_RETURN(sampler.seen, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.rng, DecodeRng(r));
      s.last_seen = sampler;
      break;
    }
    case kSamplerBiased: {
      BiasedReservoirSampler::State sampler;
      SCIBORQ_ASSIGN_OR_RETURN(sampler.seen, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.total_weight, r->ReadF64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.accepted_post_fill, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.curve_interval, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(sampler.curve,
                               DecodeI64Vector(r, "acceptance checkpoint"));
      SCIBORQ_ASSIGN_OR_RETURN(sampler.rng, DecodeRng(r));
      s.biased = std::move(sampler);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("snapshot: unknown sampler state tag %u", tag));
  }
  return s;
}

void EncodeHierarchyState(const HierarchyState& s, BinaryWriter* w) {
  EncodeRng(s.derive_rng, w);
  w->PutI64(s.ingested_since_refresh);
  w->PutI64(s.refresh_interval);
  w->PutU32(static_cast<uint32_t>(s.top.size()));
  for (const auto& shard : s.top) EncodeBuilderState(shard, w);
  w->PutBool(s.merged_top.has_value());
  if (s.merged_top) EncodeImpressionState(*s.merged_top, w);
  w->PutU32(static_cast<uint32_t>(s.derived.size()));
  for (const auto& layer : s.derived) {
    EncodeImpressionState(layer, w);
  }
}

Result<HierarchyState> DecodeHierarchyState(BinaryReader* r) {
  HierarchyState s;
  SCIBORQ_ASSIGN_OR_RETURN(s.derive_rng, DecodeRng(r));
  SCIBORQ_ASSIGN_OR_RETURN(s.ingested_since_refresh, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(s.refresh_interval, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t shards, r->ReadU32());
  // The smallest possible builder state is still dozens of bytes; 8 is a
  // safe lower bound for the count guard.
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(shards, 8, *r, "top builder"));
  s.top.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(ImpressionBuilderState shard,
                             DecodeBuilderState(r));
    s.top.push_back(std::move(shard));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const bool has_merged, r->ReadBool());
  if (has_merged) {
    SCIBORQ_ASSIGN_OR_RETURN(ImpressionState merged,
                             DecodeImpressionState(r));
    s.merged_top = std::move(merged);
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t derived, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(derived, 8, *r, "derived layer"));
  s.derived.reserve(derived);
  for (uint32_t i = 0; i < derived; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(ImpressionState layer,
                             DecodeImpressionState(r));
    s.derived.push_back(std::move(layer));
  }
  return s;
}

Result<CombineMode> CombineModeFromTag(uint8_t tag) {
  switch (tag) {
    case 0:
      return CombineMode::kGeometricMean;
    case 1:
      return CombineMode::kProduct;
    case 2:
      return CombineMode::kSum;
    case 3:
      return CombineMode::kMax;
    default:
      return Status::InvalidArgument(
          StrFormat("snapshot: unknown combine mode tag %u", tag));
  }
}

void EncodeTrackerState(const InterestTrackerState& s, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(s.mode));
  w->PutI64(s.observed_points);
  w->PutU32(static_cast<uint32_t>(s.attributes.size()));
  for (const auto& attr : s.attributes) {
    w->PutString(attr.column);
    w->PutF64(attr.hist.domain_min);
    w->PutF64(attr.hist.bin_width);
    w->PutU32(static_cast<uint32_t>(attr.hist.bins.size()));
    for (const auto& bin : attr.hist.bins) {
      w->PutF64(bin.count);
      w->PutF64(bin.mean);
    }
    w->PutI64(attr.hist.total_count);
    w->PutI64(attr.hist.clamped_count);
    w->PutF64(attr.hist.weighted_total);
  }
}

Result<InterestTrackerState> DecodeTrackerState(BinaryReader* r) {
  InterestTrackerState s;
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t mode_tag, r->ReadU8());
  SCIBORQ_ASSIGN_OR_RETURN(s.mode, CombineModeFromTag(mode_tag));
  SCIBORQ_ASSIGN_OR_RETURN(s.observed_points, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t attrs, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(attrs, 8, *r, "tracked attribute"));
  s.attributes.reserve(attrs);
  for (uint32_t i = 0; i < attrs; ++i) {
    InterestTrackerState::Attribute attr;
    SCIBORQ_ASSIGN_OR_RETURN(attr.column, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(attr.hist.domain_min, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(attr.hist.bin_width, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(const uint32_t bins, r->ReadU32());
    SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(bins, 16, *r, "histogram bin"));
    attr.hist.bins.reserve(bins);
    for (uint32_t b = 0; b < bins; ++b) {
      StreamingHistogram::BinStats bin;
      SCIBORQ_ASSIGN_OR_RETURN(bin.count, r->ReadF64());
      SCIBORQ_ASSIGN_OR_RETURN(bin.mean, r->ReadF64());
      attr.hist.bins.push_back(bin);
    }
    SCIBORQ_ASSIGN_OR_RETURN(attr.hist.total_count, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(attr.hist.clamped_count, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(attr.hist.weighted_total, r->ReadF64());
    s.attributes.push_back(std::move(attr));
  }
  return s;
}


}  // namespace

void EncodePersistedConfig(const PersistedTableConfig& c, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(c.layers.size()));
  for (const auto& layer : c.layers) {
    w->PutString(layer.name);
    w->PutI64(layer.capacity);
  }
  w->PutU32(static_cast<uint32_t>(c.tracked_attributes.size()));
  for (const auto& attr : c.tracked_attributes) {
    w->PutString(attr.column);
    w->PutF64(attr.domain_min);
    w->PutF64(attr.bin_width);
    w->PutU32(static_cast<uint32_t>(attr.num_bins));
  }
  w->PutU64(c.seed);
  w->PutI64(c.refresh_interval);
  EncodeRetentionPolicy(c.retention, w);
}

Result<PersistedTableConfig> DecodePersistedConfig(BinaryReader* r) {
  PersistedTableConfig c;
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t layers, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(layers, 12, *r, "layer spec"));
  c.layers.reserve(layers);
  for (uint32_t i = 0; i < layers; ++i) {
    ImpressionHierarchy::LayerSpec spec;
    SCIBORQ_ASSIGN_OR_RETURN(spec.name, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(spec.capacity, r->ReadI64());
    c.layers.push_back(std::move(spec));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t attrs, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(attrs, 24, *r, "tracked attribute spec"));
  c.tracked_attributes.reserve(attrs);
  for (uint32_t i = 0; i < attrs; ++i) {
    InterestTracker::AttributeSpec spec;
    SCIBORQ_ASSIGN_OR_RETURN(spec.column, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(spec.domain_min, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(spec.bin_width, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(const uint32_t bins, r->ReadU32());
    spec.num_bins = static_cast<int>(bins);
    c.tracked_attributes.push_back(std::move(spec));
  }
  SCIBORQ_ASSIGN_OR_RETURN(c.seed, r->ReadU64());
  SCIBORQ_ASSIGN_OR_RETURN(c.refresh_interval, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(c.retention, DecodeRetentionPolicy(r));
  return c;
}

void EncodeTableSnapshot(const TableSnapshot& snap, BinaryWriter* w) {
  w->PutString(snap.table);
  EncodePersistedConfig(snap.config, w);
  w->PutI64(snap.last_seq);
  EncodeTableEncoded(snap.base, w);
  EncodeHierarchyState(snap.hierarchy, w);
  w->PutBool(snap.tracker.has_value());
  if (snap.tracker) EncodeTrackerState(*snap.tracker, w);
  w->PutI64(snap.log.total_recorded);
  w->PutU32(static_cast<uint32_t>(snap.log.entries.size()));
  for (const auto& entry : snap.log.entries) {
    w->PutI64(entry.sequence);
    w->PutString(entry.sql);
  }
  w->PutBool(snap.last_seen.has_value());
  if (snap.last_seen) EncodeBuilderState(*snap.last_seen, w);
}

Result<TableSnapshot> DecodeTableSnapshot(BinaryReader* r) {
  TableSnapshot snap;
  SCIBORQ_ASSIGN_OR_RETURN(snap.table, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(snap.config, DecodePersistedConfig(r));
  SCIBORQ_ASSIGN_OR_RETURN(snap.last_seq, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(snap.base, DecodeTableEncoded(r));
  SCIBORQ_ASSIGN_OR_RETURN(snap.hierarchy, DecodeHierarchyState(r));
  SCIBORQ_ASSIGN_OR_RETURN(const bool has_tracker, r->ReadBool());
  if (has_tracker) {
    SCIBORQ_ASSIGN_OR_RETURN(InterestTrackerState tracker,
                             DecodeTrackerState(r));
    snap.tracker = std::move(tracker);
  }
  SCIBORQ_ASSIGN_OR_RETURN(snap.log.total_recorded, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t entries, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(entries, 12, *r, "query log entry"));
  snap.log.entries.reserve(entries);
  for (uint32_t i = 0; i < entries; ++i) {
    PersistedQueryLog::Entry entry;
    SCIBORQ_ASSIGN_OR_RETURN(entry.sequence, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(entry.sql, r->ReadString());
    snap.log.entries.push_back(std::move(entry));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const bool has_last_seen, r->ReadBool());
  if (has_last_seen) {
    SCIBORQ_ASSIGN_OR_RETURN(ImpressionBuilderState state,
                             DecodeBuilderState(r));
    snap.last_seen = std::move(state);
  }
  SCIBORQ_RETURN_NOT_OK(r->ExpectEnd());
  return snap;
}

Status WriteTableSnapshot(const TableSnapshot& snap, const std::string& path) {
  BinaryWriter body;
  EncodeTableSnapshot(snap, &body);

  BinaryWriter header;
  header.PutU32(kSnapshotMagic);
  header.PutU32(kSnapshotFormatVersion);
  header.PutU64(body.buffer().size());
  BinaryWriter footer;
  footer.PutU32(Crc32c(body.buffer()));

  const std::string tmp = path + ".tmp";
  // Three back-to-back writes: the body (the dominant allocation for a big
  // table) is never copied into a combined buffer.
  SCIBORQ_RETURN_NOT_OK(WriteFileDurably(
      tmp, {std::string_view(header.buffer()), std::string_view(body.buffer()),
            std::string_view(footer.buffer())}));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Status::IOError(StrFormat(
        "rename %s -> %s: %s", tmp.c_str(), path.c_str(),
        ErrnoString(errno).c_str()));
    ::unlink(tmp.c_str());
    return st;
  }
  return SyncParentDir(path);
}

Result<TableSnapshot> ReadTableSnapshot(const std::string& path) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  BinaryReader header(bytes);
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t magic, header.ReadU32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument(
        StrFormat("snapshot %s: bad magic 0x%08x", path.c_str(), magic));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t version, header.ReadU32());
  if (version != kSnapshotFormatVersion) {
    // The file may be perfectly intact — just written by another build.
    // DataLoss, not a crash or a silent skip, so the operator knows to use
    // the matching binary instead of re-ingesting.
    return Status::DataLoss(StrFormat(
        version < kSnapshotFormatVersion
            ? "snapshot %s: format version %u was written by an older build "
              "(this build reads only v%u)"
            : "snapshot %s: format version %u needs a newer build (this build "
              "reads only v%u); upgrade the binary to read this file",
        path.c_str(), version, kSnapshotFormatVersion));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint64_t body_len, header.ReadU64());
  if (header.remaining() < 4 ||
      body_len != static_cast<uint64_t>(header.remaining()) - 4) {
    return Status::InvalidArgument(StrFormat(
        "snapshot %s: declared body length %llu does not match the file "
        "(truncated or trailing bytes)",
        path.c_str(), static_cast<unsigned long long>(body_len)));
  }
  const std::string_view body(bytes.data() + 16, body_len);
  BinaryReader footer(
      std::string_view(bytes.data() + 16 + body_len, 4));
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t expected_crc, footer.ReadU32());
  const uint32_t actual_crc = Crc32c(body);
  if (actual_crc != expected_crc) {
    return Status::InvalidArgument(StrFormat(
        "snapshot %s: checksum mismatch (stored 0x%08x, computed 0x%08x) — "
        "the file is corrupt",
        path.c_str(), expected_crc, actual_crc));
  }
  BinaryReader reader(body);
  Result<TableSnapshot> snap = DecodeTableSnapshot(&reader);
  if (!snap.ok()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot %s: %s", path.c_str(), snap.status().message().c_str()));
  }
  return snap;
}

}  // namespace sciborq
