// Persistence benchmarks: what a snapshot buys at boot, and what a
// checkpoint costs.
//
//   cold_start   — Engine::Open from a checkpoint (columns + ready-made
//                  impression hierarchy deserialized) vs re-ingest +
//                  re-sample from CSV. The paper treats impressions as
//                  expensive curated state; the snapshot makes restart pay
//                  I/O instead of re-sampling. Expectation: >= 5x faster.
//   checkpoint   — throughput of Checkpoint(table) in MB/s of snapshot
//                  bytes, plus WAL append throughput for the ingest path.
//
// Exits non-zero if the snapshot-booted engine answers differently from the
// CSV-booted one (the equivalence gate), if the speedup bar is missed, or if
// the WAL throughput reads zero (no segment bytes were found).
// BENCH_JSON lines are grep-able from CI logs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench/bench_util.h"
#include "column/csv.h"
#include "skyserver/catalog.h"
#include "storage/file_io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::JsonLine;
using sciborq::bench::Unwrap;

namespace {

constexpr int64_t kRows = 200'000;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sciborq_storage_bench_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return std::string(dir);
}

std::vector<std::string> QueryBattery() {
  return {
      "SELECT COUNT(*), AVG(r) FROM sky WHERE cone(ra, dec; 150, 12; r=8) "
      "WITHIN 10000 MS ERROR 25%",
      "SELECT AVG(redshift) FROM sky WHERE ra >= 140 AND ra <= 200 "
      "WITHIN 10000 MS ERROR 15%",
      "SELECT COUNT(*) FROM sky EXACT",
  };
}

TableOptions BiasedOptions() {
  TableOptions options;
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  options.seed = 29;
  return options;
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

/// Bytes of the contiguous `<table>.wal.0 … .wal.K` segment run.
int64_t WalSegmentBytes(const std::string& db_dir, const std::string& table) {
  int64_t total = 0;
  for (int i = 0;; ++i) {
    const std::string path = db_dir + "/" + table + ".wal." + std::to_string(i);
    if (!PathExists(path)) return total;
    total += FileBytes(path);
  }
}

}  // namespace

int main() {
  Header("storage: cold start from snapshot vs re-ingest from CSV");

  const std::string dir = MakeTempDir();
  const std::string csv_path = dir + "/sky.csv";
  const std::string db_dir = dir + "/db";

  SkyCatalogConfig config;
  config.num_rows = kRows;
  const SkyCatalog catalog = Unwrap(GenerateSkyCatalog(config, 11));
  if (Status st = WriteCsv(catalog.photo_obj_all, csv_path); !st.ok()) {
    std::fprintf(stderr, "WriteCsv: %s\n", st.ToString().c_str());
    return 1;
  }

  // CSV boot: parse + ingest + sample the full hierarchy (the pre-storage
  // restart path). Registered on an ephemeral engine so no WAL cost skews
  // the comparison.
  Stopwatch csv_watch;
  Engine csv_engine;
  Unwrap(csv_engine.RegisterCsv("sky", csv_path, BiasedOptions()));
  const double csv_seconds = csv_watch.ElapsedSeconds();

  // Build the persistent db once: same data, then checkpoint.
  std::unique_ptr<Engine> writer = Unwrap(Engine::Open(db_dir));
  if (!writer->CreateTable("sky", catalog.photo_obj_all.schema(),
                           BiasedOptions())
           .ok() ||
      !writer->IngestBatch("sky", catalog.photo_obj_all).ok()) {
    std::fprintf(stderr, "persistent load failed\n");
    return 1;
  }

  // Checkpoint throughput (median-ish: repeat and keep the best of 3 to
  // shave fsync jitter).
  double best_checkpoint_seconds = 1e100;
  for (int i = 0; i < 3; ++i) {
    Stopwatch watch;
    if (Status st = writer->Checkpoint("sky"); !st.ok()) {
      std::fprintf(stderr, "Checkpoint: %s\n", st.ToString().c_str());
      return 1;
    }
    best_checkpoint_seconds = std::min(best_checkpoint_seconds,
                                       watch.ElapsedSeconds());
  }
  const int64_t snapshot_bytes = FileBytes(db_dir + "/sky.snapshot");
  writer.reset();

  // Snapshot boot: deserialize columns + hierarchy, no sampling at all.
  Stopwatch snap_watch;
  std::unique_ptr<Engine> snap_engine = Unwrap(Engine::Open(db_dir));
  const double snap_seconds = snap_watch.ElapsedSeconds();

  // Equivalence gate: the two boots must answer bit-identically. (The CSV
  // engine and the writer engine ran the identical ingest stream with the
  // identical seeds, and recovery must preserve that.)
  int mismatches = 0;
  for (const std::string& sql : QueryBattery()) {
    const Result<QueryOutcome> a = csv_engine.Query(sql);
    const Result<QueryOutcome> b = snap_engine->Query(sql);
    if (!a.ok() || !b.ok() || !EquivalentAnswers(*a, *b)) {
      std::fprintf(stderr, "answer mismatch for %s\n", sql.c_str());
      ++mismatches;
    }
  }

  const double speedup = csv_seconds / snap_seconds;
  const double checkpoint_mb_per_s =
      (static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0)) /
      best_checkpoint_seconds;

  std::printf("csv boot:      %.3fs (parse + ingest + sample %lld rows)\n",
              csv_seconds, static_cast<long long>(kRows));
  std::printf("snapshot boot: %.3fs (%lld snapshot bytes)\n", snap_seconds,
              static_cast<long long>(snapshot_bytes));
  std::printf("speedup:       %.1fx (expect >= 5x)\n", speedup);
  std::printf("checkpoint:    %.3fs best-of-3, %.1f MB/s\n",
              best_checkpoint_seconds, checkpoint_mb_per_s);

  JsonLine("storage_cold_start")
      .Int("rows", kRows)
      .Num("csv_boot_seconds", csv_seconds)
      .Num("snapshot_boot_seconds", snap_seconds)
      .Num("speedup", speedup)
      .Int("snapshot_bytes", snapshot_bytes)
      .Flag("answers_equivalent", mismatches == 0)
      .Emit();
  JsonLine("storage_checkpoint")
      .Num("seconds", best_checkpoint_seconds)
      .Num("mb_per_s", checkpoint_mb_per_s)
      .Int("snapshot_bytes", snapshot_bytes)
      .Emit();

  // WAL append throughput: the per-batch durability cost on the ingest path.
  double wal_mb_per_s = 0.0;
  {
    const std::string wal_db = dir + "/wal_db";
    std::unique_ptr<Engine> wal_engine = Unwrap(Engine::Open(wal_db));
    if (!wal_engine
             ->CreateTable("sky", catalog.photo_obj_all.schema(),
                           BiasedOptions())
             .ok()) {
      std::fprintf(stderr, "wal bench setup failed\n");
      return 1;
    }
    constexpr int kBatches = 20;
    const int64_t per = kRows / kBatches;
    Stopwatch watch;
    for (int b = 0; b < kBatches; ++b) {
      Table slice(catalog.photo_obj_all.schema());
      for (int64_t row = b * per; row < (b + 1) * per; ++row) {
        slice.AppendRowFrom(catalog.photo_obj_all, row);
      }
      if (!wal_engine->IngestBatch("sky", slice).ok()) {
        std::fprintf(stderr, "wal ingest failed\n");
        return 1;
      }
    }
    const double seconds = watch.ElapsedSeconds();
    const int64_t wal_bytes = WalSegmentBytes(wal_db, "sky");
    wal_mb_per_s =
        (static_cast<double>(wal_bytes) / (1024.0 * 1024.0)) / seconds;
    JsonLine("storage_wal_ingest")
        .Int("batches", kBatches)
        .Int("rows", per * kBatches)
        .Num("seconds", seconds)
        .Num("rows_per_s", static_cast<double>(per * kBatches) / seconds)
        .Num("wal_mb_per_s", wal_mb_per_s)
        .Emit();
    std::printf("wal ingest:    %lld rows in %.3fs (%.0f rows/s, fsync per "
                "batch)\n",
                static_cast<long long>(per * kBatches), seconds,
                static_cast<double>(per * kBatches) / seconds);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (mismatches > 0) {
    std::fprintf(stderr, "FAILED: %d query answer mismatch(es)\n", mismatches);
    return 1;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAILED: snapshot boot speedup %.1fx below the 5x bar\n",
                 speedup);
    return 1;
  }
  if (!(wal_mb_per_s > 0.0)) {
    std::fprintf(stderr, "FAILED: wal_mb_per_s %.3f is not positive (no WAL "
                 "segment bytes found)\n", wal_mb_per_s);
    return 1;
  }
  std::printf("storage bench OK\n");
  return 0;
}
