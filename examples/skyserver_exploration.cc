// SkyServer exploration: the paper's §2.1 scenario through the Engine
// facade. An astronomer's historical cone-query trace is replayed into the
// engine's workload state (RecordWorkload — the SkyServer log mining), the
// overnight load then builds *biased* impressions concentrated on the
// explored region, and next morning the same scientific questions come back
// far faster than the base scan, with confidence intervals — asked through
// a Session that carries the table and the contract.
//
// Also demonstrates the dimension join (Field) over a layer snapshot.

#include <cstdio>

#include "api/engine.h"
#include "api/session.h"
#include "exec/join.h"
#include "skyserver/catalog.h"
#include "workload/generator.h"

using namespace sciborq;

namespace {

template <typename T>
T OrDie(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "fatal: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

void OrDie(Status st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // The warehouse: fact table + dimensions.
  SkyCatalogConfig config;
  config.num_rows = 600'000;
  const SkyCatalog catalog = OrDie(GenerateSkyCatalog(config, 7));
  std::printf("PhotoObjAll: %lld rows | Field: %lld rows | PhotoTag: %lld rows\n\n",
              static_cast<long long>(catalog.photo_obj_all.num_rows()),
              static_cast<long long>(catalog.field.num_rows()),
              static_cast<long long>(catalog.photo_tag.num_rows()));

  // The engine table: interest tracked on (ra, dec) => biased impressions.
  Engine engine;
  TableOptions table_options;
  table_options.layers = {{"day", 30'000}, {"hour", 3'000}};
  table_options.tracked_attributes = {{"ra", 120.0, 3.0, 40},
                                      {"dec", 0.0, 1.5, 40}};
  table_options.seed = 7;
  OrDie(engine.CreateTable("photo_obj_all", catalog.photo_obj_all.schema(),
                           table_options));

  // Phase 1 — the astronomer's exploration history around (150, 12): each
  // recorded query sharpens the interest histograms before any data loads.
  ConeWorkloadConfig exploration;
  exploration.focal_points = {FocalPoint{150.0, 12.0, 1.0, 2.0}};
  auto generator = OrDie(ConeWorkloadGenerator::Make(exploration, 7));
  std::printf("replaying 200 exploration queries into the workload state...\n");
  for (int i = 0; i < 200; ++i) {
    OrDie(engine.RecordWorkload("photo_obj_all", generator.Next()));
  }
  std::printf("interest tracker has seen %lld queries\n\n",
              static_cast<long long>(
                  OrDie(engine.GetTableInfo("photo_obj_all")).recorded_queries));

  // Phase 2 — overnight load: impressions are built *during* ingest, biased
  // by the tracked interest.
  OrDie(engine.IngestBatch("photo_obj_all", catalog.photo_obj_all));
  std::printf("%s\n\n", OrDie(engine.DescribeTable("photo_obj_all")).c_str());

  // Phase 3 — next morning: the same scientific question, with bounds, via
  // a session that pins the table and default contract once.
  Session session(&engine);
  OrDie(session.Use("photo_obj_all"));
  QueryBounds default_bounds;
  default_bounds.max_relative_error = 0.10;
  session.set_default_bounds(default_bounds);

  const QueryOutcome fast = OrDie(session.Query(
      "SELECT COUNT(*), AVG(redshift) "
      "WHERE (obj_class = 'GALAXY') AND (cone(ra, dec; 150.5, 12.5; r=2.5))"));
  std::printf("bounded answer (10%% error accepted):\n%s\n\n",
              fast.ToString().c_str());

  const QueryOutcome exact = OrDie(session.Query(
      "SELECT COUNT(*), AVG(redshift) "
      "WHERE (obj_class = 'GALAXY') AND (cone(ra, dec; 150.5, 12.5; r=2.5)) "
      "EXACT"));
  std::printf("exact answer: count=%.0f avg_z=%.4f in %.1f ms (vs %.1f ms "
              "bounded)\n\n",
              exact.rows[0].values[0], exact.rows[0].values[1],
              exact.elapsed_seconds * 1e3, fast.elapsed_seconds * 1e3);

  // Bonus: dimension join on a layer snapshot — observing conditions of the
  // explored region, estimated from the sample.
  const Table sample = OrDie(engine.LayerSnapshot("photo_obj_all", 0));
  const Table joined =
      OrDie(HashJoin(sample, "field_id", catalog.field, "field_id"));
  AggregateQuery seeing;
  seeing.aggregates = {{AggKind::kAvg, "seeing"}};
  seeing.filter = Cone("ra", "dec", 150.5, 12.5, 2.5);
  const auto seeing_rows = OrDie(RunExact(joined, seeing));
  std::printf("impression ⋈ Field: avg seeing near the focus = %.3f arcsec\n",
              seeing_rows[0].values[0]);
  return 0;
}
