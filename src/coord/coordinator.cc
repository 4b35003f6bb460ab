#include "coord/coordinator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <utility>

#include "api/session.h"
#include "column/csv.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// Distinct `instance` label per coordinator object (mirrors the server's
/// scheme) so tests running several coordinators keep exact per-instance
/// counters.
std::string NextCoordInstance() {
  static std::atomic<int64_t> next{0};
  return StrFormat("coord-%lld", static_cast<long long>(next.fetch_add(
                                     1, std::memory_order_relaxed)));
}

/// Coordinator-side query-id source; the `qc-` prefix keeps coordinator ids
/// from colliding with engine-assigned `q-` ids in mixed traces.
std::string NextCoordQueryId() {
  static std::atomic<int64_t> next{1};
  return StrFormat("qc-%lld", static_cast<long long>(next.fetch_add(
                                  1, std::memory_order_relaxed)));
}

/// The bounds one shard is asked under: the client's terms with the split
/// time budget and the relative bound `relative_error` (0 = EXACT).
QueryBounds ShardBounds(const QueryBounds& client, double shard_budget_ms,
                        double relative_error) {
  QueryBounds bounds = client;
  if (client.time_budget_ms > 0.0) bounds.time_budget_ms = shard_budget_ms;
  bounds.exact = relative_error <= 0.0;
  bounds.max_relative_error = bounds.exact ? -1.0 : relative_error;
  return bounds;
}

}  // namespace

SciborqCoordinator::SciborqCoordinator(ShardMap shards,
                                       CoordinatorOptions options)
    : shards_(std::move(shards)),
      options_(std::move(options)),
      server_(this, options_) {
  // Size the fan-out pool to the widest shard list so every round trip of
  // one query runs concurrently (waiting serially would burn the budget
  // margin shard by shard).
  size_t widest = shards_.default_shards().size();
  for (const std::string& table : shards_.MappedTables()) {
    widest = std::max(widest, shards_.ShardsFor(table).size());
  }
  fanout_pool_ =
      std::make_unique<ThreadPool>(static_cast<int>(std::max<size_t>(1, widest)));

  obs::Registry* reg = obs::DefaultRegistry();
  const std::string instance = NextCoordInstance();
  const obs::Labels by_instance = {{"instance", instance}};
  metrics_.queries_served =
      reg->GetCounter("sciborq_coord_queries_total",
                      "Distributed queries merged and answered.", by_instance);
  metrics_.partial_answers = reg->GetCounter(
      "sciborq_coord_partial_answers_total",
      "Merged answers missing at least one shard (PARTIAL).", by_instance);
  metrics_.deadline_exceeded = reg->GetCounter(
      "sciborq_coord_deadline_exceeded_total",
      "Merged answers that blew the client's time budget.", by_instance);
  metrics_.second_rounds = reg->GetCounter(
      "sciborq_coord_second_rounds_total",
      "Bounded fan-outs whose composed interval missed the error bound and "
      "re-asked shards a second time.",
      by_instance);
  metrics_.bound_misses = reg->GetCounter(
      "sciborq_coord_bound_missed_total",
      "Merged answers covering every shard whose composed interval still "
      "missed the client's error bound.",
      by_instance);
  metrics_.shard_errors = reg->GetCounter(
      "sciborq_coord_shard_errors_total",
      "Shard round trips that failed (timeout, refusal, error).", by_instance);
  metrics_.query_seconds = reg->GetHistogram(
      "sciborq_coord_query_seconds",
      "Distributed query wall clock (fan-out + merge).",
      obs::DefaultLatencyBounds(), by_instance);
  for (const ShardEndpoint& endpoint : shards_.AllEndpoints()) {
    const std::string key = endpoint.ToString();
    auto shard = std::make_unique<Shard>();
    shard->rtt = reg->GetHistogram("sciborq_coord_shard_rtt_seconds",
                                   "Per-shard query round-trip latency.",
                                   obs::DefaultLatencyBounds(),
                                   {{"instance", instance}, {"shard", key}});
    by_endpoint_.emplace(key, std::move(shard));
  }
}

SciborqCoordinator::BudgetSplit SciborqCoordinator::SplitBudget(
    double client_budget_ms) const {
  BudgetSplit split;
  if (client_budget_ms > 0.0) {
    const double margin =
        std::max(options_.min_margin_ms,
                 options_.budget_margin_fraction * client_budget_ms);
    split.shard_budget_ms = std::max(1.0, client_budget_ms - margin);
    // The socket deadline sits between the shard budget and the client
    // budget: a shard that overruns its share a little still answers, one
    // that hangs is cut before the client's clock runs out.
    split.recv_timeout_ms = std::max(
        1, static_cast<int>(client_budget_ms - margin * 0.5));
  } else {
    split.shard_budget_ms = 0.0;  // unlimited, like the client asked
    split.recv_timeout_ms = options_.default_shard_timeout_ms;
  }
  return split;
}

Result<std::vector<ShardEndpoint>> SciborqCoordinator::ShardsFor(
    const std::string& table) const {
  const std::vector<ShardEndpoint>& endpoints = shards_.ShardsFor(table);
  if (endpoints.empty()) {
    return Status::FailedPrecondition(
        StrFormat("no shards mapped for table '%s'", table.c_str()));
  }
  return endpoints;
}

template <typename Call>
auto SciborqCoordinator::WithShard(const ShardEndpoint& endpoint,
                                   int recv_timeout_ms, Call call) const {
  using Returned = decltype(call(std::declval<SciborqClient*>()));
  Shard& shard = *by_endpoint_.at(endpoint.ToString());
  std::optional<SciborqClient> client;
  {
    MutexLock lock(&shard.mu);
    if (!shard.idle.empty()) {
      client.emplace(std::move(shard.idle.back()));
      shard.idle.pop_back();
    }
  }
  if (client.has_value()) {
    if (Status st = client->SetRecvTimeout(recv_timeout_ms); !st.ok()) {
      return Returned(st);
    }
  } else {
    ClientOptions client_options;
    client_options.max_frame_bytes = options_.max_frame_bytes;
    client_options.connect_timeout_ms = options_.connect_timeout_ms;
    client_options.recv_timeout_ms = recv_timeout_ms;
    Result<SciborqClient> connected =
        SciborqClient::Connect(endpoint.host, endpoint.port, client_options);
    if (!connected.ok()) return Returned(connected.status());
    client.emplace(std::move(connected).value());
  }
  Returned result = call(&*client);
  if (result.ok()) {
    MutexLock lock(&shard.mu);
    shard.idle.push_back(std::move(*client));
  }
  return result;
}

template <typename Call>
Status SciborqCoordinator::OnEachShard(
    const std::vector<ShardEndpoint>& endpoints, Call call) const {
  for (const ShardEndpoint& endpoint : endpoints) {
    SCIBORQ_RETURN_NOT_OK(
        WithShard(endpoint, options_.default_shard_timeout_ms, call));
  }
  return Status::OK();
}

void SciborqCoordinator::FanOut(const std::vector<ShardEndpoint>& endpoints,
                                const std::vector<size_t>& asked,
                                const std::vector<std::string>& sql,
                                const std::string& query_id,
                                int recv_timeout_ms,
                                std::vector<ShardAnswer>* answers) const {
  ParallelFor(fanout_pool_.get(), static_cast<int64_t>(asked.size()), 1,
              [&](int64_t i, int64_t, int64_t) {
                const size_t s = asked[static_cast<size_t>(i)];
                ShardAnswer& answer = (*answers)[s];
                Stopwatch timer;
                Result<QueryOutcome> outcome = WithShard(
                    endpoints[s], recv_timeout_ms, [&](SciborqClient* client) {
                      return client->QueryMergeable(sql[s], query_id);
                    });
                if (outcome.ok()) {
                  answer.outcome = std::move(outcome).value();
                } else {
                  answer.status = outcome.status();
                  metrics_.shard_errors->Inc();
                }
                answer.elapsed_seconds = timer.ElapsedSeconds();
                by_endpoint_.at(endpoints[s].ToString())
                    ->rtt->Observe(answer.elapsed_seconds);
              });
}

Result<QueryOutcome> SciborqCoordinator::Query(const BoundedQuery& bounded,
                                               const QueryExecOptions& exec) {
  if (bounded.query.table.empty()) {
    return Status::InvalidArgument(
        "query names no table: add a FROM clause (or route through a Session "
        "with a default table)");
  }
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<ShardEndpoint> endpoints,
                           ShardsFor(bounded.query.table));
  const std::string query_id =
      exec.query_id.empty() ? NextCoordQueryId() : exec.query_id;
  // The wall clock starts before the tracer's origin, so every span's end
  // stays <= the reported elapsed_seconds.
  Stopwatch wall;
  obs::PhaseTracer tracer;
  tracer.Begin("plan");
  const size_t k = endpoints.size();
  const double client_budget_ms = bounded.bounds.time_budget_ms;
  const BudgetSplit split = SplitBudget(client_budget_ms);
  const QualityBound bound = bounded.bounds.Resolve(options_.default_bound);
  // The client's relative bound e; 0 for EXACT.
  const double e = std::max(0.0, bound.max_relative_error);
  // Round one: shard variances add, so k shards that each meet e·√k compose
  // to about e. EXACT asks every shard for the exact answer, as MIN/MAX
  // (unbounded intervals) make every shard do at any bound.
  const QueryBounds first_bounds =
      ShardBounds(bounded.bounds, split.shard_budget_ms,
                  e * std::sqrt(static_cast<double>(k)));
  std::vector<size_t> everyone(k);
  std::vector<ShardAnswer> answers(k);
  for (size_t s = 0; s < k; ++s) {
    everyone[s] = s;
    answers[s].label = StrFormat("shard%d", static_cast<int>(s));
  }
  const std::vector<std::string> first_sql(
      k, RenderSql(bounded.query, first_bounds));

  tracer.Begin("fanout");
  const double fanout_start = tracer.ElapsedSeconds();
  FanOut(endpoints, everyone, first_sql, query_id, split.recv_timeout_ms,
         &answers);

  tracer.Begin("merge");
  MergeOptions merge_options;
  for (const AggregateSpec& spec : bounded.query.aggregates) {
    merge_options.aggregates.push_back(spec);
  }
  merge_options.confidence = bound.confidence;
  merge_options.shards_total = static_cast<int>(k);
  merge_options.max_relative_error = e;
  SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome merged,
                           MergeShardOutcomes(answers, merge_options));

  // Round two, at most once: when the composed interval misses e, re-ask
  // the shards holding the largest variance shares at the bound that closes
  // the gap — if the client set no WITHIN budget, or what is left of it
  // still fits another round like the first.
  std::vector<ShardAnswer> second;
  double second_start = 0.0;
  if (!merged.error_bound_met && !merged.partial && e > 0.0) {
    const std::vector<double> redo =
        SecondRoundBounds(answers, merged, merge_options);
    std::vector<size_t> asked;
    for (size_t s = 0; s < k; ++s) {
      if (redo[s] >= 0.0) asked.push_back(s);
    }
    // The split of what is left must fit in it (SplitBudget floors a
    // shard's share at 1 ms) and be no shorter than round one took.
    const double round_one_ms = wall.ElapsedSeconds() * 1e3;
    const double left_ms = client_budget_ms - round_one_ms;
    const BudgetSplit split2 =
        client_budget_ms > 0.0 ? SplitBudget(left_ms) : split;
    const bool room = client_budget_ms <= 0.0 ||
                      (split2.shard_budget_ms <= left_ms &&
                       split2.shard_budget_ms >= round_one_ms);
    if (!asked.empty() && room) {
      metrics_.second_rounds->Inc();
      std::vector<std::string> sql(k);
      second.resize(k);
      for (const size_t s : asked) {
        sql[s] = RenderSql(bounded.query,
                           ShardBounds(bounded.bounds, split2.shard_budget_ms,
                                       redo[s]));
        second[s].label = answers[s].label + "/r2";
      }
      tracer.Begin("fanout_r2");
      second_start = tracer.ElapsedSeconds();
      FanOut(endpoints, asked, sql, query_id, split2.recv_timeout_ms, &second);
      tracer.Begin("merge_r2");
      // A shard that fails its second ask keeps its first answer.
      std::vector<ShardAnswer> latest = answers;
      for (const size_t s : asked) {
        if (second[s].status.ok()) latest[s].outcome = second[s].outcome;
      }
      SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome again,
                               MergeShardOutcomes(latest, merge_options));
      again.attempts = std::move(merged.attempts);
      for (const size_t s : asked) AppendShardLedger(second[s], &again.attempts);
      merged = std::move(again);
    }
  }

  merged.table = bounded.query.table;
  merged.sql = RenderSql(bounded.query, bounded.bounds);
  merged.elapsed_seconds = wall.ElapsedSeconds();
  merged.query_id = query_id;
  merged.spans = tracer.Take();
  // Stitch the shards' traces into the coordinator's timeline: each shard's
  // spans ride under its label (`shardN/`, `shardN/r2/` for round two),
  // starts offset by the moment that round's fan-out began (shard-local
  // zero = the coordinator's fan-out start).
  const auto stitch = [&merged](const std::vector<ShardAnswer>& round,
                                double offset) {
    for (const ShardAnswer& answer : round) {
      if (answer.label.empty() || !answer.status.ok()) continue;
      for (const PhaseSpan& span : answer.outcome.spans) {
        merged.spans.push_back({answer.label + "/" + span.name,
                                offset + span.start_seconds,
                                span.duration_seconds});
      }
    }
  };
  stitch(answers, fanout_start);
  stitch(second, second_start);

  metrics_.queries_served->Inc();
  metrics_.query_seconds->Observe(merged.elapsed_seconds);
  if (merged.partial) metrics_.partial_answers->Inc();
  if (merged.deadline_exceeded) metrics_.deadline_exceeded->Inc();
  if (!merged.error_bound_met && !merged.partial) {
    metrics_.bound_misses->Inc();
  }
  if (!merged.error_bound_met || merged.deadline_exceeded || merged.partial) {
    obs::SlowQueryEntry slow;
    slow.query_id = merged.query_id;
    slow.table = merged.table;
    slow.sql = merged.sql;
    slow.asked_max_ms = bounded.bounds.time_budget_ms;
    slow.asked_max_error = bounded.bounds.max_relative_error;
    slow.asked_confidence = bounded.bounds.confidence;
    slow.asked_exact = bounded.bounds.exact;
    slow.error_bound_met = merged.error_bound_met;
    slow.deadline_exceeded = merged.deadline_exceeded;
    slow.elapsed_seconds = merged.elapsed_seconds;
    slow.answered_by = merged.answered_by;
    if (!merged.error_bound_met && !merged.partial) {
      slow.trace = StrFormat("composed worst_err=%.4f bound=%.4f\n",
                             ComposedWorstRelativeError(merged), e);
    }
    slow.trace += RenderTrace(merged);
    slow_log_.Record(std::move(slow));
  }
  return merged;
}

Result<std::vector<TableInfo>> SciborqCoordinator::ListTables() const {
  const std::vector<ShardEndpoint> endpoints = shards_.AllEndpoints();
  if (endpoints.empty()) {
    return Status::FailedPrecondition("coordinator has no shards configured");
  }
  std::vector<std::vector<TableInfo>> per_shard(endpoints.size());
  std::vector<Status> statuses(endpoints.size(), Status::OK());
  ParallelFor(fanout_pool_.get(), static_cast<int64_t>(endpoints.size()), 1,
              [&](int64_t i, int64_t, int64_t) {
                const size_t s = static_cast<size_t>(i);
                Result<std::vector<TableInfo>> tables = WithShard(
                    endpoints[s], options_.default_shard_timeout_ms,
                    [](SciborqClient* client) { return client->ListTables(); });
                if (tables.ok()) {
                  per_shard[s] = std::move(tables).value();
                } else {
                  statuses[s] = tables.status();
                }
              });
  // Catalog listing tolerates down shards (their tables just report fewer
  // shards) but not a total outage.
  bool any_ok = false;
  for (const Status& st : statuses) any_ok = any_ok || st.ok();
  if (!any_ok) {
    return Status::IOError(StrFormat("no shard reachable: %s",
                                     statuses.front().message().c_str()));
  }
  return MergeTableInfos(per_shard);
}

Result<int64_t> SciborqCoordinator::TableRows(const std::string& table) const {
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<TableInfo> tables, ListTables());
  for (const TableInfo& info : tables) {
    if (info.name == table) return info.rows;
  }
  return Status::NotFound(
      StrFormat("table '%s' is not registered on any shard", table.c_str()));
}

Result<StatementHandle> SciborqCoordinator::Prepare(PreparedQuery prepared) {
  // Like Engine::Prepare: fail now, not on the Nth execute.
  SCIBORQ_RETURN_NOT_OK(TableRows(prepared.query.table).status());
  return statements_.Add(std::move(prepared));
}

Result<QueryOutcome> SciborqCoordinator::Execute(
    StatementHandle handle, const std::vector<Value>& params) {
  SCIBORQ_ASSIGN_OR_RETURN(const BoundedQuery bound,
                           statements_.Bind(handle, params));
  return Query(bound, QueryExecOptions());
}

Status SciborqCoordinator::CloseStatement(StatementHandle handle) {
  return statements_.Close(handle);
}

Result<StatementInfo> SciborqCoordinator::GetStatement(
    StatementHandle handle) const {
  return statements_.Info(handle);
}

Status SciborqCoordinator::Checkpoint(const std::string& table) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<ShardEndpoint> endpoints,
                           ShardsFor(table));
  return OnEachShard(endpoints, [&](SciborqClient* client) {
    return client->Checkpoint(table).status();
  });
}

Result<int64_t> SciborqCoordinator::CheckpointAll() {
  // The sum of every shard's checkpointed tables.
  int64_t count = 0;
  SCIBORQ_RETURN_NOT_OK(OnEachShard(
      shards_.AllEndpoints(), [&count](SciborqClient* client) -> Status {
        SCIBORQ_ASSIGN_OR_RETURN(const int64_t n, client->Checkpoint());
        count += n;
        return Status::OK();
      }));
  return count;
}

Status SciborqCoordinator::CreateTable(const std::string& name,
                                       const Schema& schema,
                                       TableOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<ShardEndpoint> endpoints,
                           ShardsFor(name));
  // Derived per-shard seeds: one seeder stream, one draw per shard, so shard
  // samples are mutually independent yet fully reproducible from the table
  // seed.
  Rng seeder(options.seed);
  return OnEachShard(endpoints, [&](SciborqClient* client) {
    options.seed = seeder.NextUint64();
    return client->CreateTable(name, schema, options);
  });
}

Result<int64_t> SciborqCoordinator::Ingest(const std::string& table,
                                           const Table& batch) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<ShardEndpoint> endpoints,
                           ShardsFor(table));
  // Contiguous routing (the paper's parallel database loads, §1): shard s
  // gets rows [offset, offset + per (+1)), a deterministic split, so a
  // sharded load concatenates back to the single-node row order.
  const int64_t n = batch.num_rows();
  const int64_t num_shards = static_cast<int64_t>(endpoints.size());
  const int64_t per = n / num_shards;
  const int64_t rem = n % num_shards;
  int64_t offset = 0;
  int64_t total = 0;
  for (int64_t s = 0; s < num_shards; ++s) {
    const int64_t rows = per + (s < rem ? 1 : 0);
    Table slice(batch.schema());
    slice.Reserve(rows);
    for (int64_t r = 0; r < rows; ++r) {
      slice.AppendRowFrom(batch, offset + r);
    }
    offset += rows;
    if (rows == 0) continue;
    SCIBORQ_ASSIGN_OR_RETURN(
        const int64_t ingested,
        WithShard(endpoints[static_cast<size_t>(s)],
                  options_.default_shard_timeout_ms,
                  [&](SciborqClient* client) {
                    return client->Ingest(table, slice);
                  }));
    total += ingested;
  }
  return total;
}

Status SciborqCoordinator::DropTable(const std::string& table) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::vector<ShardEndpoint> endpoints,
                           ShardsFor(table));
  return OnEachShard(endpoints, [&](SciborqClient* client) {
    return client->DropTable(table);
  });
}

// -- In-process conveniences -------------------------------------------------

Result<QueryOutcome> SciborqCoordinator::Query(std::string_view sql) {
  Session session(this);
  return session.Query(sql);
}

Result<int64_t> SciborqCoordinator::RegisterCsv(const std::string& name,
                                                const std::string& path,
                                                TableOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(const Table table, ReadCsv(path));
  SCIBORQ_RETURN_NOT_OK(CreateTable(name, table.schema(), std::move(options)));
  return Ingest(name, table);
}

}  // namespace sciborq
