#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>

#include "api/database.h"
#include "api/logical_plan.h"
#include "api/parser.h"
#include "api/passes/passes.h"
#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "datasets/meteo.h"
#include "datasets/webkit.h"
#include "engine/materialize.h"
#include "engine/vector/column_batch.h"
#include "lineage/compile/prob_eval.h"
#include "lineage/probability.h"
#include "perfbench/src/bench.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/batch_codec.h"
#include "storage/scan.h"
#include "tp/plans.h"
#include "tp/tp_ops.h"

namespace tpdb::perfbench {

namespace fs = std::filesystem;

namespace {

// The APPROX statement's contract: WITH PROB APPROX(eps, delta) >= threshold.
constexpr double kApproxEps = 0.05;
constexpr double kApproxDelta = 0.05;
constexpr double kThreshold = 0.3;
/// Share of the tuples with p >= threshold + eps an APPROX result must keep.
constexpr double kApproxRecall = 0.95;
/// Set-ups per run; setup_s and the set-up layer metrics are their medians.
constexpr int kSetups = 5;
/// Distinct point keys the serve_ingest statements draw from.
constexpr size_t kQueryKeys = 128;
/// Results up to this many rows are checked on the connection thread.
constexpr size_t kInlineCheckRows = 256;
/// Rate of the open-loop append stream (one row per append). At 40/s the
/// two closed-loop readers starve the writer on the catalog lock and the
/// stream falls seconds behind; 10/s keeps it on schedule.
constexpr double kAppendsPerSecond = 10.0;

const char* KindSql(TPJoinKind kind) {
  switch (kind) {
    case TPJoinKind::kInner: return "JOIN";
    case TPJoinKind::kAnti: return "ANTI JOIN";
    case TPJoinKind::kLeftOuter: return "LEFT JOIN";
    case TPJoinKind::kRightOuter: return "RIGHT JOIN";
    case TPJoinKind::kFullOuter: return "FULL JOIN";
    case TPJoinKind::kSemi: return "SEMI JOIN";
  }
  return "JOIN";
}

std::string StatementSql(const WorkloadSpec& spec, int64_t key) {
  std::string sql = "SELECT * FROM " + spec.left + " " + KindSql(spec.kind) +
                    " " + spec.right + " ON " + spec.column;
  if (spec.point_key) sql += " WHERE " + spec.column + " = " + std::to_string(key);
  if (spec.approx) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " WITH PROB APPROX(%g, %g) >= %g",
                  kApproxEps, kApproxDelta, kThreshold);
    sql += buf;
  }
  return sql;
}

// -- generation and reference -------------------------------------------------

/// The point-key filter `key = k` on the first fact column.
std::function<bool(const Row&)> KeyIs(int64_t key) {
  return [key](const Row& fact) {
    return fact[0].type() == DatumType::kInt64 && fact[0].AsInt64() == key;
  };
}

/// Generates the workload's two relations from `seed` into `db`.
Status Generate(const WorkloadSpec& spec, uint64_t seed, TPDatabase* db) {
  switch (spec.data) {
    case DataKind::kWebkit: {
      WebkitOptions o;
      o.seed = seed;
      o.num_tuples = spec.tuples;
      StatusOr<WebkitDataset> ds = MakeWebkitDataset(db->manager(), o);
      if (!ds.ok()) return ds.status();
      TPDB_RETURN_IF_ERROR(db->Register(std::move(ds->r)));
      return db->Register(std::move(ds->s));
    }
    case DataKind::kMeteo: {
      MeteoOptions o;
      o.seed = seed;
      o.num_tuples = spec.tuples;
      StatusOr<MeteoDataset> ds = MakeMeteoDataset(db->manager(), o);
      if (!ds.ok()) return ds.status();
      TPDB_RETURN_IF_ERROR(db->Register(std::move(ds->r)));
      return db->Register(std::move(ds->s));
    }
    case DataKind::kUniform: {
      Random rng(seed);
      UniformWorkloadOptions o;
      o.num_tuples = spec.tuples;
      o.num_facts = spec.tuples / 4;
      for (const std::string& name : {spec.left, spec.right}) {
        StatusOr<TPRelation> rel =
            MakeUniformWorkload(db->manager(), name, o, &rng);
        if (!rel.ok()) return rel.status();
        TPDB_RETURN_IF_ERROR(db->Register(std::move(*rel)));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown data kind");
}

/// Expected results, computed in process from the tp/ operators with exact
/// ProbabilityEngine probabilities — never through the SQL path.
struct Reference {
  /// webkit_cold: the full outer join; meteo_approx: the anti join without
  /// its probability threshold (the APPROX contract is checked against it).
  std::vector<CanonRow> all;
  /// serve_ingest: the left outer join restricted to each query key.
  std::map<int64_t, std::vector<CanonRow>> by_key;
};

Status BuildReference(const WorkloadSpec& spec, TPDatabase* gen,
                      const std::vector<int64_t>& keys, Reference* out) {
  StatusOr<TPRelation*> l = gen->Get(spec.left);
  StatusOr<TPRelation*> r = gen->Get(spec.right);
  if (!l.ok()) return l.status();
  if (!r.ok()) return r.status();
  const JoinCondition theta = JoinCondition::Equals(spec.column);
  StatusOr<TPRelation> joined = Status::Internal("unsupported join kind");
  switch (spec.kind) {
    case TPJoinKind::kFullOuter:
      joined = TPFullOuterJoin(**l, **r, theta);
      break;
    case TPJoinKind::kAnti:
      joined = TPAntiJoin(**l, **r, theta);
      break;
    case TPJoinKind::kLeftOuter:
      joined = TPLeftOuterJoin(**l, **r, theta);
      break;
    default:
      break;
  }
  if (!joined.ok()) return joined.status();
  if (!spec.point_key) {
    StatusOr<std::vector<CanonRow>> rows = CanonicalFromRelation(*joined);
    if (!rows.ok()) return rows.status();
    out->all = std::move(*rows);
    return Status::OK();
  }
  for (int64_t key : keys) {
    StatusOr<TPRelation> sel = TPSelect(*joined, KeyIs(key));
    if (!sel.ok()) return sel.status();
    StatusOr<std::vector<CanonRow>> rows = CanonicalFromRelation(*sel);
    if (!rows.ok()) return rows.status();
    out->by_key[key] = std::move(*rows);
  }
  return Status::OK();
}

/// Checks one wire result against the reference; "" on success.
std::string CheckResult(const WorkloadSpec& spec, const Reference& ref,
                        int64_t key, const std::vector<Row>& rows) {
  StatusOr<std::vector<CanonRow>> got = CanonicalFromWire(rows);
  if (!got.ok()) return got.status().ToString();
  if (spec.approx)
    return CompareApprox(*got, ref.all, kThreshold, kApproxEps,
                         kApproxRecall);
  if (spec.point_key) {
    auto it = ref.by_key.find(key);
    if (it == ref.by_key.end()) return "no reference for key";
    return CompareExact(*got, it->second);
  }
  return CompareExact(*got, ref.all);
}

// -- the served environment ---------------------------------------------------------

/// The open-loop append stream's inputs: each append extends the chains of
/// facts the statements never read, past their last interval, so the TP
/// duplicate-free-in-time invariant keeps holding.
struct AppendPlan {
  std::vector<std::string> relation;  // per append
  std::vector<std::vector<server::AppendRowMsg>> rows;  // per append
  size_t user_bytes = 0;  // Append payload bytes
};

StatusOr<AppendPlan> MakeAppendPlan(const WorkloadSpec& spec, TPDatabase* gen,
                                    size_t count) {
  AppendPlan plan;
  // Per relation: append keys (odd: statements only read even keys) and
  // the end of each key's chain.
  std::map<std::string, std::map<int64_t, int64_t>> chain_end;
  for (const std::string& name : {spec.left, spec.right}) {
    StatusOr<TPRelation*> rel = gen->Get(name);
    if (!rel.ok()) return rel.status();
    std::map<int64_t, int64_t>& ends = chain_end[name];
    for (int64_t key = 1; key < spec.tuples / 4; key += 2) ends[key] = 0;
    for (const TPTuple& t : (*rel)->tuples()) {
      const int64_t key = t.fact[0].AsInt64();
      auto it = ends.find(key);
      if (it != ends.end()) it->second = std::max(it->second, t.interval.end);
    }
  }
  std::map<std::string, std::map<int64_t, int64_t>::iterator> cursor;
  for (auto& [name, ends] : chain_end) cursor[name] = ends.begin();
  for (size_t i = 0; i < count; ++i) {
    const std::string& name = (i % 2 == 0) ? spec.left : spec.right;
    std::map<int64_t, int64_t>& ends = chain_end[name];
    auto& it = cursor[name];
    if (it == ends.end()) it = ends.begin();
    server::AppendRowMsg row;
    row.fact = Row{Datum(it->first)};
    row.ts = it->second;
    row.te = it->second + 5 + static_cast<int64_t>(i % 7);
    row.prob = 0.75;
    it->second = row.te;
    ++it;
    std::vector<server::AppendRowMsg> rows = {std::move(row)};
    server::AppendMsg msg;
    msg.relation = name;
    msg.rows = rows;
    plan.user_bytes += server::BuildAppend(msg).size();
    plan.relation.push_back(name);
    plan.rows.push_back(std::move(rows));
  }
  return plan;
}

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
  double reference_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};

/// One set-up: generated inputs, reference, served database, server and
/// connected clients. Tear-down closes the clients, stops the server and
/// drops the databases (closing the WAL) before removing the scratch
/// directory.
struct Environment {
  std::string tmp_dir;
  std::unique_ptr<TPDatabase> gen_db;    // reference inputs
  std::unique_ptr<TPDatabase> serve_db;  // what the server serves
  Reference ref;
  std::vector<int64_t> query_keys;
  AppendPlan appends;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<server::Client>> query_clients;
  std::unique_ptr<server::Client> append_client;
  SetupTimes times;

  ~Environment() {
    query_clients.clear();
    append_client.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    serve_db.reset();
    gen_db.reset();
    if (!tmp_dir.empty()) {
      std::error_code ec;
      fs::remove_all(tmp_dir, ec);
    }
  }
};

size_t TimedStatements(const WorkloadSpec& spec, const RunOptions& opts) {
  const double n = spec.statements_per_second * opts.seconds;
  return std::max<size_t>(spec.query_connections,
                          static_cast<size_t>(std::llround(n)));
}

size_t TimedAppends(const WorkloadSpec& spec, const RunOptions& opts) {
  if (!spec.append_stream) return 0;
  return static_cast<size_t>(std::llround(kAppendsPerSecond * opts.seconds));
}

StatusOr<std::unique_ptr<server::Client>> Connect(uint16_t port,
                                                  const std::string& name) {
  server::ClientOptions o;
  o.port = port;
  o.client_name = name;
  return server::Client::Connect(o);
}

/// Key of statement `i` of connection `conn` (0 when the shape has none).
int64_t StatementKey(const WorkloadSpec& spec, const Environment& env,
                     uint64_t seed, size_t conn, size_t i) {
  if (!spec.point_key) return 0;
  // Cheap stateless mix of (seed, conn, i) onto the query key set.
  Random rng(seed * 1000003 + conn * 7919 + i);
  return env.query_keys[rng.Uniform(0, env.query_keys.size() - 1)];
}

StatusOr<std::unique_ptr<Environment>> SetUp(const WorkloadSpec& spec,
                                             const RunOptions& opts,
                                             int index) {
  const Clock::time_point start = Clock::now();
  auto env = std::make_unique<Environment>();
  env->tmp_dir = opts.work_dir + "/tmp-" + std::to_string(::getpid()) + "-" +
                 std::to_string(index);
  std::error_code ec;
  fs::remove_all(env->tmp_dir, ec);
  fs::create_directories(env->tmp_dir, ec);
  if (ec) return Status::IOError("cannot create " + env->tmp_dir);

  // Inputs from the seed. The reference gets its own copy (own lineage
  // manager), so nothing the server memoises can leak into it.
  Clock::time_point t = Clock::now();
  env->gen_db = std::make_unique<TPDatabase>();
  TPDB_RETURN_IF_ERROR(Generate(spec, opts.seed, env->gen_db.get()));
  env->times.generate_s = SecondsBetween(t, Clock::now());

  if (spec.point_key) {
    std::vector<int64_t> even;
    for (int64_t k = 0; k < spec.tuples / 4; k += 2) even.push_back(k);
    Random rng(opts.seed ^ 0x5eedull);
    for (size_t i = 0; i < even.size(); ++i)
      std::swap(even[i], even[i + rng.Uniform(0, even.size() - 1 - i)]);
    even.resize(std::min(even.size(), kQueryKeys));
    env->query_keys = std::move(even);
  }
  t = Clock::now();
  TPDB_RETURN_IF_ERROR(
      BuildReference(spec, env->gen_db.get(), env->query_keys, &env->ref));
  env->times.reference_s = SecondsBetween(t, Clock::now());
  if (spec.append_stream) {
    StatusOr<AppendPlan> plan =
        MakeAppendPlan(spec, env->gen_db.get(), TimedAppends(spec, opts));
    if (!plan.ok()) return plan.status();
    env->appends = std::move(*plan);
  }

  env->serve_db = std::make_unique<TPDatabase>();
  if (spec.snapshot) {
    const std::string path = env->tmp_dir + "/data.tpdb";
    t = Clock::now();
    TPDB_RETURN_IF_ERROR(env->gen_db->SaveSnapshot(path));
    env->times.save_s = SecondsBetween(t, Clock::now());
    t = Clock::now();
    TPDB_RETURN_IF_ERROR(env->serve_db->LoadSnapshot(path));
    env->times.load_s = SecondsBetween(t, Clock::now());
  } else {
    TPDB_RETURN_IF_ERROR(Generate(spec, opts.seed, env->serve_db.get()));
  }
  if (spec.append_stream)
    TPDB_RETURN_IF_ERROR(env->serve_db->EnableWal(env->tmp_dir + "/wal.log"));

  env->server = std::make_unique<server::Server>(env->serve_db.get());
  TPDB_RETURN_IF_ERROR(env->server->Start());
  for (size_t c = 0; c < spec.query_connections; ++c) {
    auto client = Connect(env->server->port(), "perfbench-query");
    if (!client.ok()) return client.status();
    env->query_clients.push_back(std::move(*client));
  }
  if (spec.append_stream) {
    auto client = Connect(env->server->port(), "perfbench-append");
    if (!client.ok()) return client.status();
    env->append_client = std::move(*client);
  }

  // Untimed warm-up pass on the first connection, checked like the timed
  // statements. The point-key shape visits every query key once.
  const size_t warmup =
      spec.point_key ? env->query_keys.size() : spec.warmup_statements;
  for (size_t i = 0; i < warmup; ++i) {
    const int64_t key = spec.point_key ? env->query_keys[i] : 0;
    StatusOr<server::ClientResult> res =
        env->query_clients[0]->Query(StatementSql(spec, key));
    if (!res.ok()) return res.status();
    const std::string why = CheckResult(spec, env->ref, key, res->rows);
    if (!why.empty()) return Status::Internal("warm-up result: " + why);
  }
  env->times.total_s = SecondsBetween(start, Clock::now());
  return env;
}

// -- the timed phase ------------------------------------------------------------

/// Checks wire results. Large results are checked on a checker thread, so
/// verifying them never sits between two closed-loop statements; small
/// ones cost microseconds and are checked on the calling thread, which
/// saves a thread wake-up per statement.
class Checker {
 public:
  Checker(const WorkloadSpec& spec, const Reference& ref)
      : spec_(spec), ref_(ref), thread_([this] { Loop(); }) {}
  ~Checker() { Finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Checks `rows`, the result of operation `op`. A large result is handed
  /// over once the previous one is checked, so at most one waits or is
  /// checked at any time (checking is faster than a statement, so this
  /// rarely waits).
  void Check(size_t op, int64_t key, std::vector<Row> rows) {
    if (rows.size() <= kInlineCheckRows) {
      Record(op, CheckResult(spec_, ref_, key, rows));
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !pending_ && !busy_; });
    pending_ = Item{op, key, std::move(rows)};
    cv_.notify_all();
  }

  /// Checks what is pending and joins the thread. Idempotent.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

  /// Operations whose result failed the check (valid after Finish).
  const std::vector<size_t>& failed_ops() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  struct Item {
    size_t op;
    int64_t key;
    std::vector<Row> rows;
  };

  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || pending_.has_value(); });
        if (!pending_) return;
        item = std::move(*pending_);
        pending_.reset();
        busy_ = true;
      }
      Record(item.op, CheckResult(spec_, ref_, item.key, item.rows));
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      cv_.notify_all();
    }
  }

  void Record(size_t op, const std::string& why) {
    if (why.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    failed_.push_back(op);
    if (first_failure_.empty()) first_failure_ = why;
  }

  const WorkloadSpec& spec_;
  const Reference& ref_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Item> pending_;
  bool busy_ = false;  // an item is being checked
  bool done_ = false;
  std::vector<size_t> failed_;
  std::string first_failure_;
  std::thread thread_;  // last: starts after the members it uses
};

struct TimedResult {
  /// Per statement (all connections), client-side ms; +inf when failed.
  std::vector<double> latency_ms;
  double statement_seconds = 0.0;  // first send to last Done
  uint64_t rows_returned = 0;
  /// Per append: ms from its due time to the acknowledgement; +inf when
  /// failed.
  std::vector<double> append_ms;
  double append_lateness_ms_max = 0.0;
  uint64_t failed = 0;
  std::string first_failure;
};

TimedResult RunTimed(const WorkloadSpec& spec, const RunOptions& opts,
                     Environment* env) {
  const size_t total = TimedStatements(spec, opts);
  const size_t conns = env->query_clients.size();
  TimedResult out;
  out.latency_ms.assign(total, 0.0);
  std::vector<uint64_t> rows(conns, 0);
  std::vector<std::string> errors(conns);
  std::vector<Clock::time_point> last_done(conns);
  Checker checker(spec, env->ref);

  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::this_thread::sleep_until(start);
      // Statements c, c + conns, c + 2·conns, … belong to connection c.
      for (size_t op = c; op < total; op += conns) {
        const int64_t key = StatementKey(spec, *env, opts.seed, c, op);
        const std::string sql = StatementSql(spec, key);
        const Clock::time_point sent = Clock::now();
        StatusOr<server::ClientResult> res = env->query_clients[c]->Query(sql);
        const Clock::time_point done = Clock::now();
        last_done[c] = done;
        if (!res.ok()) {
          out.latency_ms[op] = std::numeric_limits<double>::infinity();
          if (errors[c].empty()) errors[c] = res.status().ToString();
          continue;
        }
        out.latency_ms[op] = MsBetween(sent, done);
        rows[c] += res->rows.size();
        checker.Check(op, key, std::move(res->rows));
      }
    });
  }
  std::thread appender;
  if (spec.append_stream) {
    out.append_ms.assign(env->appends.rows.size(), 0.0);
    appender = std::thread([&] {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kAppendsPerSecond));
      for (size_t i = 0; i < env->appends.rows.size(); ++i) {
        const Clock::time_point due = start + period * static_cast<int64_t>(i);
        std::this_thread::sleep_until(due);
        out.append_lateness_ms_max =
            std::max(out.append_lateness_ms_max, MsBetween(due, Clock::now()));
        StatusOr<uint64_t> n = env->append_client->Append(
            env->appends.relation[i], env->appends.rows[i]);
        if (!n.ok() || *n != env->appends.rows[i].size()) {
          out.append_ms[i] = std::numeric_limits<double>::infinity();
          ++out.failed;
          if (out.first_failure.empty())
            out.first_failure = n.ok() ? "short append" : n.status().ToString();
          continue;
        }
        out.append_ms[i] = MsBetween(due, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (appender.joinable()) appender.join();
  checker.Finish();

  Clock::time_point end = start;
  for (size_t c = 0; c < conns; ++c) {
    end = std::max(end, last_done[c]);
    out.rows_returned += rows[c];
    if (!errors[c].empty()) {
      if (out.first_failure.empty()) out.first_failure = errors[c];
    }
  }
  out.statement_seconds = SecondsBetween(start, end);
  for (size_t op : checker.failed_ops())
    out.latency_ms[op] = std::numeric_limits<double>::infinity();
  for (double ms : out.latency_ms)
    if (std::isinf(ms)) ++out.failed;
  if (out.first_failure.empty()) out.first_failure = checker.first_failure();
  return out;
}

// -- the traced phase -----------------------------------------------------------

const char* const kLayers[] = {"api", "storage", "tp", "engine", "lineage",
                               "server"};

std::string LayerOf(const std::string& span) {
  return span.substr(0, span.find('.'));
}

PhysicalNode* FindJoinNode(PhysicalNode* node) {
  if (node == nullptr) return nullptr;
  if (node->op == PhysOp::kTPJoin) return node;
  for (PhysicalNodePtr& child : node->children)
    if (PhysicalNode* found = FindJoinNode(child.get())) return found;
  return nullptr;
}

struct ReplayStats {
  uint8_t methods = 0;
  size_t windows = 0;
};

/// Re-executes one statement in process, layer by layer, through the
/// layers' public functions on the served database, recording a span per
/// call under a `replay` root. The server's own path is the same sequence:
/// parse, plan, the tp/ join, the point filter, the WITH PROB evaluation,
/// the `_prob` column, then batch encoding and (client side) decoding.
Status Replay(const WorkloadSpec& spec, const std::string& sql, int64_t key,
              TPDatabase* db, SpanRecorder* rec, uint64_t id,
              ReplayStats* stats) {
  SpanRecorder::Scope root(rec, id, "replay");
  StatusOr<ParsedStatement> stmt = Status::Internal("unparsed");
  {
    SpanRecorder::Scope s(rec, id, "api.parse");
    stmt = ParseStatement(sql);
  }
  if (!stmt.ok()) return stmt.status();
  std::shared_lock<std::shared_mutex> lock = db->ReadLockCatalog();
  OverlapAlgorithm algorithm = OverlapAlgorithm::kPartitioned;
  {
    SpanRecorder::Scope s(rec, id, "api.plan");
    StatusOr<LogicalPlan> logical = BuildLogicalPlan(*stmt);
    if (!logical.ok()) return logical.status();
    StatusOr<PhysicalPlan> phys = BuildPhysicalPlan(*logical, db);
    if (!phys.ok()) return phys.status();
    PlannerOptions planner;
    planner.parallelism = 1;
    TPDB_RETURN_IF_ERROR(RunPassPipeline(&*phys, PassContext{&planner, 1}));
    const PhysicalNode* join = FindJoinNode(phys->root.get());
    if (join == nullptr) return Status::Internal("plan has no TP join");
    algorithm = join->join_algorithm;
  }
  StatusOr<TPRelation*> l = db->GetAssumingLocked(spec.left);
  StatusOr<TPRelation*> r = db->GetAssumingLocked(spec.right);
  if (!l.ok()) return l.status();
  if (!r.ok()) return r.status();
  const JoinCondition theta = JoinCondition::Equals(spec.column);

  StatusOr<TPRelation> joined = Status::Internal("not joined");
  {
    SpanRecorder::Scope s(rec, id, "tp.join");
    TPJoinSpec join;
    join.kind = spec.kind;
    join.theta = theta;
    join.options.overlap_algorithm = algorithm;
    joined = TPJoin(join, **l, **r);
  }
  if (!joined.ok()) return joined.status();
  const TPRelation* result = &*joined;
  StatusOr<TPRelation> filtered = Status::Internal("not filtered");
  if (spec.point_key) {
    SpanRecorder::Scope s(rec, id, "engine.filter");
    filtered = TPSelect(*joined, KeyIs(key));
    if (!filtered.ok()) return filtered.status();
    result = &*filtered;
  }
  std::vector<size_t> kept;
  if (spec.approx) {
    SpanRecorder::Scope s(rec, id, "lineage.prob_eval");
    ProbEvalOptions eval;
    eval.approx_eps = kApproxEps;
    eval.approx_delta = kApproxDelta;
    eval.mc_seed = PlannerOptions{}.prob_mc_seed;
    eval.max_circuit_nodes = PlannerOptions{}.prob_compile_budget;
    ProbabilityEvaluator evaluator(db->manager(), eval);
    for (size_t i = 0; i < result->size(); ++i)
      if (evaluator.Probability(result->tuple(i).lineage) >= kThreshold)
        kept.push_back(i);
    stats->methods = evaluator.methods_used();
  } else {
    for (size_t i = 0; i < result->size(); ++i) kept.push_back(i);
  }
  std::vector<double> probs;
  {
    SpanRecorder::Scope s(rec, id, "lineage.server_prob");
    ProbabilityEngine engine(db->manager());
    probs.reserve(kept.size());
    for (size_t i : kept)
      probs.push_back(engine.Probability(result->tuple(i).lineage));
  }
  std::string wire;
  Schema schema = result->fact_schema();
  {
    SpanRecorder::Scope s(rec, id, "server.encode");
    schema.AddColumn({kTsColumn, DatumType::kInt64});
    schema.AddColumn({kTeColumn, DatumType::kInt64});
    schema.AddColumn({kProbColumn, DatumType::kDouble});
    std::vector<Row> rows;
    rows.reserve(kept.size());
    for (size_t j = 0; j < kept.size(); ++j) {
      const TPTuple& t = result->tuple(kept[j]);
      Row row = t.fact;
      row.push_back(Datum(static_cast<int64_t>(t.interval.start)));
      row.push_back(Datum(static_cast<int64_t>(t.interval.end)));
      row.push_back(Datum(probs[j]));
      rows.push_back(std::move(row));
    }
    const size_t batch_rows = server::ServerOptions{}.batch_rows;
    for (size_t begin = 0; begin < rows.size(); begin += batch_rows) {
      vec::ColumnBatch batch;
      vec::TransposeRows(rows, begin, std::min(begin + batch_rows, rows.size()),
                         &batch);
      storage::ByteWriter w;
      TPDB_RETURN_IF_ERROR(
          storage::EncodeColumnBatch(schema, batch, /*ids=*/nullptr, &w));
      std::string payload = server::BuildBatchPrefix(id);
      payload += w.buffer();
      server::AppendFrame(server::MsgType::kBatch, payload, &wire);
    }
  }
  {
    SpanRecorder::Scope s(rec, id, "server.client_decode");
    server::FrameReader reader;
    reader.Append(wire.data(), wire.size());
    std::vector<Row> decoded;
    for (;;) {
      server::Frame frame;
      bool have = false;
      TPDB_RETURN_IF_ERROR(reader.Next(&frame, &have));
      if (!have) break;
      uint64_t qid = 0;
      std::string_view payload;
      TPDB_RETURN_IF_ERROR(
          server::ParseBatchPrefix(frame.payload, &qid, &payload));
      vec::ColumnBatch batch;
      TPDB_RETURN_IF_ERROR(storage::DecodeColumnBatch(
          {reinterpret_cast<const uint8_t*>(payload.data()), payload.size()},
          /*ids=*/nullptr, &batch));
      for (size_t i = 0; i < batch.ActiveRows(); ++i) {
        Row row;
        batch.DecodeRow(batch.ActiveRow(i), &row);
        decoded.push_back(std::move(row));
      }
    }
    if (decoded.size() != kept.size())
      return Status::Internal("replay decode lost rows");
  }
  return Status::OK();
}

/// The paper's window stages, each drained from scratch on the statement's
/// inputs: WO (overlap join), WUO (+ LAWAU), WUON (+ LAWAN). LAWAU's own
/// time is wuo − wo and LAWAN's is wuon − wuo. Kinds with an s-driven
/// pipeline drain the mirrored plan too.
Status ReplayWindows(const WorkloadSpec& spec, TPDatabase* db,
                     SpanRecorder* rec, uint64_t id, ReplayStats* stats) {
  std::shared_lock<std::shared_mutex> lock = db->ReadLockCatalog();
  StatusOr<TPRelation*> l = db->GetAssumingLocked(spec.left);
  StatusOr<TPRelation*> r = db->GetAssumingLocked(spec.right);
  if (!l.ok()) return l.status();
  if (!r.ok()) return r.status();
  const JoinCondition theta = JoinCondition::Equals(spec.column);
  const bool s_driven = LineageAwareJoinPipelines(spec.kind).s_driven;
  SpanRecorder::Scope root(rec, id, "windows");
  const std::pair<WindowStage, const char*> stages[] = {
      {WindowStage::kOverlap, "tp.wo"},
      {WindowStage::kWuo, "tp.wuo"},
      {WindowStage::kWuon, "tp.wuon"}};
  for (const auto& [stage, name] : stages) {
    SpanRecorder::Scope s(rec, id, name);
    size_t windows = 0;
    for (int side = 0; side < (s_driven ? 2 : 1); ++side) {
      StatusOr<WindowPlan> plan =
          side == 0 ? MakeWindowPlan(**l, **r, theta, stage)
                    : MakeWindowPlan(**r, **l, theta, stage);
      if (!plan.ok()) return plan.status();
      windows += Drain(plan->root.get());
    }
    stats->windows = windows;  // the last stage (WUON) wins
  }
  return Status::OK();
}

/// Times a full SegmentScan of each served input that has a columnar
/// backing (a standalone decode measurement: the statements themselves
/// join the in-memory tuples the snapshot load rebuilt).
Status ReplaySegmentScan(const WorkloadSpec& spec, TPDatabase* db,
                         SpanRecorder* rec, uint64_t id, bool* any) {
  std::shared_lock<std::shared_mutex> lock = db->ReadLockCatalog();
  *any = false;
  SpanRecorder::Scope root(rec, id, "storage.segment_scan");
  for (const std::string& name : {spec.left, spec.right}) {
    StatusOr<TPRelation*> rel = db->GetAssumingLocked(name);
    if (!rel.ok()) return rel.status();
    const auto& cold = (*rel)->cold_storage();
    if (cold == nullptr) continue;
    *any = true;
    storage::SegmentScan scan(cold.get(), storage::ScanPredicate{});
    Drain(&scan);
  }
  return Status::OK();
}

/// The paper's Fig. 7 comparison on reduced inputs: the NJ left outer join
/// against the temporal-alignment baseline, one run each.
struct PaperRecord {
  double nj_ms = 0.0;
  double ta_ms = 0.0;
};

StatusOr<PaperRecord> RecordPaperClaim(const WorkloadSpec& spec,
                                       uint64_t seed) {
  PaperRecord rec;
  if (spec.paper_tuples == 0) return rec;
  WorkloadSpec reduced = spec;
  reduced.tuples = spec.paper_tuples;
  TPDatabase db;
  TPDB_RETURN_IF_ERROR(Generate(reduced, seed, &db));
  StatusOr<TPRelation*> l = db.Get(spec.left);
  StatusOr<TPRelation*> r = db.Get(spec.right);
  if (!l.ok()) return l.status();
  if (!r.ok()) return r.status();
  const JoinCondition theta = JoinCondition::Equals(spec.column);
  size_t rows[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    TPJoinOptions o;
    o.strategy = i == 0 ? JoinStrategy::kLineageAware
                        : JoinStrategy::kTemporalAlignment;
    const Clock::time_point t = Clock::now();
    StatusOr<TPRelation> res = TPLeftOuterJoin(**l, **r, theta, o);
    const double ms = MsBetween(t, Clock::now());
    if (!res.ok()) return res.status();
    rows[i] = res->size();
    (i == 0 ? rec.nj_ms : rec.ta_ms) = ms;
  }
  if (rows[0] != rows[1])
    return Status::Internal("NJ and TA left outer joins disagree in size");
  return rec;
}

// -- reporting -----------------------------------------------------------------

double HistQuantile(const RegistrySnapshot& d, const std::string& name,
                    double q) {
  return d.Histogram(name).count == 0 ? 0.0 : d.Histogram(name).Quantile(q);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void PrintCounterDeltas(const RegistrySnapshot& delta) {
  std::printf("counter deltas over the timed phase:\n");
  for (const auto& [name, value] : delta.counters)
    if (value != 0)
      std::printf("  %-48s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
  for (const auto& [name, data] : delta.histograms)
    if (data.count != 0)
      std::printf("  %-48s count %llu  p50 %.1f  p99 %.1f  sum %llu\n",
                  name.c_str(), static_cast<unsigned long long>(data.count),
                  data.Quantile(0.5), data.Quantile(0.99),
                  static_cast<unsigned long long>(data.sum));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec webkit;
    webkit.name = "webkit_cold";
    webkit.data = DataKind::kWebkit;
    webkit.tuples = 10000;
    webkit.snapshot = true;
    webkit.kind = TPJoinKind::kFullOuter;
    webkit.left = "webkit_r";
    webkit.right = "webkit_s";
    webkit.column = "file";
    webkit.statements_per_second = 6.5;
    webkit.warmup_statements = 2;
    webkit.traced_statements = 8;
    webkit.paper_tuples = 2000;
    v.push_back(webkit);

    WorkloadSpec meteo;
    meteo.name = "meteo_approx";
    meteo.data = DataKind::kMeteo;
    meteo.tuples = 1000;
    meteo.kind = TPJoinKind::kAnti;
    meteo.left = "meteo_r";
    meteo.right = "meteo_s";
    meteo.column = "metric";
    meteo.approx = true;
    meteo.statements_per_second = 11.0;
    meteo.warmup_statements = 3;
    meteo.traced_statements = 8;
    meteo.paper_tuples = 500;
    v.push_back(meteo);

    WorkloadSpec ingest;
    ingest.name = "serve_ingest";
    ingest.data = DataKind::kUniform;
    ingest.tuples = 2000;
    ingest.snapshot = true;
    ingest.append_stream = true;
    ingest.kind = TPJoinKind::kLeftOuter;
    ingest.left = "r";
    ingest.right = "s";
    ingest.column = "key";
    ingest.point_key = true;
    ingest.query_connections = 2;
    ingest.statements_per_second = 360.0;
    ingest.traced_statements = 32;
    v.push_back(ingest);
    return v;
  }();
  return specs;
}

StatusOr<RunReport> RunWorkload(const WorkloadSpec& spec,
                                const RunOptions& opts) {
  std::printf("workload %s  seed %llu  statements %zu  appends %zu  trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opts.seed),
              TimedStatements(spec, opts), TimedAppends(spec, opts),
              opts.trace ? 1 : 0);
  std::printf("  statement: %s\n", StatementSql(spec, 0).c_str());

  // Set up kSetups times; every set-up but the last is torn down again.
  std::unique_ptr<Environment> env;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    StatusOr<std::unique_ptr<Environment>> made = SetUp(spec, opts, i);
    if (!made.ok()) return made.status();
    env = std::move(*made);
    setups.push_back(env->times);
    std::printf("  set-up %d: %.3f s (generate %.3f, reference %.3f, save "
                "%.3f, load %.3f)\n",
                i, env->times.total_s, env->times.generate_s,
                env->times.reference_s, env->times.save_s, env->times.load_s);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };

  const RegistrySnapshot before = RegistrySnapshot::Capture();
  const size_t nodes_before = env->serve_db->manager()->num_nodes();
  TimedResult timed = RunTimed(spec, opts, env.get());
  const RegistrySnapshot delta =
      RegistrySnapshot::Delta(before, RegistrySnapshot::Capture());
  const size_t nodes_added = env->serve_db->manager()->num_nodes() -
                             nodes_before;

  RunReport report;
  report.attempted = timed.latency_ms.size() + timed.append_ms.size();
  report.failed = timed.failed;
  report.correct = timed.failed == 0;
  if (!timed.first_failure.empty())
    std::printf("  FAILED: %s\n", timed.first_failure.c_str());

  {
    // Per-statement latencies in send order, for looking at drift within
    // a run.
    const std::string path = opts.work_dir + "/latency-" + spec.name + "-" +
                             std::to_string(opts.seed) + ".txt";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      for (double ms : timed.latency_ms) std::fprintf(f, "%.4f\n", ms);
      std::fclose(f);
    }
  }
  std::vector<double> lat = timed.latency_ms;
  const size_t n = lat.size();
  const double p50 = Quantile(&lat, 0.50);
  const double p90 = Quantile(&lat, 0.90);
  const double p99 = Quantile(&lat, 0.99);
  const double qps = Ratio(static_cast<double>(n), timed.statement_seconds);
  std::printf("  statements %zu in %.3f s: qps %.3f  p50 %.3f ms  p90 %.3f ms "
              "(%zu beyond)  p99 %.3f ms (%zu beyond)  rows %llu\n",
              n, timed.statement_seconds, qps, p50, p90,
              SamplesBeyond(n, 0.90), p99, SamplesBeyond(n, 0.99),
              static_cast<unsigned long long>(timed.rows_returned));
  if (spec.append_stream) {
    std::vector<double> app = timed.append_ms;
    std::printf("  appends %zu: append_p50_ms %.3f  append_p99_ms %.3f  "
                "append_lateness_ms_max %.3f\n",
                app.size(), Quantile(&app, 0.5), Quantile(&app, 0.99),
                timed.append_lateness_ms_max);
  }
  PrintCounterDeltas(delta);

  std::printf("  peak_rss_mb %.3f\n", PeakRssMb());

  if (!opts.trace) {
    // The tail percentile is the highest one with >= 10 samples beyond it;
    // latency_p90_ms is reported on every workload, latency_p99_ms (printed
    // above) only has enough samples on serve_ingest.
    report.metrics = {
        {"setup_s", median_of(&SetupTimes::total_s), "s"},
        {"qps", qps, "1/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p90_ms", p90, "ms"},
    };
    return report;
  }

  // ---- traced mode --------------------------------------------------------
  // Let background compaction settle so the replays see a quiet catalog.
  if (spec.append_stream) {
    TPDB_RETURN_IF_ERROR(env->serve_db->Compact(spec.left));
    TPDB_RETURN_IF_ERROR(env->serve_db->Compact(spec.right));
  }
  SpanRecorder rec;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  ReplayStats stats;
  size_t methods_exact = 0;
  size_t methods_compiled = 0;
  size_t methods_mc = 0;
  bool any_cold = false;
  uint64_t storage_decode_us = 0;
  server::Client* client = env->query_clients[0].get();
  // Alternate untraced and traced statements on one connection; the traced
  // ones carry a client span and are followed by the in-process replay.
  for (size_t i = 0; i < 2 * spec.traced_statements; ++i) {
    const uint64_t id = i / 2 + 1;
    const bool traced = i % 2 == 1;
    const int64_t key =
        StatementKey(spec, *env, opts.seed ^ 0x7ace, 0, i / 2);
    const std::string sql = StatementSql(spec, key);
    StatusOr<server::ClientResult> res = Status::Internal("not run");
    double ms = 0.0;
    if (traced) {
      const RegistrySnapshot stmt_before = RegistrySnapshot::Capture();
      const Clock::time_point t = Clock::now();
      {
        SpanRecorder::Scope s(&rec, id, "client.statement");
        res = client->Query(sql);
      }
      ms = MsBetween(t, Clock::now());
      // Decode time the server itself counted inside this statement (the
      // replays below scan segments too, so only the statement's own
      // window is taken).
      storage_decode_us +=
          RegistrySnapshot::Delta(stmt_before, RegistrySnapshot::Capture())
              .Histogram("tpdb_storage_segment_decode_us")
              .sum;
    } else {
      const Clock::time_point t = Clock::now();
      res = client->Query(sql);
      ms = MsBetween(t, Clock::now());
    }
    ++report.attempted;
    const std::string why =
        res.ok() ? CheckResult(spec, env->ref, key, res->rows)
                 : res.status().ToString();
    if (!why.empty()) {
      ++report.failed;
      report.correct = false;
      std::printf("  FAILED (traced phase): %s\n", why.c_str());
      continue;
    }
    (traced ? traced_ms : plain_ms).push_back(ms);
    if (!traced) continue;
    TPDB_RETURN_IF_ERROR(
        Replay(spec, sql, key, env->serve_db.get(), &rec, id, &stats));
    methods_exact += (stats.methods & kProbMethodExact) ? 1 : 0;
    methods_compiled += (stats.methods & kProbMethodCompiled) ? 1 : 0;
    methods_mc += (stats.methods & kProbMethodMonteCarlo) ? 1 : 0;
    TPDB_RETURN_IF_ERROR(
        ReplayWindows(spec, env->serve_db.get(), &rec, id, &stats));
    TPDB_RETURN_IF_ERROR(ReplaySegmentScan(spec, env->serve_db.get(), &rec,
                                           id, &any_cold));
  }
  StatusOr<PaperRecord> paper = RecordPaperClaim(spec, opts.seed);
  if (!paper.ok()) return paper.status();

  // Per-layer self time over the replay trees, per traced statement.
  const double traced_n = static_cast<double>(traced_ms.size());
  const std::vector<double> self = rec.SelfMs();
  std::map<std::string, double> layer_ms;   // attribution (replay roots)
  std::map<std::string, double> span_ms;    // every span, by name
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    span_ms[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns) / 1e6 / traced_n;
    if (rec.spans()[rec.RootOf(static_cast<int>(i))].name == "replay" &&
        s.parent >= 0)
      layer_ms[LayerOf(s.name)] += self[i] / traced_n;
  }
  // Storage work inside the statements, as the server counted it (the
  // served plans borrow the in-memory tuples, so this is usually zero).
  layer_ms["storage"] +=
      static_cast<double>(storage_decode_us) / 1e3 / traced_n;
  // Layer self times are means per traced statement, so the statement time
  // they are set against is the mean too.
  double statement_ms = 0.0;
  for (double ms : traced_ms) statement_ms += ms / traced_n;
  double attributed = 0.0;
  for (const char* layer : kLayers) attributed += layer_ms[layer];
  const double traced_p50 = Median(traced_ms);
  const double plain_p50 = Median(plain_ms);

  std::printf("traced phase: %zu traced + %zu untraced statements\n",
              traced_ms.size(), plain_ms.size());
  std::printf("  self time per statement (ms), statement %.3f:\n",
              statement_ms);
  for (const char* layer : kLayers)
    std::printf("    %-12s %10.3f  (%5.1f%%)\n", layer, layer_ms[layer],
                100.0 * Ratio(layer_ms[layer], statement_ms));
  // Negative when layers overlap in the statement: the reactor encodes
  // later batches while the client decodes earlier ones.
  std::printf("    %-12s %10.3f  (%5.1f%%)\n", "unattributed",
              statement_ms - attributed,
              100.0 * Ratio(statement_ms - attributed, statement_ms));
  std::printf("  tracing overhead: traced p50 %.3f ms vs untraced p50 %.3f "
              "ms\n", traced_p50, plain_p50);
  std::printf("  window stages (ms): wo %.3f  wuo %.3f (LAWAU %.3f)  wuon "
              "%.3f (LAWAN %.3f)  windows %zu\n",
              span_ms["tp.wo"], span_ms["tp.wuo"],
              span_ms["tp.wuo"] - span_ms["tp.wo"], span_ms["tp.wuon"],
              span_ms["tp.wuon"] - span_ms["tp.wuo"], stats.windows);
  if (spec.paper_tuples > 0)
    std::printf("  left outer join at %lld tuples: NJ %.3f ms  TA %.3f ms  "
                "speed-up %.1fx\n",
                static_cast<long long>(spec.paper_tuples), paper->nj_ms,
                paper->ta_ms, Ratio(paper->ta_ms, paper->nj_ms));
  const std::string trace_path = opts.work_dir + "/trace-" + spec.name +
                                 "-" + std::to_string(opts.seed) + ".json";
  TPDB_RETURN_IF_ERROR(rec.WriteChromeJson(trace_path));
  std::printf("  spans written to %s\n", trace_path.c_str());

  const double rows_returned = static_cast<double>(timed.rows_returned);
  const double evals =
      static_cast<double>(delta.Counter("tpdb_prob_evals_total"));
  std::printf("  ratio bases: rows returned %.0f, probability evaluations "
              "%.0f, WAL user bytes %zu\n",
              rows_returned, evals, env->appends.user_bytes);

  report.metrics = {
      {"api.parse_ms", span_ms["api.parse"], "ms"},
      {"api.plan_ms", span_ms["api.plan"], "ms"},
      {"storage.rows_decoded_per_row_returned",
       Ratio(static_cast<double>(delta.Counter("tpdb_storage_rows_decoded_total")),
             rows_returned),
       "ratio"},
      {"storage.decode_ms", any_cold ? span_ms["storage.segment_scan"] : 0.0,
       "ms"},
      {"storage.segments_scanned",
       static_cast<double>(delta.Counter("tpdb_storage_segments_scanned_total")),
       "count"},
      {"storage.segments_pruned",
       static_cast<double>(delta.Counter("tpdb_storage_segments_pruned_total")),
       "count"},
      {"storage.wal_fsync_us_p50", HistQuantile(delta, "tpdb_wal_fsync_us", 0.5),
       "us"},
      {"storage.wal_append_us_p50",
       HistQuantile(delta, "tpdb_wal_append_us", 0.5), "us"},
      {"storage.wal_bytes_per_user_byte",
       Ratio(static_cast<double>(delta.Counter("tpdb_wal_bytes_total")),
             static_cast<double>(env->appends.user_bytes)),
       "ratio"},
      {"storage.compactions",
       static_cast<double>(delta.Counter("tpdb_storage_compactions_total")),
       "count"},
      {"storage.compaction_ms",
       static_cast<double>(delta.Histogram("tpdb_storage_compaction_us").sum) /
           1e3,
       "ms"},
      {"storage.compaction_bytes_reclaimed",
       static_cast<double>(
           delta.Counter("tpdb_storage_compaction_bytes_reclaimed_total")),
       "bytes"},
      {"storage.snapshot_save_s", median_of(&SetupTimes::save_s), "s"},
      {"storage.snapshot_load_s", median_of(&SetupTimes::load_s), "s"},
      {"datasets.generate_s", median_of(&SetupTimes::generate_s), "s"},
      {"tp.wo_ms", span_ms["tp.wo"], "ms"},
      {"tp.wuo_ms", span_ms["tp.wuo"], "ms"},
      {"tp.wuon_ms", span_ms["tp.wuon"], "ms"},
      {"tp.windows_out", static_cast<double>(stats.windows), "count"},
      {"tp.join_ms", span_ms["tp.join"], "ms"},
      {"tp.nj_left_outer_ms", paper->nj_ms, "ms"},
      {"baseline.ta_left_outer_ms", paper->ta_ms, "ms"},
      {"baseline.nj_speedup", Ratio(paper->ta_ms, paper->nj_ms), "ratio"},
      {"lineage.prob_eval_ms", span_ms["lineage.prob_eval"], "ms"},
      {"lineage.methods_exact", static_cast<double>(methods_exact), "count"},
      {"lineage.methods_compiled", static_cast<double>(methods_compiled),
       "count"},
      {"lineage.methods_mc", static_cast<double>(methods_mc), "count"},
      {"lineage.memo_hit_ratio",
       Ratio(static_cast<double>(delta.Counter("tpdb_prob_dag_memo_hits_total")),
             evals),
       "ratio"},
      {"lineage.server_prob_ms", span_ms["lineage.server_prob"], "ms"},
      {"lineage.nodes_added", static_cast<double>(nodes_added), "count"},
      {"server.queue_wait_us_p50",
       HistQuantile(delta, "tpdb_server_queue_wait_us", 0.5), "us"},
      {"server.queue_wait_us_p99",
       HistQuantile(delta, "tpdb_server_queue_wait_us", 0.99), "us"},
      {"server.execute_us_p50",
       HistQuantile(delta, "tpdb_server_execute_us", 0.5), "us"},
      {"server.encode_ms", span_ms["server.encode"], "ms"},
      {"server.client_decode_ms", span_ms["server.client_decode"], "ms"},
      {"server.bytes_per_row",
       Ratio(static_cast<double>(delta.Counter("tpdb_server_bytes_sent_total")),
             rows_returned),
       "bytes"},
      {"exec.tasks", static_cast<double>(delta.Counter("tpdb_exec_tasks_total")),
       "count"},
      {"exec.task_us_p50", HistQuantile(delta, "tpdb_exec_task_us", 0.5), "us"},
      {"exec.steals",
       static_cast<double>(delta.Counter("tpdb_exec_steals_total")), "count"},
      {"process.peak_rss_mb", PeakRssMb(), "MB"},
      {"trace.statement_ms", statement_ms, "ms"},
      {"trace.overhead_pct", 100.0 * Ratio(traced_p50 - plain_p50, plain_p50),
       "%"},
  };
  for (const char* layer : kLayers)
    report.metrics.push_back(
        {std::string("self.") + layer + "_ms", layer_ms[layer], "ms"});
  report.metrics.push_back(
      {"self.unattributed_ms", statement_ms - attributed, "ms"});
  report.metrics.push_back(
      {"share.tp_storage_server",
       Ratio(layer_ms["tp"] + layer_ms["storage"] + layer_ms["server"],
             statement_ms),
       "ratio"});
  report.metrics.push_back(
      {"share.lineage", Ratio(layer_ms["lineage"], statement_ms), "ratio"});
  return report;
}

}  // namespace tpdb::perfbench
