// End-to-end server tests: a query answered over loopback must agree
// element-wise — rows, intervals, exact probabilities — with the same
// query run in-process, including under 8+ concurrent client threads
// mixing queries with DDL; plus admission control, cancellation and
// graceful-shutdown behavior.
#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datasets/generator.h"
#include "exec/session.h"
#include "lineage/compile/prob_eval.h"
#include "lineage/probability.h"
#include "server/client.h"
#include "tests/reference/reference.h"
#include "tests/reference/temp_dir.h"

namespace tpdb::server {
namespace {

/// A wire row reduced to comparable form (fact ++ interval ++ probability,
/// matching the canonical form the session tests use in-process).
struct CanonicalTuple {
  Row fact;
  Interval interval;
  double probability;
};

bool CanonicalLess(const CanonicalTuple& a, const CanonicalTuple& b) {
  const int c = CompareRows(a.fact, b.fact);
  if (c != 0) return c < 0;
  return a.interval < b.interval;
}

std::vector<CanonicalTuple> CanonicalizeLocal(const TPRelation& rel) {
  ProbabilityEngine engine(rel.manager());
  std::vector<CanonicalTuple> out;
  out.reserve(rel.size());
  for (const TPTuple& t : rel.tuples())
    out.push_back({t.fact, t.interval, engine.Probability(t.lineage)});
  std::sort(out.begin(), out.end(), CanonicalLess);
  return out;
}

std::vector<CanonicalTuple> CanonicalizeWire(const ClientResult& result) {
  // Wire schema: fact columns ++ _ts ++ _te ++ _prob.
  const size_t num_cols = result.schema.num_columns();
  EXPECT_GE(num_cols, 3u);
  std::vector<CanonicalTuple> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    EXPECT_EQ(row.size(), num_cols);
    CanonicalTuple t;
    t.fact.assign(row.begin(), row.end() - 3);
    t.interval = Interval(row[num_cols - 3].AsInt64(),
                          row[num_cols - 2].AsInt64());
    t.probability = row[num_cols - 1].AsDouble();
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(), CanonicalLess);
  return out;
}

void ExpectParity(const TPRelation& local, const ClientResult& wire) {
  const std::vector<CanonicalTuple> e = CanonicalizeLocal(local);
  const std::vector<CanonicalTuple> a = CanonicalizeWire(wire);
  ASSERT_EQ(e.size(), a.size());
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(CompareRows(e[i].fact, a[i].fact), 0) << "row " << i;
    EXPECT_EQ(e[i].interval, a[i].interval) << "row " << i;
    // The probability is computed once server-side and shipped as raw
    // double bits, so parity is exact, not approximate.
    EXPECT_EQ(e[i].probability, a[i].probability) << "row " << i;
  }
}

class ServerEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(99);
    UniformWorkloadOptions options;
    options.num_tuples = 600;
    options.num_facts = 80;
    options.history_length = 2000;
    options.gap_probability = 0.3;
    for (const char* name : {"r", "s"}) {
      StatusOr<TPRelation> rel =
          MakeUniformWorkload(db_.manager(), name, options, &rng);
      ASSERT_TRUE(rel.ok()) << rel.status().ToString();
      ASSERT_TRUE(db_.Register(std::move(*rel)).ok());
    }
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
  }

  StatusOr<std::unique_ptr<Client>> Connect() {
    return Client::Connect({.host = "127.0.0.1", .port = server_->port()});
  }

  TPDatabase db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerEndToEndTest, WireResultsMatchInProcessElementWise) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Session session(&db_);
  const std::vector<std::string> queries = {
      "SELECT * FROM r",
      "SELECT * FROM r WHERE key < 40",
      "SELECT * FROM r INNER JOIN s ON key",
      "r ANTI JOIN s ON key",
      "r UNION s",
      "r EXCEPT s",
      "SELECT * FROM r INNER JOIN s ON key WHERE key < 60 ORDER BY key",
      "SELECT key, COUNT(*), COUNT(key_s), MIN(key_s) FROM r LEFT JOIN s "
      "ON key WHERE key < 60 GROUP BY key",
  };
  for (const std::string& query : queries) {
    StatusOr<TPRelation> local = session.Query(query);
    ASSERT_TRUE(local.ok()) << query << ": " << local.status().ToString();
    StatusOr<ClientResult> wire = (*client)->Query(query);
    ASSERT_TRUE(wire.ok()) << query << ": " << wire.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectParity(*local, *wire)) << query;
  }
}

TEST_F(ServerEndToEndTest, EmptyResultStreamsSchemaAndDoneOnly) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<ClientResult> wire =
      (*client)->Query("SELECT * FROM r WHERE key < -1");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->rows.size(), 0u);
  EXPECT_EQ(wire->total_rows, 0u);
  EXPECT_GE(wire->schema.num_columns(), 3u);
}

TEST_F(ServerEndToEndTest, LargeResultStreamsInMultipleBatches) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  // "r UNION s" yields well over one 1024-row batch.
  StatusOr<ClientResult> wire = (*client)->Query("r UNION s");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_GT(wire->rows.size(), 1024u);
  EXPECT_GE(server_->Stats().batches_sent, 2u);
  Session session(&db_);
  StatusOr<TPRelation> local = session.Query("r UNION s");
  ASSERT_TRUE(local.ok());
  ExpectParity(*local, *wire);
}

TEST_F(ServerEndToEndTest, LineageOverTheCircuitBudgetIsSampledInTime) {
  // Entangled lineage (v1 ∨ v2) ∧ (v2 ∨ v3) ∧ … defeats decomposition,
  // and a tiny expansion budget (each tuple needs 25) pushes it past the
  // exact rungs: `_prob` must come from the session's evaluator (sampled to
  // the fallback contract), not from unbounded Shannon expansion on a
  // server worker.
  constexpr int kDepth = 16;
  constexpr int kTuples = 6;
  StatusOr<TPRelation*> rel =
      db_.CreateRelation("ent", Schema({{"id", DatumType::kInt64}}));
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  LineageManager* mgr = db_.manager();
  for (int t = 0; t < kTuples; ++t) {
    std::vector<LineageRef> vars;
    for (int i = 0; i < kDepth; ++i)
      vars.push_back(mgr->Var(mgr->RegisterVariable(0.5)));
    LineageRef lam = mgr->True();
    for (int i = 0; i + 1 < kDepth; ++i)
      lam = mgr->And(lam, mgr->Or(vars[static_cast<size_t>(i)],
                                  vars[static_cast<size_t>(i + 1)]));
    ASSERT_TRUE((*rel)->AppendDerived({Datum(int64_t{t})}, Interval(t, t + 1),
                                      lam)
                    .ok());
  }

  ServerOptions options;
  options.session.prob_compile_budget = 16;
  StartServer(options);
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  StatusOr<ClientResult> wire = (*client)->Query("SELECT * FROM ent");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_LT(seconds, 10.0);

  // The same evaluator options in process draw the same per-formula
  // streams, so the wire values match bit for bit.
  ProbabilityEvaluator local(mgr, BaseProbOptions(options.session));
  const std::vector<CanonicalTuple> rows = CanonicalizeWire(*wire);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kTuples));
  for (int t = 0; t < kTuples; ++t) {
    const LineageRef lam = (*rel)->tuple(static_cast<size_t>(t)).lineage;
    const double p = rows[static_cast<size_t>(t)].probability;
    EXPECT_EQ(p, local.Probability(lam)) << "tuple " << t;
    EXPECT_NEAR(p, tpdb::testing::BruteForceProbability(mgr, lam), 0.05)
        << "tuple " << t;
  }
  EXPECT_EQ(local.methods_used(), kProbMethodMonteCarlo);
}

TEST_F(ServerEndToEndTest, ApproxContractPastTheSampleCapIsRejected) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  // eps = 1e-9 needs ~1.8e18 samples per over-budget tuple: refused before
  // it can pin a worker.
  StatusOr<ClientResult> tiny = (*client)->Query(
      "SELECT * FROM r WITH PROB APPROX(0.000000001, 0.05) >= 0.5");
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kInvalidArgument);
  StatusOr<ClientResult> fine = (*client)->Query(
      "SELECT * FROM r WITH PROB APPROX(0.001, 0.05) >= 0.5");
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST_F(ServerEndToEndTest, QueryErrorsTravelWithTheirStatusCode) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<ClientResult> bad = (*client)->Query("r FROB s");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  StatusOr<ClientResult> missing = (*client)->Query("SELECT * FROM no_such_relation");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The connection survives query errors.
  StatusOr<ClientResult> ok = (*client)->Query("SELECT * FROM r");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServerEndToEndTest, PrepareAndExplainReturnPlanText) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<std::string> plan =
      (*client)->Prepare("SELECT * FROM r INNER JOIN s ON key");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Join"), std::string::npos) << *plan;
  StatusOr<std::string> explain = (*client)->Explain("r UNION s");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->empty());
  StatusOr<std::string> bad = (*client)->Prepare("r FROB s");
  EXPECT_FALSE(bad.ok());
}

TEST_F(ServerEndToEndTest, SnapshotStatementsWorkOverTheWire) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  const std::string path =
      testing::TestTempDir() + "/tpdb_wire_snapshot.tpdb";
  StatusOr<ClientResult> save =
      (*client)->Query("SAVE SNAPSHOT '" + path + "'");
  ASSERT_TRUE(save.ok()) << save.status().ToString();

  // Load it into a second database served on another port and check the
  // relation came through.
  TPDatabase restored;
  Server server2(&restored);
  ASSERT_TRUE(server2.Start().ok());
  StatusOr<std::unique_ptr<Client>> client2 =
      Client::Connect({.host = "127.0.0.1", .port = server2.port()});
  ASSERT_TRUE(client2.ok());
  StatusOr<ClientResult> load =
      (*client2)->Query("LOAD SNAPSHOT '" + path + "'");
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  StatusOr<ClientResult> wire = (*client2)->Query("SELECT * FROM r");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  Session session(&db_);
  StatusOr<TPRelation> local = session.Query("SELECT * FROM r");
  ASSERT_TRUE(local.ok());
  // Probabilities survive the snapshot bit-exactly, so full parity holds
  // even across the save/load round trip.
  ExpectParity(*local, *wire);
  server2.Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServerEndToEndTest, EightConcurrentClientsMixingQueriesAndDdl) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  const std::vector<std::string> queries = {
      "SELECT * FROM r",
      "SELECT * FROM r WHERE key < 50",
      "SELECT * FROM r INNER JOIN s ON key",
      "r UNION s",
      "r EXCEPT s",
      "r ANTI JOIN s ON key",
  };
  // Precompute expected canonical results in-process.
  Session session(&db_);
  std::vector<std::vector<CanonicalTuple>> expected;
  for (const std::string& query : queries) {
    StatusOr<TPRelation> local = session.Query(query);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    expected.push_back(CanonicalizeLocal(*local));
  }
  const std::string snapshot_dir = testing::TestTempDir();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<std::unique_ptr<Client>> client = Client::Connect(
          {.host = "127.0.0.1", .port = server_->port()});
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // One thread interleaves DDL (snapshot saves hold the catalog in
        // read mode like queries; they exercise the statement path).
        if (t == 0 && round % 2 == 1) {
          const std::string path = snapshot_dir + "/tpdb_ddl_" +
                                   std::to_string(round) + ".tpdb";
          StatusOr<ClientResult> save =
              (*client)->Query("SAVE SNAPSHOT '" + path + "'");
          if (!save.ok()) ++failures;
          std::remove(path.c_str());
          continue;
        }
        const size_t q = static_cast<size_t>(t + round) % queries.size();
        StatusOr<ClientResult> wire = (*client)->Query(queries[q]);
        if (!wire.ok()) {
          ++failures;
          continue;
        }
        const std::vector<CanonicalTuple> got = CanonicalizeWire(*wire);
        if (got.size() != expected[q].size()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i)
          if (CompareRows(got[i].fact, expected[q][i].fact) != 0 ||
              !(got[i].interval == expected[q][i].interval) ||
              got[i].probability != expected[q][i].probability) {
            ++failures;
            break;
          }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->Stats().handshakes_ok, static_cast<uint64_t>(kThreads));
}

TEST_F(ServerEndToEndTest, ConnectionLimitRejectsTheExtraClient) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  StatusOr<std::unique_ptr<Client>> a = Connect();
  StatusOr<std::unique_ptr<Client>> b = Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  StatusOr<std::unique_ptr<Client>> c = Connect();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server_->Stats().connections_rejected, 1u);
  // Closing one admits the next.
  ASSERT_TRUE((*a)->Close().ok());
  for (int attempt = 0; attempt < 50; ++attempt) {
    StatusOr<std::unique_ptr<Client>> d = Connect();
    if (d.ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot was never released after Close()";
}

TEST_F(ServerEndToEndTest, ResultMemoryLimitSurfacesAsResourceExhausted) {
  ServerOptions options;
  options.per_session_result_bytes = 1024;  // far below any full scan
  StartServer(options);
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<ClientResult> big = (*client)->Query("SELECT * FROM r");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(big.status().message().find("memory limit"), std::string::npos);
  // The session survives and can still run small queries.
  StatusOr<ClientResult> small =
      (*client)->Query("SELECT * FROM r WHERE key < -1");
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST_F(ServerEndToEndTest, CancelIsBestEffort) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    // Spam cancels while the query runs; whichever side wins the race,
    // the Query call below must return something sane.
    while (!done.load()) {
      if (!(*client)->CancelInflight().ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  StatusOr<ClientResult> result =
      (*client)->Query("SELECT * FROM r INNER JOIN s ON key");
  done.store(true);
  canceller.join();
  if (result.ok()) {
    Session session(&db_);
    StatusOr<TPRelation> local =
        session.Query("SELECT * FROM r INNER JOIN s ON key");
    ASSERT_TRUE(local.ok());
    ExpectParity(*local, *result);
  } else {
    EXPECT_NE(result.status().message().find("cancel"), std::string::npos);
  }
  // Either way the connection keeps working.
  StatusOr<ClientResult> after = (*client)->Query("SELECT * FROM r");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServerEndToEndTest, GracefulShutdownSaysGoodbyeAndRejectsLatecomers) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  const uint16_t port = server_->port();
  server_->Shutdown();
  // The held connection was told Goodbye; its next query fails cleanly.
  StatusOr<ClientResult> late = (*client)->Query("SELECT * FROM r");
  EXPECT_FALSE(late.ok());
  // New connections are refused outright (the listener is gone).
  StatusOr<std::unique_ptr<Client>> newcomer =
      Client::Connect({.host = "127.0.0.1", .port = port});
  EXPECT_FALSE(newcomer.ok());
  server_.reset();
}

TEST_F(ServerEndToEndTest, StatsCountTheTraffic) {
  StartServer();
  {
    StatusOr<std::unique_ptr<Client>> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Query("SELECT * FROM r").ok());
    ASSERT_FALSE((*client)->Query("r FROB s").ok());
  }
  const ServerStats stats = server_->Stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.handshakes_ok, 1u);
  EXPECT_GE(stats.queries_ok, 1u);
  EXPECT_GE(stats.queries_failed, 1u);
  EXPECT_GE(stats.batches_sent, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST_F(ServerEndToEndTest, AppendOverTheWireHitsTheWal) {
  const std::string wal_path = testing::TestTempDir() + "/wire_append.wal";
  std::remove(wal_path.c_str());
  ASSERT_TRUE(db_.EnableWal(wal_path).ok());
  ASSERT_TRUE(db_.CreateRelation(
                     "bookings", Schema({{"key", DatumType::kInt64},
                                         {"loc", DatumType::kString}}))
                  .ok());
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<AppendRowMsg> rows;
  rows.push_back({{Datum(int64_t{1}), Datum("GVA")}, 0.5, 0, 10, "b1"});
  rows.push_back({{Datum(int64_t{2}), Datum("ZAK")}, 0.25, 5, 20, "b2"});
  rows.push_back({{Datum(int64_t{3}), Datum::Null()}, 1.0, 7, 9, ""});
  StatusOr<uint64_t> appended = (*client)->Append("bookings", rows);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(*appended, 3u);

  // Acknowledged means logged: the create and the append are both on disk.
  ASSERT_TRUE(db_.wal_enabled());
  EXPECT_EQ(db_.wal()->records(), 2u);
  EXPECT_GT(db_.wal()->bytes(), 0u);

  // The rows are immediately queryable with their exact probabilities.
  StatusOr<ClientResult> wire =
      (*client)->Query("SELECT * FROM bookings ORDER BY key");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_EQ(wire->rows.size(), 3u);
  const size_t n = wire->schema.num_columns();
  EXPECT_EQ(wire->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(wire->rows[0][n - 1].AsDouble(), 0.5);
  EXPECT_EQ(wire->rows[1][n - 1].AsDouble(), 0.25);
  EXPECT_EQ(wire->rows[2][n - 1].AsDouble(), 1.0);
  std::remove(wal_path.c_str());
}

TEST_F(ServerEndToEndTest, AppendValidationErrorsTravelAndNothingIsApplied) {
  ASSERT_TRUE(
      db_.CreateRelation("w", Schema({{"key", DatumType::kInt64}})).ok());
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());

  // Unknown relation.
  StatusOr<uint64_t> missing =
      (*client)->Append("nope", {{{Datum(int64_t{1})}, 1.0, 0, 1, ""}});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Second row is invalid (empty interval): all-or-nothing, so the valid
  // first row must not be applied either.
  std::vector<AppendRowMsg> rows;
  rows.push_back({{Datum(int64_t{1})}, 1.0, 0, 10, ""});
  rows.push_back({{Datum(int64_t{2})}, 1.0, 5, 5, ""});
  StatusOr<uint64_t> bad = (*client)->Append("w", rows);
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(db_.Get("w").ok());
  EXPECT_EQ((*db_.Get("w"))->size(), 0u);

  // The connection survives an append error.
  StatusOr<uint64_t> good =
      (*client)->Append("w", {{{Datum(int64_t{7})}, 0.75, 0, 3, ""}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(*good, 1u);
  EXPECT_EQ((*db_.Get("w"))->size(), 1u);
}

TEST_F(ServerEndToEndTest, StorageStatsTravelAsRenderedText) {
  StartServer();
  StatusOr<std::unique_ptr<Client>> client = Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<std::string> stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The fixture's relations and the WAL line must both show up.
  EXPECT_NE(stats->find("r"), std::string::npos);
  EXPECT_NE(stats->find("s"), std::string::npos);
  EXPECT_NE(stats->find("wal: disabled"), std::string::npos);
  // Stats leave the session ready for a normal query.
  EXPECT_TRUE((*client)->Query("SELECT * FROM r").ok());
}

}  // namespace
}  // namespace tpdb::server
