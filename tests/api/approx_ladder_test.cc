// `WITH PROB APPROX(eps, delta)` is a contract, not a method: on a
// Meteo-like anti join, whose lineage decomposes, the APPROX threshold must
// return exactly the rows and `_prob` values of the exact threshold — in
// process and over the wire, warm and cold from a snapshot, serial and
// morsel-parallel — and Explain must show that the exact rung ran.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "datasets/meteo.h"
#include "exec/session.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

constexpr char kExact[] =
    "SELECT * FROM meteo_r ANTI JOIN meteo_s ON metric WITH PROB >= 0.3";
constexpr char kApprox[] =
    "SELECT * FROM meteo_r ANTI JOIN meteo_s ON metric "
    "WITH PROB APPROX(0.05, 0.05) >= 0.3";

void FillMeteo(TPDatabase* db) {
  MeteoOptions options;
  options.seed = 7;
  options.num_tuples = 300;
  options.num_metrics = 10;
  options.history_length = 2000;
  StatusOr<MeteoDataset> ds = MakeMeteoDataset(db->manager(), options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_TRUE(db->Register(std::move(ds->r)).ok());
  ASSERT_TRUE(db->Register(std::move(ds->s)).ok());
}

/// Same tuples in the same order, with bit-equal probabilities.
void ExpectSameRelation(const TPRelation& a, const TPRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(CompareRows(a.tuple(i).fact, b.tuple(i).fact), 0) << i;
    EXPECT_EQ(a.tuple(i).interval, b.tuple(i).interval) << i;
    EXPECT_EQ(a.Probability(i), b.Probability(i)) << i;
  }
}

/// A wire result equals the in-process relation row for row: facts,
/// interval and `_prob` as raw double bits.
void ExpectWireMatches(const TPRelation& local,
                       const server::ClientResult& wire) {
  ASSERT_EQ(wire.rows.size(), local.size());
  const size_t num_facts = local.fact_schema().num_columns();
  for (size_t i = 0; i < local.size(); ++i) {
    const Row& row = wire.rows[i];
    ASSERT_EQ(row.size(), num_facts + 3) << i;
    const Row fact(row.begin(), row.begin() + static_cast<long>(num_facts));
    EXPECT_EQ(CompareRows(fact, local.tuple(i).fact), 0) << i;
    EXPECT_EQ(Interval(row[num_facts].AsInt64(), row[num_facts + 1].AsInt64()),
              local.tuple(i).interval)
        << i;
    EXPECT_EQ(row[num_facts + 2].AsDouble(), local.Probability(i)) << i;
  }
}

/// The executed ProbThreshold node reports the exact rung only.
void ExpectExactRung(const std::string& explain) {
  EXPECT_NE(explain.find("ProbThreshold[APPROX(0.05, 0.05) >= 0.3] "
                         "prob=exact"),
            std::string::npos)
      << explain;
  EXPECT_EQ(explain.find("prob=mc"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("+mc"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("shannon"), std::string::npos) << explain;
}

/// Every check for one database: in process and over the wire, at
/// parallelism 1 and 4.
void CheckApproxEqualsExact(TPDatabase* db) {
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    SessionOptions options;
    options.parallelism = parallelism;
    options.min_parallel_rows = 64;  // the 300-row inputs go parallel
    const Session session(db, options);
    StatusOr<TPRelation> exact = session.Query(kExact);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    StatusOr<TPRelation> approx = session.Query(kApprox);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    ASSERT_GT(exact->size(), 0u);
    ExpectSameRelation(*exact, *approx);

    StatusOr<std::string> explain = session.Explain(kApprox);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    ExpectExactRung(*explain);

    server::ServerOptions server_options;
    server_options.session = options;
    server::Server server(db, server_options);
    ASSERT_TRUE(server.Start().ok());
    StatusOr<std::unique_ptr<server::Client>> client =
        server::Client::Connect({.host = "127.0.0.1", .port = server.port()});
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const char* query : {kExact, kApprox}) {
      SCOPED_TRACE(query);
      StatusOr<server::ClientResult> wire = (*client)->Query(query);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      ExpectWireMatches(*exact, *wire);
    }
    client->reset();
    server.Shutdown();
  }
}

TEST(ApproxLadderTest, MeteoAntiJoinApproxEqualsExactWarm) {
  TPDatabase db;
  ASSERT_NO_FATAL_FAILURE(FillMeteo(&db));
  CheckApproxEqualsExact(&db);
}

TEST(ApproxLadderTest, MeteoAntiJoinApproxEqualsExactColdFromSnapshot) {
  const std::string path = testing::TestTempDir() + "/approx_meteo.tpdb";
  {
    TPDatabase source;
    ASSERT_NO_FATAL_FAILURE(FillMeteo(&source));
    ASSERT_TRUE(source.SaveSnapshot(path).ok());
  }
  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("meteo_r"))->cold_storage(), nullptr);
  CheckApproxEqualsExact(&cold);
}

}  // namespace
}  // namespace tpdb
