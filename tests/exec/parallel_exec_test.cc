// Parallel-vs-serial equivalence on the random-scenario generator: every
// join kind and set operation must produce element-wise identical results
// under the morsel drivers, and the parallel pipeline driver must be
// byte-identical to a serial pipeline run (ordered merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "datasets/generator.h"
#include "engine/expr.h"
#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/vector/batch_ops.h"
#include "exec/parallel.h"
#include "lineage/probability.h"

namespace tpdb {
namespace {

/// A (fact, interval, probability) triple: everything observable about a
/// result tuple that is independent of lineage node ids.
struct CanonicalTuple {
  Row fact;
  Interval interval;
  double probability;
};

std::vector<CanonicalTuple> Canonicalize(const TPRelation& rel,
                                         bool sorted) {
  ProbabilityEngine engine(rel.manager());
  std::vector<CanonicalTuple> out;
  out.reserve(rel.size());
  for (const TPTuple& t : rel.tuples())
    out.push_back(
        CanonicalTuple{t.fact, t.interval, engine.Probability(t.lineage)});
  if (sorted) {
    std::sort(out.begin(), out.end(),
              [](const CanonicalTuple& a, const CanonicalTuple& b) {
                const int c = CompareRows(a.fact, b.fact);
                if (c != 0) return c < 0;
                if (a.interval != b.interval) return a.interval < b.interval;
                return a.probability < b.probability;
              });
  }
  return out;
}

/// Element-wise comparison; `sorted` canonicalizes order first (used for
/// the hash-partitioned set ops, whose order is deterministic but not the
/// serial emit order).
void ExpectSameContents(const TPRelation& serial, const TPRelation& parallel,
                        bool sorted) {
  ASSERT_EQ(serial.size(), parallel.size());
  const std::vector<CanonicalTuple> expected = Canonicalize(serial, sorted);
  const std::vector<CanonicalTuple> actual = Canonicalize(parallel, sorted);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(CompareRows(expected[i].fact, actual[i].fact), 0)
        << "fact mismatch at " << i;
    EXPECT_EQ(expected[i].interval, actual[i].interval)
        << "interval mismatch at " << i;
    EXPECT_NEAR(expected[i].probability, actual[i].probability, 1e-9)
        << "probability mismatch at " << i;
  }
}

struct Workload {
  LineageManager manager;
  std::unique_ptr<TPRelation> r;
  std::unique_ptr<TPRelation> s;
};

/// Two relations over the same key space, with enough tuples to clear the
/// parallel threshold and enough key collisions for interesting windows.
std::unique_ptr<Workload> MakeWorkload(uint64_t seed, int64_t tuples) {
  auto w = std::make_unique<Workload>();
  Random rng(seed);
  UniformWorkloadOptions options;
  options.num_tuples = tuples;
  options.num_facts = tuples / 8;
  options.history_length = 4000;
  options.avg_duration = 40.0;
  options.gap_probability = 0.3;
  StatusOr<TPRelation> r = MakeUniformWorkload(&w->manager, "r", options, &rng);
  TPDB_CHECK(r.ok()) << r.status().ToString();
  StatusOr<TPRelation> s = MakeUniformWorkload(&w->manager, "s", options, &rng);
  TPDB_CHECK(s.ok()) << s.status().ToString();
  w->r = std::make_unique<TPRelation>(std::move(*r));
  w->s = std::make_unique<TPRelation>(std::move(*s));
  return w;
}

/// A context that genuinely parallelizes: 4 workers, small morsels, low
/// threshold.
ExecContext MakeParallelContext(ThreadPool* pool) {
  ExecOptions options;
  options.parallelism = 4;
  options.morsel_size = 64;
  options.min_parallel_rows = 32;
  return ExecContext(pool, options);
}

class ParallelExecTest : public ::testing::Test {
 protected:
  ThreadPool pool_{4};
};

TEST_F(ParallelExecTest, JoinsMatchSerialForEveryKind) {
  const std::unique_ptr<Workload> w = MakeWorkload(42, 1200);
  const JoinCondition theta = JoinCondition::Equals("key");
  for (const TPJoinKind kind :
       {TPJoinKind::kInner, TPJoinKind::kAnti, TPJoinKind::kLeftOuter,
        TPJoinKind::kRightOuter, TPJoinKind::kFullOuter, TPJoinKind::kSemi}) {
    SCOPED_TRACE(TPJoinKindName(kind));
    StatusOr<TPRelation> serial = TPJoin(kind, *w->r, *w->s, theta);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    ExecContext ctx = MakeParallelContext(&pool_);
    StatusOr<TPRelation> parallel =
        ParallelTPJoin(&ctx, kind, *w->r, *w->s, theta);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    // Contiguous morsels preserve the serial emit order exactly.
    ExpectSameContents(*serial, *parallel, /*sorted=*/false);
    EXPECT_TRUE(parallel->Validate().ok());
    EXPECT_FALSE(ctx.CollectWorkerStats().empty())
        << "join of this size must actually have gone parallel";
  }
}

TEST_F(ParallelExecTest, SetOpsMatchSerialElementWise) {
  const std::unique_ptr<Workload> w = MakeWorkload(7, 1000);
  for (const TPSetOpKind kind :
       {TPSetOpKind::kUnion, TPSetOpKind::kIntersect,
        TPSetOpKind::kDifference}) {
    SCOPED_TRACE(TPSetOpKindName(kind));
    StatusOr<TPRelation> serial = TPSetOp(kind, *w->r, *w->s);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    ExecContext ctx = MakeParallelContext(&pool_);
    StatusOr<TPRelation> parallel =
        ParallelTPSetOp(&ctx, kind, *w->r, *w->s);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    // Hash partitioning reorders tuples; contents must be identical.
    ExpectSameContents(*serial, *parallel, /*sorted=*/true);
    EXPECT_TRUE(parallel->Validate().ok());
    EXPECT_EQ(serial->name(), parallel->name());
  }
}

TEST_F(ParallelExecTest, SmallInputsFallBackToSerialOrder) {
  const std::unique_ptr<Workload> w = MakeWorkload(3, 1000);
  ExecOptions options;
  options.parallelism = 4;
  options.min_parallel_rows = 1u << 20;  // threshold above every input
  ExecContext ctx(&pool_, options);
  StatusOr<TPRelation> serial =
      TPJoin(TPJoinKind::kLeftOuter, *w->r, *w->s,
             JoinCondition::Equals("key"));
  ASSERT_TRUE(serial.ok());
  StatusOr<TPRelation> fallback =
      ParallelTPJoin(&ctx, TPJoinKind::kLeftOuter, *w->r, *w->s,
                     JoinCondition::Equals("key"));
  ASSERT_TRUE(fallback.ok());
  ExpectSameContents(*serial, *fallback, /*sorted=*/false);
  EXPECT_TRUE(ctx.CollectWorkerStats().empty());
}

TEST_F(ParallelExecTest, PipelineMergeIsByteIdentical) {
  const std::unique_ptr<Workload> w = MakeWorkload(11, 1500);
  const Table input = w->r->ToTable();

  const BatchChainFactory chain =
      [](vec::BatchOperatorPtr source) -> StatusOr<vec::BatchOperatorPtr> {
    // keep rows with key < 60 (roughly a third of the key space)
    return vec::BatchOperatorPtr(std::make_unique<vec::BatchFilter>(
        std::move(source),
        vec::VCompare(CompareOp::kLt, /*promote_numeric=*/false,
                      vec::VOperand::Column(0),
                      vec::VOperand::Literal(Datum(static_cast<int64_t>(60))))));
  };

  StatusOr<vec::BatchOperatorPtr> serial_op =
      chain(std::make_unique<vec::TableBatchScan>(&input));
  ASSERT_TRUE(serial_op.ok());
  const Table serial = vec::MaterializeBatches(serial_op->get());

  ExecContext ctx = MakeParallelContext(&pool_);
  const std::vector<Morsel> morsels =
      MakeMorsels(input.rows.size(), ctx.options().morsel_size);
  ASSERT_GE(morsels.size(), 2u);
  StatusOr<Table> parallel = ParallelBatchPipeline(
      &ctx, morsels.size(),
      [&](size_t i) -> StatusOr<vec::BatchOperatorPtr> {
        return vec::BatchOperatorPtr(std::make_unique<vec::TableBatchScan>(
            &input, morsels[i].begin, morsels[i].end));
      },
      chain);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial.rows.size(), parallel->rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i)
    EXPECT_EQ(CompareRows(serial.rows[i], parallel->rows[i]), 0)
        << "row " << i << " differs — ordered merge must be byte-identical";
}

TEST_F(ParallelExecTest, PipelinePropagatesFactoryErrors) {
  const std::unique_ptr<Workload> w = MakeWorkload(5, 1000);
  const Table input = w->r->ToTable();
  ExecContext ctx = MakeParallelContext(&pool_);
  StatusOr<Table> result = ParallelBatchPipeline(
      &ctx, 4,
      [&](size_t) -> StatusOr<vec::BatchOperatorPtr> {
        return vec::BatchOperatorPtr(
            std::make_unique<vec::TableBatchScan>(&input));
      },
      [](vec::BatchOperatorPtr) -> StatusOr<vec::BatchOperatorPtr> {
        return Status::InvalidArgument("factory failure");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "factory failure");
}

TEST_F(ParallelExecTest, RepeatedRunsAreDeterministic) {
  const std::unique_ptr<Workload> w = MakeWorkload(23, 900);
  ExecContext ctx1 = MakeParallelContext(&pool_);
  ExecContext ctx2 = MakeParallelContext(&pool_);
  StatusOr<TPRelation> a =
      ParallelTPSetOp(&ctx1, TPSetOpKind::kUnion, *w->r, *w->s);
  StatusOr<TPRelation> b =
      ParallelTPSetOp(&ctx2, TPSetOpKind::kUnion, *w->r, *w->s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same parallelism level → same partition routing → same tuple order,
  // regardless of thread interleaving.
  ExpectSameContents(*a, *b, /*sorted=*/false);
}

}  // namespace
}  // namespace tpdb
