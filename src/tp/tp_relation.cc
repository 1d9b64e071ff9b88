#include "tp/tp_relation.h"

#include <algorithm>
#include <map>

#include "lineage/print.h"
#include "lineage/probability.h"
#include "temporal/timeline.h"

namespace tpdb {

TPRelation::TPRelation(std::string name, Schema fact_schema,
                       LineageManager* manager)
    : name_(std::move(name)),
      fact_schema_(std::move(fact_schema)),
      manager_(manager) {
  TPDB_CHECK(manager_ != nullptr);
}

Status TPRelation::AppendBase(Row fact, Interval interval, double prob,
                              std::string var_name) {
  if (prob < 0.0 || prob > 1.0)
    return Status::InvalidArgument("probability out of [0,1]: " +
                                   std::to_string(prob));
  if (interval.empty())
    return Status::InvalidArgument("empty interval " + interval.ToString());
  const VarId var = manager_->RegisterVariable(prob, std::move(var_name));
  return AppendDerived(std::move(fact), interval, manager_->Var(var));
}

Status TPRelation::AppendDerived(Row fact, Interval interval,
                                 LineageRef lineage) {
  if (fact.size() != fact_schema_.num_columns())
    return Status::InvalidArgument(
        name_ + ": fact arity " + std::to_string(fact.size()) +
        " does not match schema arity " +
        std::to_string(fact_schema_.num_columns()));
  if (interval.empty())
    return Status::InvalidArgument("empty interval " + interval.ToString());
  if (lineage.is_null())
    return Status::InvalidArgument("null lineage in " + name_);
  if (!tuples_.empty() && interval.start < tuples_.back().interval.start)
    sorted_by_ts_ = false;
  tuples_.push_back(TPTuple{std::move(fact), lineage, interval});
  cold_storage_.reset();  // the columnar backing no longer matches
  return Status::OK();
}

Status TPRelation::ReplaceContents(
    std::vector<TPTuple> tuples,
    std::shared_ptr<const storage::SegmentedTable> cold) {
  for (const TPTuple& t : tuples) {
    if (t.fact.size() != fact_schema_.num_columns())
      return Status::InvalidArgument(
          name_ + ": fact arity " + std::to_string(t.fact.size()) +
          " does not match schema arity " +
          std::to_string(fact_schema_.num_columns()));
    if (t.lineage.is_null())
      return Status::InvalidArgument("null lineage in " + name_);
  }
  sorted_by_ts_ = true;
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (tuples[i].interval.start < tuples[i - 1].interval.start) {
      sorted_by_ts_ = false;
      break;
    }
  }
  tuples_ = std::move(tuples);
  cold_storage_ = std::move(cold);
  return Status::OK();
}

Status TPRelation::Absorb(TPRelation&& other) {
  if (other.manager_ != manager_)
    return Status::InvalidArgument(
        "Absorb: '" + other.name_ + "' is bound to a different "
        "LineageManager than '" + name_ + "'");
  if (other.fact_schema_.num_columns() != fact_schema_.num_columns())
    return Status::InvalidArgument(
        "Absorb: fact arity mismatch between '" + name_ + "' and '" +
        other.name_ + "'");
  sorted_by_ts_ =
      sorted_by_ts_ && other.sorted_by_ts_ &&
      (tuples_.empty() || other.tuples_.empty() ||
       tuples_.back().interval.start <= other.tuples_.front().interval.start);
  if (tuples_.empty()) {
    tuples_ = std::move(other.tuples_);
  } else {
    tuples_.reserve(tuples_.size() + other.tuples_.size());
    for (TPTuple& t : other.tuples_) tuples_.push_back(std::move(t));
  }
  other.tuples_.clear();
  other.sorted_by_ts_ = true;  // vacuously, now that it is empty
  cold_storage_.reset();
  other.cold_storage_.reset();
  return Status::OK();
}

Status TPRelation::Validate() const {
  // Group tuple intervals by fact and check pairwise disjointness.
  std::map<Row, std::vector<Interval>, bool (*)(const Row&, const Row&)>
      by_fact(+[](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  for (size_t i = 0; i < tuples_.size(); ++i) {
    const TPTuple& t = tuples_[i];
    if (t.fact.size() != fact_schema_.num_columns())
      return Status::Internal(name_ + ": tuple " + std::to_string(i) +
                              " has wrong arity");
    if (t.interval.empty())
      return Status::Internal(name_ + ": tuple " + std::to_string(i) +
                              " has empty interval");
    if (t.lineage.is_null())
      return Status::Internal(name_ + ": tuple " + std::to_string(i) +
                              " has null lineage");
    by_fact[t.fact].push_back(t.interval);
  }
  for (auto& [fact, intervals] : by_fact) {
    if (!PairwiseDisjoint(intervals))
      return Status::InvalidArgument(
          name_ + ": overlapping intervals for fact (" + RowToString(fact) +
          ") — TP relations must be duplicate-free at each time point");
  }
  return Status::OK();
}

double TPRelation::Probability(size_t i) const {
  TPDB_CHECK_LT(i, tuples_.size());
  ProbabilityEngine engine(manager_);
  return engine.Probability(tuples_[i].lineage);
}

Table TPRelation::ToTable() const {
  Table out;
  Schema schema = fact_schema_;
  schema.AddColumn({kTsColumn, DatumType::kInt64});
  schema.AddColumn({kTeColumn, DatumType::kInt64});
  schema.AddColumn({kLineageColumn, DatumType::kLineage});
  out.schema = std::move(schema);
  out.rows.reserve(tuples_.size());
  for (const TPTuple& t : tuples_) {
    Row row;
    row.reserve(t.fact.size() + 3);
    row.assign(t.fact.begin(), t.fact.end());
    row.push_back(Datum(t.interval.start));
    row.push_back(Datum(t.interval.end));
    row.push_back(Datum(t.lineage));
    out.rows.push_back(std::move(row));
  }
  return out;
}

StatusOr<TPRelation> TPRelation::FromTable(std::string name,
                                           const Table& table,
                                           LineageManager* manager) {
  const Schema& schema = table.schema;
  const int ts = schema.IndexOf(kTsColumn);
  const int te = schema.IndexOf(kTeColumn);
  const int lin = schema.IndexOf(kLineageColumn);
  if (ts < 0 || te < 0 || lin < 0)
    return Status::InvalidArgument(
        "table lacks the reserved _ts/_te/_lin columns");
  std::vector<Column> fact_cols;
  std::vector<int> fact_idx;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (static_cast<int>(i) == ts || static_cast<int>(i) == te ||
        static_cast<int>(i) == lin)
      continue;
    fact_cols.push_back(schema.column(i));
    fact_idx.push_back(static_cast<int>(i));
  }
  TPRelation rel(std::move(name), Schema(std::move(fact_cols)), manager);
  for (const Row& row : table.rows) {
    Row fact;
    fact.reserve(fact_idx.size());
    for (const int i : fact_idx) fact.push_back(row[i]);
    TPDB_RETURN_IF_ERROR(rel.AppendDerived(
        std::move(fact), Interval(row[ts].AsInt64(), row[te].AsInt64()),
        row[lin].AsLineage()));
  }
  return rel;
}

std::string TPRelation::ToString() const {
  ProbabilityEngine engine(manager_);
  std::string out = name_ + " (" + fact_schema_.ToString() + ", λ, T, p)\n";
  for (const TPTuple& t : tuples_) {
    out += "  (";
    out += RowToString(t.fact);
    out += " | ";
    out += LineageToString(*manager_, t.lineage);
    out += " | ";
    out += t.interval.ToString();
    char buf[32];
    std::snprintf(buf, sizeof(buf), " | %.4g)", engine.Probability(t.lineage));
    out += buf;
    out += "\n";
  }
  return out;
}

}  // namespace tpdb
