#include "lineage/lineage.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace tpdb {

namespace {

/// Probability-memo value of a node whose probability is not known.
constexpr double kUnknownProb = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kInitialIndexSlots = 1024;

/// Hash of a node's key (kind, a, b), spread over all 64 bits so the
/// hash-cons index can mask off its low bits (splitmix64 finalizer).
uint64_t NodeHash(LineageKind kind, uint32_t a, uint32_t b) {
  uint64_t z = (uint64_t{a} << 32 | b) ^
               (static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

LineageManager::LineageManager()
    : intern_(kInitialIndexSlots, LineageRef::kNullId) {
  true_ = Intern(Node{LineageKind::kTrue, 0, 0});
  false_ = Intern(Node{LineageKind::kFalse, 0, 0});
}

LineageManager::~LineageManager() {
  const size_t n = num_nodes_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i)
    delete var_sets_[i].load(std::memory_order_acquire);
}

VarId LineageManager::RegisterVariable(double prob, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  TPDB_CHECK(prob >= 0.0 && prob <= 1.0) << "probability out of range: " << prob;
  const VarId id =
      static_cast<VarId>(num_vars_.load(std::memory_order_relaxed));
  var_probs_.Slot(id).store(prob, std::memory_order_relaxed);
  if (name.empty()) name = "x" + std::to_string(id);
  TPDB_CHECK(var_by_name_.emplace(name, id).second)
      << "duplicate variable name: " << name;
  var_names_.push_back(std::move(name));
  // Publish after the slot write so lock-free readers that observe the new
  // count also observe the probability.
  num_vars_.store(id + 1, std::memory_order_release);
  return id;
}

double LineageManager::VariableProbability(VarId v) const {
  TPDB_CHECK_LT(v, num_vars_.load(std::memory_order_acquire));
  return var_probs_[v].load(std::memory_order_acquire);
}

void LineageManager::SetVariableProbability(VarId v, double prob) {
  TPDB_CHECK_LT(v, num_vars_.load(std::memory_order_acquire));
  TPDB_CHECK(prob >= 0.0 && prob <= 1.0) << "probability out of range: " << prob;
  var_probs_[v].store(prob, std::memory_order_release);
  // Bump the epoch *before* clearing the memo: an evaluation that started
  // under the old epoch either sees the bump when StoreProbability re-reads
  // the epoch after its CAS (and takes the value back), or its CAS came
  // first and the reset below wipes it. Sequentially consistent on both
  // sides, so the two cannot both miss each other.
  prob_epoch_.fetch_add(1, std::memory_order_seq_cst);
  const size_t n = num_nodes_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i)
    probs_[i].store(kUnknownProb, std::memory_order_seq_cst);
}

const std::string& LineageManager::VariableName(VarId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  TPDB_CHECK_LT(v, var_names_.size());
  return var_names_[v];
}

StatusOr<VarId> LineageManager::FindVariable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = var_by_name_.find(name);
  if (it == var_by_name_.end())
    return Status::NotFound("no variable named " + name);
  return it->second;
}

LineageRef LineageManager::Intern(Node n) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t mask = intern_.size() - 1;
  size_t slot = NodeHash(n.kind, n.a, n.b) & mask;
  for (uint32_t id; (id = intern_[slot]) != LineageRef::kNullId;
       slot = (slot + 1) & mask) {
    const Node& c = nodes_[id];
    if (c.kind == n.kind && c.a == n.a && c.b == n.b) return LineageRef{id};
  }
  const uint32_t id =
      static_cast<uint32_t>(num_nodes_.load(std::memory_order_relaxed));
  TPDB_CHECK_LT(id, LineageRef::kNullId) << "lineage arena exhausted";
  nodes_.Slot(id) = n;
  // Force the matching var_sets_ and probs_ chunks into existence while we
  // hold the writer lock, so Variables() and the memo can read their slots
  // without one.
  var_sets_.Slot(id).store(nullptr, std::memory_order_relaxed);
  probs_.Slot(id).store(kUnknownProb, std::memory_order_relaxed);
  intern_[slot] = id;
  num_nodes_.store(id + 1, std::memory_order_release);
  if (2 * (size_t{id} + 1) > intern_.size()) GrowIndex();
  return LineageRef{id};
}

void LineageManager::GrowIndex() {
  std::vector<uint32_t> grown(2 * intern_.size(), LineageRef::kNullId);
  const size_t mask = grown.size() - 1;
  const size_t n = num_nodes_.load(std::memory_order_relaxed);
  for (uint32_t id = 0; id < n; ++id) {
    const Node& entry = nodes_[id];
    size_t slot = NodeHash(entry.kind, entry.a, entry.b) & mask;
    while (grown[slot] != LineageRef::kNullId) slot = (slot + 1) & mask;
    grown[slot] = id;
  }
  intern_ = std::move(grown);
}

LineageRef LineageManager::Var(VarId v) {
  TPDB_CHECK_LT(v, num_vars_.load(std::memory_order_acquire))
      << "unregistered variable";
  return Intern(Node{LineageKind::kVar, v, 0});
}

LineageRef LineageManager::Not(LineageRef a) {
  switch (KindOf(a)) {
    case LineageKind::kTrue:
      return false_;
    case LineageKind::kFalse:
      return true_;
    case LineageKind::kNot:
      return LineageRef{node(a).a};  // double negation
    default:
      return Intern(Node{LineageKind::kNot, a.id, 0});
  }
}

LineageRef LineageManager::And(LineageRef a, LineageRef b) {
  if (KindOf(a) == LineageKind::kFalse || KindOf(b) == LineageKind::kFalse)
    return false_;
  if (KindOf(a) == LineageKind::kTrue) return b;
  if (KindOf(b) == LineageKind::kTrue) return a;
  if (a == b) return a;
  if (b < a) std::swap(a, b);
  return Intern(Node{LineageKind::kAnd, a.id, b.id});
}

LineageRef LineageManager::Or(LineageRef a, LineageRef b) {
  if (KindOf(a) == LineageKind::kTrue || KindOf(b) == LineageKind::kTrue)
    return true_;
  if (KindOf(a) == LineageKind::kFalse) return b;
  if (KindOf(b) == LineageKind::kFalse) return a;
  if (a == b) return a;
  if (b < a) std::swap(a, b);
  return Intern(Node{LineageKind::kOr, a.id, b.id});
}

LineageRef LineageManager::AndAll(std::span<const LineageRef> operands) {
  std::vector<LineageRef> ops(operands.begin(), operands.end());
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  // Right fold over the sorted operands: deterministic (canonical identity
  // for equal operand sets) and renders in operand order, since each
  // composite node receives the largest id and stays on the right.
  LineageRef acc = true_;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) acc = And(*it, acc);
  return acc;
}

LineageRef LineageManager::OrAll(std::span<const LineageRef> operands) {
  std::vector<LineageRef> ops(operands.begin(), operands.end());
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  LineageRef acc = false_;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) acc = Or(*it, acc);
  return acc;
}

LineageRef LineageManager::Left(LineageRef r) const {
  const Node& n = node(r);
  TPDB_CHECK(n.kind == LineageKind::kNot || n.kind == LineageKind::kAnd ||
             n.kind == LineageKind::kOr);
  return LineageRef{n.a};
}

LineageRef LineageManager::Right(LineageRef r) const {
  const Node& n = node(r);
  TPDB_CHECK(n.kind == LineageKind::kAnd || n.kind == LineageKind::kOr);
  return LineageRef{n.b};
}

VarId LineageManager::VarOf(LineageRef r) const {
  const Node& n = node(r);
  TPDB_CHECK(n.kind == LineageKind::kVar);
  return n.a;
}

const std::vector<VarId>& LineageManager::Variables(LineageRef r) {
  const Node& n = node(r);  // bounds-checks r before the slot access
  std::atomic<const std::vector<VarId>*>& slot = var_sets_[r.id];
  if (const std::vector<VarId>* hit = slot.load(std::memory_order_acquire))
    return *hit;
  auto fresh = std::make_unique<std::vector<VarId>>();
  switch (n.kind) {
    case LineageKind::kTrue:
    case LineageKind::kFalse:
      break;  // empty
    case LineageKind::kVar:
      fresh->push_back(n.a);
      break;
    case LineageKind::kNot:
      *fresh = Variables(LineageRef{n.a});
      break;
    case LineageKind::kAnd:
    case LineageKind::kOr: {
      const std::vector<VarId>& va = Variables(LineageRef{n.a});
      const std::vector<VarId>& vb = Variables(LineageRef{n.b});
      fresh->resize(va.size() + vb.size());
      auto end = std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                                fresh->begin());
      fresh->erase(end, fresh->end());
      break;
    }
  }
  const std::vector<VarId>* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  // Another thread published the same set first; ours is redundant.
  return *expected;
}

bool LineageManager::Evaluate(LineageRef r,
                              const std::vector<bool>& assignment) const {
  const Node& n = node(r);
  switch (n.kind) {
    case LineageKind::kTrue:
      return true;
    case LineageKind::kFalse:
      return false;
    case LineageKind::kVar:
      TPDB_CHECK_LT(n.a, assignment.size());
      return assignment[n.a];
    case LineageKind::kNot:
      return !Evaluate(LineageRef{n.a}, assignment);
    case LineageKind::kAnd:
      return Evaluate(LineageRef{n.a}, assignment) &&
             Evaluate(LineageRef{n.b}, assignment);
    case LineageKind::kOr:
      return Evaluate(LineageRef{n.a}, assignment) ||
             Evaluate(LineageRef{n.b}, assignment);
  }
  return false;
}

LineageRef LineageManager::Restrict(LineageRef r, VarId v, bool value) {
  std::unordered_map<uint32_t, LineageRef> memo;
  return RestrictRec(r, v, value, &memo);
}

LineageRef LineageManager::RestrictRec(
    LineageRef r, VarId v, bool value,
    std::unordered_map<uint32_t, LineageRef>* memo) {
  auto it = memo->find(r.id);
  if (it != memo->end()) return it->second;
  const Node& n = node(r);
  LineageRef result = r;
  switch (n.kind) {
    case LineageKind::kTrue:
    case LineageKind::kFalse:
      break;
    case LineageKind::kVar:
      if (n.a == v) result = value ? true_ : false_;
      break;
    case LineageKind::kNot:
      result = Not(RestrictRec(LineageRef{n.a}, v, value, memo));
      break;
    case LineageKind::kAnd:
      result = And(RestrictRec(LineageRef{n.a}, v, value, memo),
                   RestrictRec(LineageRef{n.b}, v, value, memo));
      break;
    case LineageKind::kOr:
      result = Or(RestrictRec(LineageRef{n.a}, v, value, memo),
                  RestrictRec(LineageRef{n.b}, v, value, memo));
      break;
  }
  memo->emplace(r.id, result);
  return result;
}

bool LineageManager::LookupProbability(LineageRef r, double* out) const {
  TPDB_CHECK_LT(r.id, num_nodes_.load(std::memory_order_acquire));
  const double p = probs_[r.id].load(std::memory_order_acquire);
  if (std::isnan(p)) return false;
  *out = p;
  return true;
}

bool LineageManager::StoreProbability(LineageRef r, double p,
                                      uint64_t epoch) {
  TPDB_CHECK_LT(r.id, num_nodes_.load(std::memory_order_acquire));
  // A concurrent SetVariableProbability invalidated this computation: its
  // result may mix old and new marginals, so it must not enter the memo.
  if (epoch != prob_epoch_.load(std::memory_order_acquire)) return false;
  std::atomic<double>& slot = probs_[r.id];
  double expected = kUnknownProb;
  if (!slot.compare_exchange_strong(expected, p, std::memory_order_seq_cst))
    return false;
  if (epoch == prob_epoch_.load(std::memory_order_seq_cst)) return true;
  // The epoch moved between the check and the CAS, possibly after the
  // reset already passed this slot: take the value back unless someone
  // replaced it meanwhile.
  expected = p;
  slot.compare_exchange_strong(expected, kUnknownProb,
                               std::memory_order_seq_cst);
  return false;
}

void LineageManager::EraseProbabilities(std::span<const uint32_t> ids) {
  for (const uint32_t id : ids)
    probs_[id].store(kUnknownProb, std::memory_order_release);
}

bool LineageManager::Equivalent(LineageRef a, LineageRef b) {
  if (a == b) return true;
  const std::vector<VarId>& va = Variables(a);
  const std::vector<VarId>& vb = Variables(b);
  std::vector<VarId> vars(va.size() + vb.size());
  auto end =
      std::set_union(va.begin(), va.end(), vb.begin(), vb.end(), vars.begin());
  vars.erase(end, vars.end());
  TPDB_CHECK_LE(vars.size(), 24u) << "Equivalent: too many variables";
  std::vector<bool> assignment(num_variables(), false);
  const uint64_t limit = 1ull << vars.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    for (size_t i = 0; i < vars.size(); ++i)
      assignment[vars[i]] = (mask >> i) & 1;
    if (Evaluate(a, assignment) != Evaluate(b, assignment)) return false;
  }
  return true;
}

}  // namespace tpdb
