// Lineage subsystem: propositional formulas over independent Boolean
// base-tuple variables, stored as a hash-consed DAG in an arena.
//
// Every tuple of a TP relation carries a lineage λ; TP joins with negation
// combine lineages with ∧, ∨ and ¬ (the paper's and / andNot concatenation
// functions). Hash-consing gives syntactic-equality-by-id, which the window
// algorithms and duplicate elimination rely on: disjunctions are built over
// sorted operand lists, so the same set of matching tuples always yields the
// same LineageRef.
#ifndef TPDB_LINEAGE_LINEAGE_H_
#define TPDB_LINEAGE_LINEAGE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/datum.h"
#include "common/status.h"

namespace tpdb {

/// Identifier of a Boolean base-tuple variable.
using VarId = uint32_t;

/// Node kinds of the lineage DAG.
enum class LineageKind : uint8_t { kTrue, kFalse, kVar, kNot, kAnd, kOr };

namespace lineage_detail {

/// Append-only chunked slot array with lock-free indexed reads. Chunk c
/// holds 2^(kBaseBits+c) slots (geometric growth), so kMaxChunks chunks
/// cover the full 32-bit id space without ever moving a slot — unlike a
/// vector, published entries stay at a stable address forever, which is
/// what lets readers index without a lock. Writers are serialized by the
/// owner's mutex; readers must have learned the index through an acquire
/// load of the owner's size counter (whose release store happens after the
/// slot write).
template <typename T>
class ChunkedSlots {
 public:
  static constexpr size_t kBaseBits = 10;
  static constexpr size_t kMaxChunks = 33 - kBaseBits;

  ChunkedSlots() = default;
  ChunkedSlots(const ChunkedSlots&) = delete;
  ChunkedSlots& operator=(const ChunkedSlots&) = delete;
  ~ChunkedSlots() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
  }

  /// Slot `i`, allocating its chunk if needed (writer side; the caller
  /// serializes writers). The chunk pointer is published with release so a
  /// reader racing on a *different*, already-published slot of the same
  /// fresh chunk still sees the allocation.
  T& Slot(size_t i) {
    const size_t n = i + (size_t{1} << kBaseBits);
    const int k = std::bit_width(n) - 1;
    auto& cell = chunks_[static_cast<size_t>(k) - kBaseBits];
    T* chunk = cell.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new T[size_t{1} << k]();
      cell.store(chunk, std::memory_order_release);
    }
    return chunk[n - (size_t{1} << k)];
  }

  /// Reader-side access: `i` must be below a size the caller read with
  /// acquire ordering.
  T& operator[](size_t i) const {
    const size_t n = i + (size_t{1} << kBaseBits);
    const int k = std::bit_width(n) - 1;
    return chunks_[static_cast<size_t>(k) - kBaseBits].load(
        std::memory_order_acquire)[n - (size_t{1} << k)];
  }

 private:
  std::array<std::atomic<T*>, kMaxChunks> chunks_{};
};

}  // namespace lineage_detail

/// Owns all lineage nodes and base variables of a database instance.
///
/// Construction methods apply local simplifications (identity/annihilator
/// elements, double negation, idempotence on syntactically equal children)
/// and order commutative children canonically, then hash-cons, so
/// structurally equal formulas receive equal ids.
///
/// Thread-safe, with a read-mostly split so parallel sweep emission and
/// parallel probability evaluation scale instead of serializing on one lock:
///
///   - Node *reads* (KindOf / Left / Right / VarOf / Evaluate / Variables
///     once memoized) are lock-free: nodes live in an append-only chunked
///     arena published through an atomic size counter, so a published node
///     is immutable at a stable address.
///   - Node *interning* and variable registration take the intern mutex,
///     held once per construction call. The hash-cons index is a flat
///     open-addressing table of node ids (linear probing, doubled at load
///     1/2 by re-inserting ids from the arena), so interning allocates
///     nothing per node and no node ever moves.
///   - Variable marginals are atomic slots (lock-free reads; writes only
///     from SetVariableProbability).
///   - The probability memo is a dense array of atomic doubles indexed by
///     node id, NaN meaning "not known": a lookup is one load and a store
///     one compare-and-swap, and neither contends with interning.
///
/// Note that concurrent interning makes node *ids* depend on thread
/// interleaving; formulas stay structurally canonical either way, so
/// probabilities and equivalence are unaffected.
class LineageManager {
 public:
  LineageManager();
  ~LineageManager();

  // Not copyable (LineageRefs are tied to one arena).
  LineageManager(const LineageManager&) = delete;
  LineageManager& operator=(const LineageManager&) = delete;

  /// Registers a fresh independent variable with marginal probability `prob`
  /// and an optional display name (e.g. "a1"). Returns its id.
  VarId RegisterVariable(double prob, std::string name = "");

  /// Number of registered variables.
  size_t num_variables() const {
    return num_vars_.load(std::memory_order_acquire);
  }

  /// Marginal probability of variable `v` (lock-free).
  double VariableProbability(VarId v) const;

  /// Updates the marginal probability of variable `v` (invalidates cached
  /// node probabilities).
  void SetVariableProbability(VarId v, double prob);

  /// Display name of variable `v` ("x<i>" if none was given).
  const std::string& VariableName(VarId v) const;

  /// Looks up a variable by display name.
  StatusOr<VarId> FindVariable(const std::string& name) const;

  // -- Formula construction --------------------------------------------

  LineageRef True() const { return true_; }
  LineageRef False() const { return false_; }
  LineageRef Var(VarId v);
  LineageRef Not(LineageRef a);
  LineageRef And(LineageRef a, LineageRef b);
  LineageRef Or(LineageRef a, LineageRef b);

  /// Conjunction of all operands (sorted canonically). Empty span -> True.
  LineageRef AndAll(std::span<const LineageRef> operands);
  /// Disjunction of all operands (sorted canonically). Empty span -> False.
  LineageRef OrAll(std::span<const LineageRef> operands);

  /// The paper's andNot concatenation: λr ∧ ¬λs.
  LineageRef AndNot(LineageRef r, LineageRef s) { return And(r, Not(s)); }

  // -- Inspection (lock-free) -------------------------------------------

  LineageKind KindOf(LineageRef r) const { return node(r).kind; }
  /// Children of a binary node / child of a NOT node.
  LineageRef Left(LineageRef r) const;
  LineageRef Right(LineageRef r) const;
  /// Variable id of a kVar node.
  VarId VarOf(LineageRef r) const;

  /// Number of distinct nodes allocated (hash-consing statistic).
  size_t num_nodes() const {
    return num_nodes_.load(std::memory_order_acquire);
  }

  /// Sorted distinct variables occurring in the formula. Memoized per node
  /// behind an atomic pointer: lock-free on every hit, and a lost
  /// publication race just discards the duplicate.
  const std::vector<VarId>& Variables(LineageRef r);

  /// Evaluates the formula under a total assignment (indexed by VarId).
  bool Evaluate(LineageRef r, const std::vector<bool>& assignment) const;

  /// Substitutes variable `v` by the constant `value` and simplifies.
  LineageRef Restrict(LineageRef r, VarId v, bool value);

  /// Truth-table equivalence over the union of the variable sets.
  /// Intended for tests/assertions; aborts if more than 24 variables.
  bool Equivalent(LineageRef a, LineageRef b);

  /// Monotone counter bumped by every SetVariableProbability call.
  /// Consumers that cache derived probabilities (the memo below, snapshot
  /// zone maps) snapshot this and treat a mismatch as "stale".
  uint64_t probability_epoch() const {
    return prob_epoch_.load(std::memory_order_acquire);
  }

 private:
  friend class ProbabilityEngine;
  /// Reaches the probability memo from the lineage tests.
  friend class LineageManagerTestPeer;

  struct Node {
    LineageKind kind;
    uint32_t a;  // child or VarId
    uint32_t b;  // second child (kAnd/kOr only)
  };

  /// Probability-memo access for ProbabilityEngine. Lookups are one
  /// acquire load of the node's slot; stores CAS the slot from NaN, so the
  /// first value stored for a node wins. Stores are epoch-guarded: a
  /// computation that started before a SetVariableProbability ran must not
  /// repopulate the freshly cleared memo with its stale result, so the
  /// engine snapshots probability_epoch() up front and StoreProbability
  /// drops the value if the epoch moved on, before or right after its CAS.
  /// StoreProbability returns whether it inserted the value, so an engine
  /// can take back exactly its own entries with EraseProbabilities. (An
  /// evaluation that starts while SetVariableProbability is still
  /// resetting can read a slot the reset has not reached yet; marginals
  /// are not meant to change under running queries.)
  bool LookupProbability(LineageRef r, double* out) const;
  bool StoreProbability(LineageRef r, double p, uint64_t epoch);
  void EraseProbabilities(std::span<const uint32_t> ids);

  LineageRef Intern(Node n);
  const Node& node(LineageRef r) const {
    TPDB_CHECK(!r.is_null()) << "null lineage dereferenced";
    TPDB_CHECK_LT(r.id, num_nodes_.load(std::memory_order_acquire));
    return nodes_[r.id];
  }
  LineageRef RestrictRec(LineageRef r, VarId v, bool value,
                         std::unordered_map<uint32_t, LineageRef>* memo);
  /// Doubles the hash-cons index (caller holds mu_).
  void GrowIndex();

  /// Guards interning (intern_ + arena growth) and variable registration
  /// (var_names_, var_by_name_). Plain mutex: public methods lock it at
  /// most once and all reads below it are lock-free.
  mutable std::mutex mu_;

  lineage_detail::ChunkedSlots<Node> nodes_;
  /// Published node count; release-stored after the slot write in Intern.
  std::atomic<size_t> num_nodes_{0};
  /// Hash-cons index: power-of-two table of node ids, LineageRef::kNullId
  /// marking a free slot, at most half full.
  std::vector<uint32_t> intern_;

  lineage_detail::ChunkedSlots<std::atomic<double>> var_probs_;
  std::atomic<size_t> num_vars_{0};
  // Deque: VariableName() hands out references that must survive
  // concurrent RegisterVariable calls.
  std::deque<std::string> var_names_;
  std::unordered_map<std::string, VarId> var_by_name_;

  /// Memoized sorted variable set per node id, published via CAS. A filled
  /// entry is immutable; losers of the publication race delete their copy.
  lineage_detail::ChunkedSlots<std::atomic<const std::vector<VarId>*>>
      var_sets_;

  /// Probability memo by node id, NaN when unknown (see LookupProbability
  /// above). Intern creates each slot as NaN before publishing the node.
  lineage_detail::ChunkedSlots<std::atomic<double>> probs_;
  /// Bumped by SetVariableProbability; guards stale memo stores.
  std::atomic<uint64_t> prob_epoch_{0};

  LineageRef true_;
  LineageRef false_;
};

}  // namespace tpdb

#endif  // TPDB_LINEAGE_LINEAGE_H_
