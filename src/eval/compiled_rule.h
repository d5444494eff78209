// CompiledRule: a Datalog rule lowered to an executable join plan.
//
// Compilation fixes a literal order (greedy bound-first: filters and
// binders are placed as soon as their inputs are bound; positive atoms are
// chosen to maximize bound columns), assigns every variable a dense slot,
// and lowers each literal to a Step:
//
//   * kScanProbe — positive atom: probe a hash index on the bound columns
//     (or scan when none are bound), binding output columns to slots;
//   * kNegCheck — negated atom: anti-join on the bound columns;
//   * kCompare  — builtin comparison with both sides bound;
//   * kEqBind   — equality that binds one previously-unbound variable;
//   * kAssign   — arithmetic assignment (binds or checks its target).
//
// Execution enumerates all satisfying slot vectors and hands each to a
// sink. Relations are looked up through a RelationResolver so the
// semi-naive engine can substitute a delta relation for one designated
// occurrence of a recursive subgoal.

#ifndef GRAPHLOG_EVAL_COMPILED_RULE_H_
#define GRAPHLOG_EVAL_COMPILED_RULE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/symbol_table.h"
#include "datalog/ast.h"
#include "storage/relation.h"

namespace graphlog::storage {
class Database;  // storage/database.h
}

namespace graphlog::eval {

/// \brief Where an argument value comes from at runtime.
struct ArgSource {
  enum class Kind : uint8_t { kConst, kSlot };
  Kind kind = Kind::kConst;
  Value constant;
  uint32_t slot = 0;

  static ArgSource Const(Value v) {
    ArgSource a;
    a.kind = Kind::kConst;
    a.constant = v;
    return a;
  }
  static ArgSource Slot(uint32_t s) {
    ArgSource a;
    a.kind = Kind::kSlot;
    a.slot = s;
    return a;
  }

  const Value& Get(const std::vector<Value>& slots) const {
    return kind == Kind::kConst ? constant : slots[slot];
  }
};

/// \brief Arithmetic expression with variables resolved to slots.
struct CompiledArith {
  bool is_leaf = true;
  ArgSource leaf;
  datalog::ArithOp op = datalog::ArithOp::kAdd;
  std::vector<CompiledArith> children;  // 2 when !is_leaf

  /// \brief Evaluates; false means the builtin fails (type error, div 0).
  bool Eval(const std::vector<Value>& slots, Value* out) const;
};

/// \brief One step of the lowered plan.
struct Step {
  enum class Kind : uint8_t {
    kScanProbe,
    kNegCheck,
    kCompare,
    kEqBind,
    kAssign,
  };
  Kind kind = Kind::kScanProbe;

  // kScanProbe / kNegCheck:
  Symbol pred = kNoSymbol;
  int occurrence = -1;  ///< occurrence id of this body atom (-1: negated)
  std::vector<uint32_t> probe_cols;       // strictly increasing
  std::vector<ArgSource> probe_sources;   // parallel to probe_cols
  std::vector<std::pair<uint32_t, uint32_t>> out_cols;  // (col, slot)
  std::vector<std::pair<uint32_t, uint32_t>> eq_cols;   // row[a] == row[b]

  // kCompare:
  datalog::CmpOp cmp = datalog::CmpOp::kEq;
  ArgSource lhs, rhs;

  // kEqBind:
  ArgSource bind_source;
  uint32_t bind_slot = 0;

  // kAssign:
  CompiledArith arith;
  bool target_bound = false;  ///< true: compare result to slot; else bind
  uint32_t target_slot = 0;
};

/// \brief A head argument after compilation.
struct CompiledHeadArg {
  bool is_aggregate = false;
  ArgSource source;                        // plain, or aggregate input
  bool has_input = false;                  // false for count<*>
  datalog::AggKind agg = datalog::AggKind::kCount;
};

/// \brief Resolves the relation a step should read.
///
/// `occurrence` is the body-order index of the positive relational atom,
/// or -1 for negated atoms (which always read the full relation).
/// Returning nullptr means "empty relation".
using RelationResolver =
    std::function<const storage::Relation*(Symbol pred, int occurrence)>;

/// \brief Receives each satisfying assignment (the full slot vector).
using BindingSink = std::function<void(const std::vector<Value>& slots)>;

/// \brief Cardinality oracle used by the join-order heuristic and by
/// EXPLAIN: the estimated number of rows of `pred` matching a probe bound
/// on `bound_cols` (strictly increasing column positions; empty = a full
/// scan, i.e. the relation's size). 0 means unknown/empty.
using CardinalityFn =
    std::function<size_t(Symbol pred, const std::vector<uint32_t>& bound_cols)>;

/// \brief The standard Database-backed oracle: selectivity from the
/// incrementally-maintained column statistics (storage/relation_stats.h)
/// — estimated matches = rows / prod(distinct(bound col)) — with a fixed
/// 4x-per-bound-column discount as the fallback when stats are
/// unavailable. `db` must outlive the returned function.
CardinalityFn MakeDbCardinality(const storage::Database* db);

/// \brief Per-step execution counters for plan profiling (EXPLAIN
/// ANALYZE; obs/profile.h holds the aggregated form). A counters vector
/// is parallel to CompiledRule::steps().
///
/// Counting rules make the totals summed over an ExecutePartition fan-out
/// bit-identical to a serial Execute(): steps before the driver repeat
/// identically in every partition, so only partition 0 counts them; the
/// driver's probe is entered once per partition but issued once
/// logically, so only partition 0 counts its invocation while every
/// partition counts the rows of its own chunk; steps after the driver
/// enumerate disjoint work per partition and count everywhere.
struct StepCounter {
  uint64_t invocations = 0;  ///< times the step was entered
  uint64_t rows_out = 0;     ///< rows passed to the next step
};
using StepCounters = std::vector<StepCounter>;

/// \brief An executable rule plan.
class CompiledRule {
 public:
  /// \brief Lowers `rule`. Fails (kUnsafeRule) when no valid literal order
  /// exists, i.e. the rule is unsafe.
  ///
  /// When `cardinality` is provided, positive atoms are ordered by an
  /// estimated probe cost — |R| discounted by the number of bound columns
  /// — instead of bound-count alone, so a small relation is scanned
  /// before a large one is probed (classic greedy join ordering).
  static Result<CompiledRule> Compile(const datalog::Rule& rule,
                                      const SymbolTable& syms,
                                      const CardinalityFn& cardinality = {});

  /// \brief Runs the plan, invoking `sink` once per satisfying assignment.
  void Execute(const RelationResolver& resolver, const BindingSink& sink) const;

  /// \brief Runs one of `num_parts` contiguous partitions of the plan.
  ///
  /// The plan's *driver* step — the first positive scan/probe — splits its
  /// row range into `num_parts` contiguous chunks and enumerates only the
  /// `part`-th; all other steps run unchanged. Concatenating the sink
  /// sequences for part = 0..num_parts-1 therefore yields exactly the
  /// Execute() sequence, which is what lets the parallel engine merge
  /// per-partition derivation buffers back into the serial insertion
  /// order. Plans with no positive atom run entirely in partition 0.
  ///
  /// `counters` (nullable) collects per-step execution counts — see
  /// StepCounters for the partition-counting rules; must be pre-sized to
  /// steps().size(). Null is the zero-overhead path (one pointer test
  /// per step entry and per enumerated row).
  void ExecutePartition(const RelationResolver& resolver,
                        const BindingSink& sink, size_t part,
                        size_t num_parts,
                        StepCounters* counters = nullptr) const;

  /// \brief Builds the head tuple for a satisfying assignment; only valid
  /// when !has_aggregates().
  storage::Tuple EmitHead(const std::vector<Value>& slots) const;

  Symbol head_predicate() const { return head_predicate_; }
  size_t head_arity() const { return head_args_.size(); }
  bool has_aggregates() const { return has_aggregates_; }
  const std::vector<CompiledHeadArg>& head_args() const { return head_args_; }
  size_t num_slots() const { return num_slots_; }

  /// \brief Occurrence ids of positive body atoms whose predicate is `p`.
  std::vector<int> OccurrencesOf(Symbol p) const;

  /// \brief The positive body atoms instantiated under a satisfying
  /// assignment — the premises justifying the derived head tuple. Used by
  /// provenance tracking (eval/provenance.h).
  std::vector<std::pair<Symbol, storage::Tuple>> Premises(
      const std::vector<Value>& slots) const;

  /// \brief Number of positive relational atoms in the body.
  int num_occurrences() const { return num_occurrences_; }

  /// \brief The lowered plan; the engine walks it to pre-build every index
  /// the plan will probe before fanning execution across threads.
  const std::vector<Step>& steps() const { return steps_; }

  /// \brief The driver step (first positive scan/probe in plan order), or
  /// nullptr when the body has no positive atom.
  const Step* driver() const {
    return driver_step_ < 0 ? nullptr : &steps_[driver_step_];
  }

  /// \brief One-line description of the chosen join plan, in step order
  /// (scan/probe with probed columns, anti-joins, filters, binds). Used by
  /// EXPLAIN and by the per-stratum trace notes.
  std::string PlanToString(const SymbolTable& syms) const;

  /// \brief Rendering of a single plan step (the per-atom label the
  /// profile records), e.g. "probe edge(0) [driver]" or "filter <".
  std::string StepToString(size_t idx, const SymbolTable& syms) const;

 private:
  Symbol head_predicate_ = kNoSymbol;
  std::vector<CompiledHeadArg> head_args_;
  bool has_aggregates_ = false;
  std::vector<Step> steps_;
  size_t num_slots_ = 0;
  int num_occurrences_ = 0;
  int driver_step_ = -1;  ///< index into steps_, -1 when no positive atom
  std::vector<std::pair<Symbol, int>> occurrence_preds_;  // (pred, occ)
  // Positive body atoms as (pred, per-column sources), for Premises().
  std::vector<std::pair<Symbol, std::vector<ArgSource>>> premise_specs_;

  void ExecuteStep(size_t idx, std::vector<Value>* slots,
                   const RelationResolver& resolver, const BindingSink& sink,
                   size_t part, size_t num_parts, StepCounters* counters) const;
};

}  // namespace graphlog::eval

#endif  // GRAPHLOG_EVAL_COMPILED_RULE_H_
