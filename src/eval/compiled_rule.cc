#include "eval/compiled_rule.h"

#include <algorithm>
#include <map>
#include <set>

#include "eval/arith.h"
#include "storage/database.h"

namespace graphlog::eval {

using datalog::ArithExpr;
using datalog::CmpOp;
using datalog::EvalCmp;
using datalog::Literal;
using datalog::Rule;
using datalog::Term;
using storage::Relation;
using storage::Tuple;

bool CompiledArith::Eval(const std::vector<Value>& slots, Value* out) const {
  if (is_leaf) {
    *out = leaf.Get(slots);
    return true;
  }
  Value a, b;
  if (!children[0].Eval(slots, &a) || !children[1].Eval(slots, &b)) {
    return false;
  }
  return ApplyArith(op, a, b, out);
}

namespace {

/// Tracks variable -> slot assignment during compilation.
class SlotMap {
 public:
  uint32_t SlotOf(Symbol var) {
    auto [it, inserted] = slots_.emplace(var, next_);
    if (inserted) ++next_;
    return it->second;
  }
  bool Has(Symbol var) const { return slots_.count(var) > 0; }
  uint32_t size() const { return next_; }

 private:
  std::map<Symbol, uint32_t> slots_;
  uint32_t next_ = 0;
};

CompiledArith CompileArith(const ArithExpr& e, SlotMap* slots) {
  CompiledArith c;
  c.is_leaf = e.is_leaf;
  if (e.is_leaf) {
    if (e.leaf.is_variable()) {
      c.leaf = ArgSource::Slot(slots->SlotOf(e.leaf.var()));
    } else {
      c.leaf = ArgSource::Const(e.leaf.value());
    }
    return c;
  }
  c.op = e.op;
  c.children.push_back(CompileArith(e.children[0], slots));
  c.children.push_back(CompileArith(e.children[1], slots));
  return c;
}

/// Variables of a literal, for schedulability tests.
std::set<Symbol> LiteralVars(const Literal& l) {
  std::vector<Symbol> v;
  l.CollectVariables(&v);
  return std::set<Symbol>(v.begin(), v.end());
}

}  // namespace

CardinalityFn MakeDbCardinality(const storage::Database* db) {
  return [db](Symbol pred,
              const std::vector<uint32_t>& bound_cols) -> size_t {
    const Relation* rel = db->Find(pred);
    if (rel == nullptr) return 0;
    if (const storage::RelationStats* st = db->StatsFor(pred)) {
      return st->EstimateMatches(bound_cols);
    }
    // No stats (uid-0 relation): blind fixed-fanout discount.
    size_t est = rel->size();
    for (size_t k = 0; k < bound_cols.size() && est > 0; ++k) est /= 4;
    return est == 0 && !rel->empty() ? 1 : est;
  };
}

Result<CompiledRule> CompiledRule::Compile(const Rule& rule,
                                           const SymbolTable& syms,
                                           const CardinalityFn& cardinality) {
  CompiledRule out;
  out.head_predicate_ = rule.head.predicate;

  SlotMap slots;
  std::set<Symbol> bound;  // variables bound so far (schedule-time)

  std::vector<const Literal*> remaining;
  for (const Literal& l : rule.body) remaining.push_back(&l);

  // Assign occurrence ids in original body order (the engine's delta
  // substitution is keyed on them).
  std::map<const Literal*, int> occ_of;
  int occ = 0;
  for (const Literal& l : rule.body) {
    if (l.is_positive_atom()) occ_of[&l] = occ++;
  }
  out.num_occurrences_ = occ;

  auto lower_atom = [&](const Literal& l, bool negated) {
    Step s;
    s.kind = negated ? Step::Kind::kNegCheck : Step::Kind::kScanProbe;
    s.pred = l.atom.predicate;
    s.occurrence = negated ? -1 : occ_of[&l];
    std::map<Symbol, uint32_t> first_col;  // first unbound occurrence col
    for (uint32_t c = 0; c < l.atom.args.size(); ++c) {
      const Term& t = l.atom.args[c];
      if (t.is_constant()) {
        s.probe_cols.push_back(c);
        s.probe_sources.push_back(ArgSource::Const(t.value()));
      } else if (t.is_variable()) {
        Symbol v = t.var();
        if (bound.count(v) > 0) {
          s.probe_cols.push_back(c);
          s.probe_sources.push_back(ArgSource::Slot(slots.SlotOf(v)));
        } else if (auto it = first_col.find(v); it != first_col.end()) {
          // Repeated unbound variable within this atom.
          s.eq_cols.emplace_back(it->second, c);
        } else {
          first_col[v] = c;
          if (!negated) {
            s.out_cols.emplace_back(c, slots.SlotOf(v));
          }
        }
      } else {
        // Wildcard: unconstrained column (parser normally removes these).
        continue;
      }
    }
    if (!negated) {
      for (const auto& [v, _] : first_col) bound.insert(v);
    }
    return s;
  };

  while (!remaining.empty()) {
    // 1. Place every filter/binder that is ready.
    bool placed = true;
    while (placed) {
      placed = false;
      for (auto it = remaining.begin(); it != remaining.end();) {
        const Literal& l = **it;
        bool take = false;
        Step s;
        switch (l.kind) {
          case Literal::Kind::kComparison: {
            auto ready = [&](const Term& t) {
              return !t.is_variable() || bound.count(t.var()) > 0;
            };
            if (ready(l.lhs) && ready(l.rhs)) {
              s.kind = Step::Kind::kCompare;
              s.cmp = l.cmp;
              s.lhs = l.lhs.is_variable()
                          ? ArgSource::Slot(slots.SlotOf(l.lhs.var()))
                          : ArgSource::Const(l.lhs.value());
              s.rhs = l.rhs.is_variable()
                          ? ArgSource::Slot(slots.SlotOf(l.rhs.var()))
                          : ArgSource::Const(l.rhs.value());
              take = true;
            } else if (l.cmp == CmpOp::kEq && ready(l.lhs) &&
                       l.rhs.is_variable()) {
              s.kind = Step::Kind::kEqBind;
              s.bind_source = l.lhs.is_variable()
                                  ? ArgSource::Slot(slots.SlotOf(l.lhs.var()))
                                  : ArgSource::Const(l.lhs.value());
              s.bind_slot = slots.SlotOf(l.rhs.var());
              bound.insert(l.rhs.var());
              take = true;
            } else if (l.cmp == CmpOp::kEq && ready(l.rhs) &&
                       l.lhs.is_variable()) {
              s.kind = Step::Kind::kEqBind;
              s.bind_source = l.rhs.is_variable()
                                  ? ArgSource::Slot(slots.SlotOf(l.rhs.var()))
                                  : ArgSource::Const(l.rhs.value());
              s.bind_slot = slots.SlotOf(l.lhs.var());
              bound.insert(l.lhs.var());
              take = true;
            }
            break;
          }
          case Literal::Kind::kAssignment: {
            std::vector<Symbol> inputs;
            l.assign_expr.CollectVariables(&inputs);
            bool all = std::all_of(
                inputs.begin(), inputs.end(),
                [&](Symbol v) { return bound.count(v) > 0; });
            if (all) {
              s.kind = Step::Kind::kAssign;
              s.arith = CompileArith(l.assign_expr, &slots);
              if (!l.assign_target.is_variable()) {
                return Status::UnsafeRule(
                    "assignment target must be a variable in rule '" +
                    rule.ToString(syms) + "'");
              }
              Symbol tv = l.assign_target.var();
              s.target_bound = bound.count(tv) > 0;
              s.target_slot = slots.SlotOf(tv);
              bound.insert(tv);
              take = true;
            }
            break;
          }
          case Literal::Kind::kNegatedAtom: {
            // Ready when every variable is bound or local to this literal.
            std::set<Symbol> local;
            for (const Term& t : l.atom.args) {
              if (t.is_variable()) local.insert(t.var());
            }
            bool ready = true;
            for (Symbol v : local) {
              if (bound.count(v) > 0) continue;
              // Unbound: must not occur in any other remaining literal,
              // elsewhere we cannot anti-join yet.
              for (const Literal* other : remaining) {
                if (other == &l) continue;
                if (LiteralVars(*other).count(v) > 0) {
                  ready = false;
                  break;
                }
              }
              if (!ready) break;
            }
            if (ready) {
              s = lower_atom(l, /*negated=*/true);
              take = true;
            }
            break;
          }
          case Literal::Kind::kAtom:
            break;  // handled below
        }
        if (take) {
          out.steps_.push_back(std::move(s));
          it = remaining.erase(it);
          placed = true;
        } else {
          ++it;
        }
      }
    }

    // 2. Place the best positive atom. Without a cardinality oracle:
    // most bound argument positions wins (first in body order on ties).
    // With one: minimize the estimated rows a probe bound on the
    // already-bound columns would match, so a small relation is scanned
    // before a large one is probed and a selective column wins over a
    // skewed one.
    const Literal* best = nullptr;
    int best_bound = -1;
    double best_cost = 0.0;
    for (const Literal* l : remaining) {
      if (!l->is_positive_atom()) continue;
      int nb = 0;
      std::vector<uint32_t> bcols;
      for (uint32_t c = 0; c < l->atom.args.size(); ++c) {
        const Term& t = l->atom.args[c];
        if (t.is_constant() ||
            (t.is_variable() && bound.count(t.var()) > 0)) {
          ++nb;
          bcols.push_back(c);
        }
      }
      if (cardinality) {
        const double cost =
            static_cast<double>(cardinality(l->atom.predicate, bcols));
        if (best == nullptr || cost < best_cost) {
          best_cost = cost;
          best = l;
        }
      } else if (nb > best_bound) {
        best_bound = nb;
        best = l;
      }
    }
    if (best == nullptr) {
      if (!remaining.empty()) {
        return Status::UnsafeRule(
            "cannot schedule remaining builtins/negations in rule '" +
            rule.ToString(syms) + "' (unsafe rule)");
      }
      break;
    }
    out.steps_.push_back(lower_atom(*best, /*negated=*/false));
    out.occurrence_preds_.emplace_back(best->atom.predicate, occ_of[best]);
    {
      // Premise spec for provenance: every column of this atom, sourced
      // from constants or the (now bound) variable slots. Wildcards only
      // reach here through the builder API; they render as integer 0.
      std::vector<ArgSource> srcs;
      for (const Term& t : best->atom.args) {
        if (t.is_constant()) {
          srcs.push_back(ArgSource::Const(t.value()));
        } else if (t.is_variable()) {
          srcs.push_back(ArgSource::Slot(slots.SlotOf(t.var())));
        } else {
          srcs.push_back(ArgSource::Const(Value::Int(0)));
        }
      }
      out.premise_specs_.emplace_back(best->atom.predicate,
                                      std::move(srcs));
    }
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
  }

  // Compile the head.
  for (const datalog::HeadTerm& h : rule.head.args) {
    CompiledHeadArg a;
    if (h.is_aggregate) {
      out.has_aggregates_ = true;
      a.is_aggregate = true;
      a.agg = h.agg;
      if (h.agg_var != kNoSymbol) {
        if (!bound.count(h.agg_var)) {
          return Status::UnsafeRule("aggregate variable '" +
                                    syms.name(h.agg_var) +
                                    "' is unbound in rule '" +
                                    rule.ToString(syms) + "'");
        }
        a.has_input = true;
        a.source = ArgSource::Slot(slots.SlotOf(h.agg_var));
      }
    } else if (h.term.is_variable()) {
      if (!bound.count(h.term.var())) {
        return Status::UnsafeRule("head variable '" + syms.name(h.term.var()) +
                                  "' is unbound in rule '" +
                                  rule.ToString(syms) + "'");
      }
      a.source = ArgSource::Slot(slots.SlotOf(h.term.var()));
    } else if (h.term.is_constant()) {
      a.source = ArgSource::Const(h.term.value());
    } else {
      return Status::UnsafeRule("wildcard in rule head");
    }
    out.head_args_.push_back(std::move(a));
  }

  out.num_slots_ = slots.size();
  for (size_t k = 0; k < out.steps_.size(); ++k) {
    if (out.steps_[k].kind == Step::Kind::kScanProbe) {
      out.driver_step_ = static_cast<int>(k);
      break;
    }
  }
  return out;
}

void CompiledRule::Execute(const RelationResolver& resolver,
                           const BindingSink& sink) const {
  ExecutePartition(resolver, sink, 0, 1);
}

void CompiledRule::ExecutePartition(const RelationResolver& resolver,
                                    const BindingSink& sink, size_t part,
                                    size_t num_parts,
                                    StepCounters* counters) const {
  // A plan without a positive atom has nothing to partition over; its
  // (at most one) satisfying assignment belongs to partition 0.
  if (driver_step_ < 0 && part > 0) return;
  std::vector<Value> slots(num_slots_);
  ExecuteStep(0, &slots, resolver, sink, part, num_parts, counters);
}

void CompiledRule::ExecuteStep(size_t idx, std::vector<Value>* slots,
                               const RelationResolver& resolver,
                               const BindingSink& sink, size_t part,
                               size_t num_parts, StepCounters* counters) const {
  if (idx == steps_.size()) {
    sink(*slots);
    return;
  }
  const Step& s = steps_[idx];
  // Profiling counters, under the partition rules documented at
  // StepCounters: pre-driver steps count only in partition 0 (they repeat
  // identically everywhere); the driver's invocation counts once but its
  // per-chunk rows count in every partition; post-driver steps count
  // everywhere. Summed over partitions this reproduces the serial counts.
  StepCounter* rows_ctr = nullptr;
  if (counters != nullptr) {
    const int i = static_cast<int>(idx);
    if (i > driver_step_ || part == 0) ++(*counters)[idx].invocations;
    if (i >= driver_step_ || part == 0) rows_ctr = &(*counters)[idx];
  }
  switch (s.kind) {
    case Step::Kind::kScanProbe: {
      const Relation* rel = resolver(s.pred, s.occurrence);
      if (rel == nullptr || rel->empty()) return;
      auto try_row = [&](const Tuple& row) {
        for (const auto& [a, b] : s.eq_cols) {
          if (!(row[a] == row[b])) return;
        }
        for (const auto& [col, slot] : s.out_cols) {
          (*slots)[slot] = row[col];
        }
        if (rows_ctr != nullptr) ++rows_ctr->rows_out;
        ExecuteStep(idx + 1, slots, resolver, sink, part, num_parts, counters);
      };
      // The driver step enumerates only its contiguous chunk of the row
      // range; partition boundaries use the standard p*m/P split so the
      // chunks are exhaustive, disjoint, and ordered.
      const bool is_driver = static_cast<int>(idx) == driver_step_;
      if (s.probe_cols.empty()) {
        const size_t m = rel->rows().size();
        size_t lo = 0, hi = m;
        if (is_driver && num_parts > 1) {
          lo = part * m / num_parts;
          hi = (part + 1) * m / num_parts;
        }
        for (size_t r = lo; r < hi; ++r) try_row(rel->row(r));
      } else {
        Tuple key;
        key.reserve(s.probe_cols.size());
        for (const ArgSource& src : s.probe_sources) {
          key.push_back(src.Get(*slots));
        }
        storage::ProbeResult hits = rel->Probe(s.probe_cols, key);
        const size_t m = hits.size();
        size_t lo = 0, hi = m;
        if (is_driver && num_parts > 1) {
          lo = part * m / num_parts;
          hi = (part + 1) * m / num_parts;
        }
        for (size_t k = lo; k < hi; ++k) try_row(rel->row(hits[k]));
      }
      return;
    }
    case Step::Kind::kNegCheck: {
      const Relation* rel = resolver(s.pred, s.occurrence);
      if (rel != nullptr && !rel->empty()) {
        bool found = false;
        auto check_row = [&](const Tuple& row) {
          for (const auto& [a, b] : s.eq_cols) {
            if (!(row[a] == row[b])) return;
          }
          found = true;
        };
        if (s.probe_cols.empty()) {
          for (const Tuple& row : rel->rows()) {
            check_row(row);
            if (found) break;
          }
        } else {
          Tuple key;
          key.reserve(s.probe_cols.size());
          for (const ArgSource& src : s.probe_sources) {
            key.push_back(src.Get(*slots));
          }
          for (uint32_t i : rel->Probe(s.probe_cols, key)) {
            check_row(rel->row(i));
            if (found) break;
          }
        }
        if (found) return;  // negation fails
      }
      if (rows_ctr != nullptr) ++rows_ctr->rows_out;
      ExecuteStep(idx + 1, slots, resolver, sink, part, num_parts, counters);
      return;
    }
    case Step::Kind::kCompare: {
      if (EvalCmp(s.cmp, s.lhs.Get(*slots), s.rhs.Get(*slots))) {
        if (rows_ctr != nullptr) ++rows_ctr->rows_out;
        ExecuteStep(idx + 1, slots, resolver, sink, part, num_parts, counters);
      }
      return;
    }
    case Step::Kind::kEqBind: {
      (*slots)[s.bind_slot] = s.bind_source.Get(*slots);
      if (rows_ctr != nullptr) ++rows_ctr->rows_out;
      ExecuteStep(idx + 1, slots, resolver, sink, part, num_parts, counters);
      return;
    }
    case Step::Kind::kAssign: {
      Value v;
      if (!s.arith.Eval(*slots, &v)) return;
      if (s.target_bound) {
        if (!EvalCmp(CmpOp::kEq, (*slots)[s.target_slot], v)) return;
      } else {
        (*slots)[s.target_slot] = v;
      }
      if (rows_ctr != nullptr) ++rows_ctr->rows_out;
      ExecuteStep(idx + 1, slots, resolver, sink, part, num_parts, counters);
      return;
    }
  }
}

Tuple CompiledRule::EmitHead(const std::vector<Value>& slots) const {
  Tuple t;
  t.reserve(head_args_.size());
  for (const CompiledHeadArg& a : head_args_) {
    t.push_back(a.source.Get(slots));
  }
  return t;
}

std::vector<std::pair<Symbol, Tuple>> CompiledRule::Premises(
    const std::vector<Value>& slots) const {
  std::vector<std::pair<Symbol, Tuple>> out;
  out.reserve(premise_specs_.size());
  for (const auto& [pred, srcs] : premise_specs_) {
    Tuple t;
    t.reserve(srcs.size());
    for (const ArgSource& s : srcs) t.push_back(s.Get(slots));
    out.emplace_back(pred, std::move(t));
  }
  return out;
}

std::vector<int> CompiledRule::OccurrencesOf(Symbol p) const {
  std::vector<int> out;
  for (const auto& [pred, occ] : occurrence_preds_) {
    if (pred == p) out.push_back(occ);
  }
  return out;
}

std::string CompiledRule::StepToString(size_t idx,
                                       const SymbolTable& syms) const {
  const Step& s = steps_[idx];
  std::string out;
  switch (s.kind) {
    case Step::Kind::kScanProbe: {
      if (s.probe_cols.empty()) {
        out += "scan " + syms.name(s.pred);
      } else {
        out += "probe " + syms.name(s.pred) + "(";
        for (size_t i = 0; i < s.probe_cols.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(s.probe_cols[i]);
        }
        out += ")";
      }
      if (driver() == &s) out += " [driver]";
      break;
    }
    case Step::Kind::kNegCheck:
      out += "antijoin !" + syms.name(s.pred);
      break;
    case Step::Kind::kCompare:
      out += "filter ";
      out += datalog::CmpOpToString(s.cmp);
      break;
    case Step::Kind::kEqBind:
      out += "bind s" + std::to_string(s.bind_slot);
      break;
    case Step::Kind::kAssign:
      out += s.target_bound ? "check s" : "assign s";
      out += std::to_string(s.target_slot);
      break;
  }
  return out;
}

std::string CompiledRule::PlanToString(const SymbolTable& syms) const {
  std::string out = syms.name(head_predicate_) + " <-";
  for (size_t k = 0; k < steps_.size(); ++k) {
    out += k == 0 ? " " : " ; ";
    out += StepToString(k, syms);
  }
  return out;
}

}  // namespace graphlog::eval
