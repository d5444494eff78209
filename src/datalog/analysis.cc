#include "datalog/analysis.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

namespace graphlog::datalog {

// ---------------------------------------------------------------------------
// DependenceGraph

DependenceGraph DependenceGraph::Build(const Program& prog) {
  DependenceGraph g;
  std::set<Symbol> seen;
  auto add_node = [&](Symbol p) {
    if (seen.insert(p).second) {
      g.predicates_.push_back(p);
      g.succ_[p];
      g.pred_[p];
    }
  };
  for (const Rule& r : prog.rules) {
    add_node(r.head.predicate);
    bool agg_head = r.head.has_aggregates();
    for (const Literal& l : r.body) {
      if (!l.is_relational()) continue;
      Symbol q = l.atom.predicate;
      add_node(q);
      auto key = std::make_pair(q, r.head.predicate);
      if (g.edges_.insert(key).second) {
        g.succ_[q].push_back(r.head.predicate);
        g.pred_[r.head.predicate].push_back(q);
      }
      if (l.is_negated_atom() || agg_head) {
        g.negative_edges_.insert(key);
      }
    }
  }
  return g;
}

const std::vector<Symbol>& DependenceGraph::SuccessorsOf(Symbol p) const {
  static const std::vector<Symbol> kEmpty;
  auto it = succ_.find(p);
  return it == succ_.end() ? kEmpty : it->second;
}

const std::vector<Symbol>& DependenceGraph::PredecessorsOf(Symbol p) const {
  static const std::vector<Symbol> kEmpty;
  auto it = pred_.find(p);
  return it == pred_.end() ? kEmpty : it->second;
}

bool DependenceGraph::HasEdge(Symbol from, Symbol to) const {
  return edges_.count({from, to}) > 0;
}

bool DependenceGraph::HasNegativeEdge(Symbol from, Symbol to) const {
  return negative_edges_.count({from, to}) > 0;
}

std::vector<std::vector<Symbol>>
DependenceGraph::StronglyConnectedComponents() const {
  // Iterative Tarjan.
  std::vector<std::vector<Symbol>> components;
  std::map<Symbol, int> index, lowlink;
  std::map<Symbol, bool> on_stack;
  std::vector<Symbol> stack;
  int next_index = 0;

  struct Frame {
    Symbol v;
    size_t child = 0;
  };

  for (Symbol root : predicates_) {
    if (index.count(root)) continue;
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::vector<Symbol>& succ = SuccessorsOf(f.v);
      if (f.child < succ.size()) {
        Symbol w = succ[f.child++];
        if (!index.count(w)) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<Symbol> comp;
          Symbol w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp.push_back(w);
          } while (w != f.v);
          components.push_back(std::move(comp));
        }
        Symbol v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
  return components;
}

std::map<Symbol, int> DependenceGraph::ComponentIndex() const {
  std::map<Symbol, int> idx;
  auto comps = StronglyConnectedComponents();
  for (size_t i = 0; i < comps.size(); ++i) {
    for (Symbol p : comps[i]) idx[p] = static_cast<int>(i);
  }
  return idx;
}

bool DependenceGraph::IsAcyclic() const {
  // Acyclic iff every SCC is a single node without a self loop.
  for (const auto& comp : StronglyConnectedComponents()) {
    if (comp.size() > 1) return false;
    if (HasEdge(comp[0], comp[0])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Stratification

Result<Stratification> Stratify(const Program& prog, const SymbolTable& syms) {
  DependenceGraph g = DependenceGraph::Build(prog);
  std::set<Symbol> idbs;
  for (const Rule& r : prog.rules) idbs.insert(r.head.predicate);

  // stratum(p) starts at 0 for every predicate; EDBs stay at 0.
  std::map<Symbol, int> stratum;
  for (Symbol p : g.predicates()) stratum[p] = 0;

  const int kMax = static_cast<int>(g.predicates().size()) + 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& r : prog.rules) {
      Symbol h = r.head.predicate;
      bool agg = r.head.has_aggregates();
      for (const Literal& l : r.body) {
        if (!l.is_relational()) continue;
        Symbol q = l.atom.predicate;
        int need = stratum[q] + ((l.is_negated_atom() || agg) ? 1 : 0);
        if (stratum[h] < need) {
          stratum[h] = need;
          if (stratum[h] > kMax) {
            std::string who = syms.Contains(h) ? syms.name(h) : "?";
            return Status::Unstratifiable(
                "program recurses through negation or aggregation at "
                "predicate '" +
                who + "'");
          }
          changed = true;
        }
      }
    }
  }

  Stratification s;
  int max_stratum = 0;
  for (Symbol p : idbs) {
    s.stratum_of[p] = stratum[p];
    max_stratum = std::max(max_stratum, stratum[p]);
  }
  s.num_strata = max_stratum + 1;
  s.rule_groups.assign(s.num_strata, {});
  for (size_t i = 0; i < prog.rules.size(); ++i) {
    s.rule_groups[stratum[prog.rules[i].head.predicate]].push_back(
        static_cast<int>(i));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Safety

namespace {

Status CheckRuleSafety(const Rule& r, const SymbolTable& syms) {
  // Compute the limited variables to a fixpoint.
  std::set<Symbol> limited;
  for (const Literal& l : r.body) {
    if (l.is_positive_atom()) {
      for (const Term& t : l.atom.args) {
        if (t.is_variable()) limited.insert(t.var());
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : r.body) {
      if (l.kind == Literal::Kind::kComparison && l.cmp == CmpOp::kEq) {
        // Equality propagates limitedness either way.
        auto bound = [&](const Term& t) {
          return t.is_constant() ||
                 (t.is_variable() && limited.count(t.var()) > 0);
        };
        if (bound(l.lhs) && l.rhs.is_variable() &&
            limited.insert(l.rhs.var()).second) {
          changed = true;
        }
        if (bound(l.rhs) && l.lhs.is_variable() &&
            limited.insert(l.lhs.var()).second) {
          changed = true;
        }
      } else if (l.kind == Literal::Kind::kAssignment) {
        std::vector<Symbol> inputs;
        l.assign_expr.CollectVariables(&inputs);
        bool all = std::all_of(inputs.begin(), inputs.end(), [&](Symbol v) {
          return limited.count(v) > 0;
        });
        if (all && l.assign_target.is_variable() &&
            limited.insert(l.assign_target.var()).second) {
          changed = true;
        }
      }
    }
  }

  auto require = [&](Symbol v, const char* where) -> Status {
    if (limited.count(v) > 0) return Status::OK();
    return Status::UnsafeRule("variable '" + syms.name(v) + "' in " + where +
                              " is not limited in rule '" +
                              r.ToString(syms) + "'");
  };

  for (const HeadTerm& h : r.head.args) {
    if (h.is_aggregate) {
      if (h.agg_var != kNoSymbol) {
        GRAPHLOG_RETURN_NOT_OK(require(h.agg_var, "aggregate"));
      }
    } else if (h.term.is_variable()) {
      GRAPHLOG_RETURN_NOT_OK(require(h.term.var(), "head"));
    }
  }
  // A variable in a negated subgoal may be unlimited only when it is local
  // to that single literal — then it reads existentially ("no tuple with
  // any value here"), which is how the paper's underscore projects closure
  // parameters out of negated edges.
  std::map<Symbol, int> occurrences;
  {
    std::vector<Symbol> vars;
    for (const HeadTerm& h : r.head.args) {
      if (!h.is_aggregate && h.term.is_variable()) vars.push_back(h.term.var());
      if (h.is_aggregate && h.agg_var != kNoSymbol) vars.push_back(h.agg_var);
    }
    for (const Literal& l : r.body) l.CollectVariables(&vars);
    for (Symbol v : vars) occurrences[v]++;
  }

  for (const Literal& l : r.body) {
    switch (l.kind) {
      case Literal::Kind::kNegatedAtom: {
        std::map<Symbol, int> local;
        for (const Term& t : l.atom.args) {
          if (t.is_variable()) local[t.var()]++;
        }
        for (const auto& [v, n] : local) {
          if (limited.count(v) > 0) continue;
          if (occurrences[v] == n) continue;  // local to this literal
          GRAPHLOG_RETURN_NOT_OK(require(v, "negated subgoal"));
        }
        break;
      }
      case Literal::Kind::kComparison:
        if (l.lhs.is_variable()) {
          GRAPHLOG_RETURN_NOT_OK(require(l.lhs.var(), "comparison"));
        }
        if (l.rhs.is_variable()) {
          GRAPHLOG_RETURN_NOT_OK(require(l.rhs.var(), "comparison"));
        }
        break;
      case Literal::Kind::kAssignment: {
        std::vector<Symbol> inputs;
        l.assign_expr.CollectVariables(&inputs);
        for (Symbol v : inputs) {
          GRAPHLOG_RETURN_NOT_OK(require(v, "arithmetic expression"));
        }
        break;
      }
      case Literal::Kind::kAtom:
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckSafety(const Program& prog, const SymbolTable& syms) {
  for (const Rule& r : prog.rules) {
    GRAPHLOG_RETURN_NOT_OK(CheckRuleSafety(r, syms));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Arity checks

std::map<Symbol, size_t> PredicateArities(const Program& prog) {
  std::map<Symbol, size_t> arity;
  for (const Rule& r : prog.rules) {
    arity.emplace(r.head.predicate, r.head.arity());
    for (const Literal& l : r.body) {
      if (l.is_relational()) arity.emplace(l.atom.predicate, l.atom.arity());
    }
  }
  return arity;
}

Status CheckArities(const Program& prog, const SymbolTable& syms) {
  std::map<Symbol, size_t> arity;
  auto check = [&](Symbol p, size_t a) -> Status {
    auto [it, inserted] = arity.emplace(p, a);
    if (!inserted && it->second != a) {
      return Status::ArityMismatch(
          "predicate '" + syms.name(p) + "' used with arity " +
          std::to_string(a) + " and " + std::to_string(it->second));
    }
    return Status::OK();
  };
  for (const Rule& r : prog.rules) {
    GRAPHLOG_RETURN_NOT_OK(check(r.head.predicate, r.head.arity()));
    for (const Literal& l : r.body) {
      if (l.is_relational()) {
        GRAPHLOG_RETURN_NOT_OK(check(l.atom.predicate, l.atom.arity()));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Linearity and TC shape

bool IsLinear(const Program& prog) {
  return CheckLinear(prog, SymbolTable()).ok();
}

Status CheckLinear(const Program& prog, const SymbolTable& syms) {
  DependenceGraph g = DependenceGraph::Build(prog);
  std::map<Symbol, int> comp = g.ComponentIndex();
  for (const Rule& r : prog.rules) {
    int head_comp = comp[r.head.predicate];
    // Whether the head is actually recursive: its component has >1 member
    // or a self-loop.
    int count = 0;
    for (const Literal& l : r.body) {
      if (!l.is_relational()) continue;
      if (comp.count(l.atom.predicate) &&
          comp[l.atom.predicate] == head_comp) {
        ++count;
      }
    }
    if (count > 1) {
      std::string name =
          syms.Contains(r.head.predicate) ? syms.name(r.head.predicate) : "?";
      return Status::NotLinear("rule for '" + name +
                               "' has " + std::to_string(count) +
                               " recursive subgoals");
    }
  }
  return Status::OK();
}

bool IsRecursivePredicate(const Program& prog, Symbol p) {
  DependenceGraph g = DependenceGraph::Build(prog);
  auto comps = g.StronglyConnectedComponents();
  for (const auto& comp : comps) {
    if (std::find(comp.begin(), comp.end(), p) == comp.end()) continue;
    if (comp.size() > 1) return true;
    return g.HasEdge(p, p);
  }
  return false;
}

namespace {

// Checks that `args` is a sequence of pairwise-distinct variables; returns
// them, or nullopt.
std::optional<std::vector<Symbol>> DistinctVars(const std::vector<Term>& args) {
  std::vector<Symbol> vars;
  std::set<Symbol> seen;
  for (const Term& t : args) {
    if (!t.is_variable()) return std::nullopt;
    if (!seen.insert(t.var()).second) return std::nullopt;
    vars.push_back(t.var());
  }
  return vars;
}

/// The two rules defining `p` when they have the shape every TC pair
/// shares: exactly two rules, no aggregates, positive atoms only, one
/// with one subgoal (the base) and one with two (the recursive rule).
Result<std::pair<const Rule*, const Rule*>> TcRulePair(const Program& prog,
                                                       Symbol p) {
  std::vector<const Rule*> rules;
  for (const Rule& r : prog.rules) {
    if (r.head.predicate == p) rules.push_back(&r);
  }
  if (rules.size() != 2) {
    return Status::InvalidArgument("TC predicate must have exactly 2 rules");
  }
  if (rules[0]->head.has_aggregates() || rules[1]->head.has_aggregates()) {
    return Status::InvalidArgument("TC rules cannot aggregate");
  }

  // Identify base rule (1 subgoal) and recursive rule (2 subgoals).
  const Rule* base = nullptr;
  const Rule* rec = nullptr;
  for (const Rule* r : rules) {
    if (r->body.size() == 1) base = r;
    if (r->body.size() == 2) rec = r;
  }
  if (base == nullptr || rec == nullptr) {
    return Status::InvalidArgument("TC rules must have 1 and 2 subgoals");
  }
  for (const Rule* r : {base, rec}) {
    for (const Literal& l : r->body) {
      if (!l.is_positive_atom())
        return Status::InvalidArgument("TC subgoals must be positive atoms");
    }
  }
  return std::make_pair(base, rec);
}

}  // namespace

Result<TcShape> MatchTcRules(const Program& prog, Symbol p) {
  GRAPHLOG_ASSIGN_OR_RETURN(auto pair, TcRulePair(prog, p));
  const auto [base, rec] = pair;

  // Base: p(H...) :- q(H...), same distinct-variable vector.
  Symbol q = base->body[0].atom.predicate;
  if (q == p) return Status::InvalidArgument("TC base rule is recursive");
  auto head_vars = DistinctVars(base->head.ToAtom().args);
  auto base_vars = DistinctVars(base->body[0].atom.args);
  if (!head_vars || !base_vars || *head_vars != *base_vars) {
    return Status::InvalidArgument("TC base rule shape mismatch");
  }

  // Recursive: p(X,Y,W) :- q(X,Z,W), p(Z,Y,W). Either subgoal order.
  const Atom* qa = nullptr;
  const Atom* pa = nullptr;
  for (const Literal& l : rec->body) {
    if (l.atom.predicate == p) pa = &l.atom;
    if (l.atom.predicate == q) qa = &l.atom;
  }
  if (qa == nullptr || pa == nullptr || qa == pa) {
    return Status::InvalidArgument("TC recursive rule must use q and p");
  }
  auto rhead = DistinctVars(rec->head.ToAtom().args);
  auto qvars = DistinctVars(qa->args);
  auto pvars = DistinctVars(pa->args);
  if (!rhead || !qvars || !pvars) {
    return Status::InvalidArgument("TC recursive rule args must be vars");
  }
  size_t total = rhead->size();
  if (qvars->size() != total || pvars->size() != total) {
    return Status::InvalidArgument("TC arities disagree");
  }

  // Try every (n, w) split with 2n + w == total, n >= 1.
  for (size_t n = 1; 2 * n <= total; ++n) {
    size_t w = total - 2 * n;
    auto X = std::vector<Symbol>(rhead->begin(), rhead->begin() + n);
    auto Y = std::vector<Symbol>(rhead->begin() + n, rhead->begin() + 2 * n);
    auto W = std::vector<Symbol>(rhead->begin() + 2 * n, rhead->end());
    // q must be (X, Z, W); p must be (Z, Y, W) for some Z.
    auto qX = std::vector<Symbol>(qvars->begin(), qvars->begin() + n);
    auto qZ = std::vector<Symbol>(qvars->begin() + n, qvars->begin() + 2 * n);
    auto qW = std::vector<Symbol>(qvars->begin() + 2 * n, qvars->end());
    auto pZ = std::vector<Symbol>(pvars->begin(), pvars->begin() + n);
    auto pY = std::vector<Symbol>(pvars->begin() + n, pvars->begin() + 2 * n);
    auto pW = std::vector<Symbol>(pvars->begin() + 2 * n, pvars->end());
    if (qX == X && qW == W && pW == W && pY == Y && qZ == pZ) {
      // Z must be fresh (disjoint from X, Y, W).
      std::set<Symbol> head_set(rhead->begin(), rhead->end());
      bool fresh = std::all_of(qZ.begin(), qZ.end(), [&](Symbol z) {
        return head_set.count(z) == 0;
      });
      if (fresh) {
        TcShape shape;
        shape.base = q;
        shape.n = n;
        shape.w = w;
        return shape;
      }
    }
  }
  return Status::InvalidArgument("no (n, w) split matches TC shape");
}

Result<SeededTcShape> MatchSeededTcRules(const Program& prog, Symbol p) {
  GRAPHLOG_ASSIGN_OR_RETURN(auto pair, TcRulePair(prog, p));
  const auto [base, rec] = pair;
  auto head_var = [](const Rule& r) -> std::optional<Symbol> {
    auto vars = DistinctVars(r.head.ToAtom().args);
    if (!vars || vars->size() != 1) return std::nullopt;
    return (*vars)[0];
  };
  const std::optional<Symbol> v = head_var(*base);
  const std::optional<Symbol> rv = head_var(*rec);
  if (!v || !rv) {
    return Status::InvalidArgument("seeded TC head must be one variable");
  }

  // Base: p(V) :- q(c, V) forward, p(V) :- q(V, c) backward.
  const Atom& qb = base->body[0].atom;
  if (qb.predicate == p || qb.args.size() != 2) {
    return Status::InvalidArgument("seeded TC base must read a binary q");
  }
  auto is_var = [](const Term& t, Symbol x) {
    return t.is_variable() && t.var() == x;
  };
  SeededTcShape shape;
  shape.base = qb.predicate;
  if (qb.args[0].is_constant() && is_var(qb.args[1], *v)) {
    shape.forward = true;
  } else if (is_var(qb.args[0], *v) && qb.args[1].is_constant()) {
    shape.forward = false;
  } else {
    return Status::InvalidArgument("seeded TC base rule shape mismatch");
  }
  shape.seed = qb.args[shape.forward ? 0 : 1].value();

  // Recursive: p(V) :- p(Z), q(Z, V) forward, p(V) :- q(V, Z), p(Z)
  // backward; either subgoal order, Z distinct from V.
  const Atom* qa = nullptr;
  const Atom* pa = nullptr;
  for (const Literal& l : rec->body) {
    if (l.atom.predicate == p) pa = &l.atom;
    if (l.atom.predicate == shape.base) qa = &l.atom;
  }
  if (qa == nullptr || pa == nullptr || qa == pa || pa->args.size() != 1 ||
      qa->args.size() != 2 || !pa->args[0].is_variable()) {
    return Status::InvalidArgument("seeded TC recursive rule must use q and p");
  }
  const Symbol z = pa->args[0].var();
  const Term& from = qa->args[shape.forward ? 0 : 1];
  const Term& to = qa->args[shape.forward ? 1 : 0];
  if (z == *rv || !is_var(from, z) || !is_var(to, *rv)) {
    return Status::InvalidArgument("seeded TC recursive rule shape mismatch");
  }
  return shape;
}

bool IsTcProgram(const Program& prog) {
  DependenceGraph g = DependenceGraph::Build(prog);
  auto comps = g.StronglyConnectedComponents();
  for (const auto& comp : comps) {
    bool recursive =
        comp.size() > 1 || g.HasEdge(comp[0], comp[0]);
    if (!recursive) continue;
    if (comp.size() > 1) return false;  // mutual recursion is not TC shape
    if (!MatchTcRules(prog, comp[0]).ok()) return false;
  }
  return true;
}

}  // namespace graphlog::datalog
