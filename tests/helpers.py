"""Shared test utilities: independent oracles and random generators.

The oracle code here deliberately re-implements substitution and unification
with a different algorithm (naive equation solving with eager rewriting of
the whole equation set) so the main library is checked against code that
shares nothing with it.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
from dataclasses import field, make_dataclass

from mctab.calculus import (
    ExtAction,
    ExtStep,
    RedAction,
    RedStep,
    RewAction,
    RewStep,
    StartAction,
    StartStep,
)
from mctab.checker import Ext, Lem, Red, Rew, Start, TraceError
from mctab.features import _literal_walks, _scalars
from mctab.gbt import DatasetError, GbtModel, TrainHistory, _Node, _rmse, left_sum
from mctab.mcts import uct_score
from mctab.problems import EQ, Matrix, ParseError, _Parser
from mctab.terms import (
    App,
    Literal,
    Term,
    Var,
    literal_replace,
    literal_subterm,
    literal_subterms,
    match_term,
    resolve_literal,
    resolve_literals,
    resolve_term,
    unify_literals,
)


@contextlib.contextmanager
def default_recursion_limit():
    """Run the block under the interpreter's default recursion limit, 1000,
    which the package leaves alone; then restore the caller's."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


# ---------------------------------------------------------------------------
# independent unification oracle

def oracle_apply(s: dict, t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t.id, t)
    return App(t.symbol, tuple(oracle_apply(s, a) for a in t.args))


def oracle_rename(lit: Literal, k: int) -> Literal:
    """`lit` with `k` added to every variable id: `oracle_apply` under a
    map from each of its variables to the renamed one."""
    fresh = {v: Var(v + k) for a in lit.args for v in oracle_vars(a)}
    return Literal(lit.positive, lit.predicate, tuple(oracle_apply(fresh, a) for a in lit.args))


def oracle_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.id}
    out = set()
    for a in t.args:
        out |= oracle_vars(a)
    return out


def oracle_unify(a: Term, b: Term):
    """Naive equation-set unifier with occurs check; returns dict or None."""
    eqs = [(a, b)]
    subst = {}
    while eqs:
        left, right = eqs.pop(0)
        if left == right:
            continue
        if isinstance(left, App) and isinstance(right, App):
            if left.symbol != right.symbol or len(left.args) != len(right.args):
                return None
            eqs = list(zip(left.args, right.args)) + eqs
            continue
        if not isinstance(left, Var):
            left, right = right, left
        if left.id in oracle_vars(right):
            return None
        one = {left.id: right}
        eqs = [(oracle_apply(one, x), oracle_apply(one, y)) for x, y in eqs]
        subst = {v: oracle_apply(one, t) for v, t in subst.items()}
        subst[left.id] = right
    return subst


def reference_unify(a, b, under=None):
    """Most general unifier of two terms, or of two literals' argument lists
    left to right, extending `under`; None if there is none.  The library's
    unifier as it was: it keeps the result normalized by rewriting every
    binding on each new one, so the one-pass unifier must return the same
    dict, key order included."""
    if isinstance(a, Literal):
        if a.predicate != b.predicate or len(a.args) != len(b.args):
            return None
        s = dict(under) if under else {}
        for x, y in zip(a.args, b.args):
            s = reference_unify(x, y, s)
            if s is None:
                return None
        return s
    s = dict(under) if under else {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var):
            x = s.get(x.id, x)
        if isinstance(y, Var):
            y = s.get(y.id, y)
        if x == y:
            continue
        if isinstance(x, Var) or isinstance(y, Var):
            if not isinstance(x, Var):
                x, y = y, x
            t = oracle_apply(s, y)
            if x.id in oracle_vars(t):
                return None
            one = {x.id: t}
            s = {v: oracle_apply(one, w) for v, w in s.items()}
            s[x.id] = t
        else:
            if x.symbol != y.symbol or len(x.args) != len(y.args):
                return None
            stack.extend(zip(x.args, y.args))
    return s


def alpha_equal(a: Term, b: Term, fwd=None, bwd=None) -> bool:
    """Equality up to a bijective renaming of variables."""
    if fwd is None:
        fwd, bwd = {}, {}
    if isinstance(a, Var) and isinstance(b, Var):
        if a.id in fwd:
            return fwd[a.id] == b.id
        if b.id in bwd:
            return False
        fwd[a.id] = b.id
        bwd[b.id] = a.id
        return True
    if isinstance(a, App) and isinstance(b, App):
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        return all(alpha_equal(x, y, fwd, bwd) for x, y in zip(a.args, b.args))
    return False


# ---------------------------------------------------------------------------
# the value types as frozen dataclasses, the way the library first had them;
# its named tuples must agree with them on equality, hash and repr

REFERENCE_TYPES = {
    name: make_dataclass(name, fields, frozen=True, slots=name in ("Var", "App", "Literal"))
    for name, fields in (
        ("Var", ["id"]),
        ("App", ["symbol", ("args", tuple, field(default=()))]),
        ("Literal", ["positive", "predicate", ("args", tuple, field(default=()))]),
        ("ExtAction", ["clause_id", "lit_index"]),
        ("RedAction", ["path_index"]),
        ("RewAction", ["clause_id", "lit_index", "direction", "position"]),
        ("StartStep", ["clause_id", "varmap"]),
        ("ExtStep", ["clause_id", "varmap", "goal_lit"]),
        ("RedStep", ["goal_lit", "path_lit"]),
        ("LemStep", ["lit"]),
        ("RewStep", ["clause_id", "varmap", "eq_lit", "direction", "goal_before",
                     "goal_after", "side_lits"]),
    )
}


def rebuilt(x, types: dict):
    """`x` built anew from the leaves up: each named tuple in it as the type
    of its name in `types`, each plain tuple as a new plain tuple."""
    if not isinstance(x, tuple):
        return x
    parts = [rebuilt(f, types) for f in x]
    return types[type(x).__name__](*parts) if hasattr(x, "_fields") else tuple(parts)


# ---------------------------------------------------------------------------
# random structure generators

FUNCTIONS = [("f", 1), ("g", 1), ("h", 2), ("k", 2)]
CONSTANTS = ["a", "b", "c"]


def random_term(rng: random.Random, size_budget: int, n_vars: int = 4) -> Term:
    if size_budget <= 1:
        if rng.random() < 0.5:
            return Var(rng.randrange(n_vars))
        return App(rng.choice(CONSTANTS))
    roll = rng.random()
    if roll < 0.25:
        return Var(rng.randrange(n_vars))
    if roll < 0.45:
        return App(rng.choice(CONSTANTS))
    sym, arity = rng.choice(FUNCTIONS)
    per_arg = max(1, (size_budget - 1) // arity)
    return App(sym, tuple(random_term(rng, rng.randint(1, per_arg), n_vars) for _ in range(arity)))


def random_term_pair(rng: random.Random, max_size: int = 12):
    """A pair biased toward unifiable cases: sometimes b is a mangled copy of a."""
    a = random_term(rng, rng.randint(1, max_size))
    if rng.random() < 0.5:
        b = random_term(rng, rng.randint(1, max_size))
    else:
        b = _mangle(rng, a)
    return a, b


def _mangle(rng: random.Random, t: Term) -> Term:
    if rng.random() < 0.3:
        return random_term(rng, 3)
    if isinstance(t, Var):
        if rng.random() < 0.5:
            return Var(rng.randrange(4))
        return t
    if not t.args:
        return t
    args = tuple(_mangle(rng, a) for a in t.args)
    return App(t.symbol, args)


def random_literal_pair(rng: random.Random, max_size: int = 8):
    """Two literals of one predicate with 2-4 arguments, pairwise biased
    toward unifiable; one side's variables are sometimes shifted below zero,
    the way action enumeration keeps a goal apart from a clause."""
    pairs = [random_term_pair(rng, max_size) for _ in range(rng.randint(2, 4))]
    left = tuple(x for x, _ in pairs)
    right = tuple(y for _, y in pairs)
    if rng.random() < 0.3:
        below = {i: Var(i - 4) for i in range(4)}
        left = tuple(oracle_apply(below, t) for t in left)
    return Literal(True, "p", left), Literal(True, "p", right)


# ---------------------------------------------------------------------------
# eager substitution oracle

def compose(s: dict, delta: dict) -> dict:
    """Normalized composition: (compose(s, d))(t) == d(s(t)) for all t."""
    out = {v: oracle_apply(delta, t) for v, t in s.items()}
    for v, t in delta.items():
        if v not in out:
            out[v] = t
    return out


def eager_subst(triangular: dict) -> dict:
    """A triangular substitution composed eagerly, one binding at a time in
    the order made, each brought up to date with the bindings before it, the
    way the calculus used to keep a state's."""
    out: dict = {}
    for v, t in triangular.items():
        out = compose(out, {v: oracle_apply(out, t)})
    return out


# ---------------------------------------------------------------------------
# feature oracle: the token multiset that `FeatureExtractor` compresses

def raw_features(m: Matrix, goals: tuple, path: tuple, action=None) -> dict:
    """Token multiset for a state and optionally one action.  A start
    choice walks its clause under `a:ext:`, as an extension into it does."""
    out: dict = {}
    for lit in goals:
        _literal_walks(lit, "g:", out)
    for lit in path:
        _literal_walks(lit, "p:", out)
    if isinstance(action, (ExtAction, StartAction)):
        for lit in m.clauses[action.clause_id].literals:
            _literal_walks(lit, "a:ext:", out)
    elif isinstance(action, RedAction):
        _literal_walks(path[action.path_index], "a:red:", out)
    elif action is not None:
        eq = m.clauses[action.clause_id].literals[action.lit_index]
        _literal_walks(eq, f"a:rew:{action.direction}:", out)
    out.update(_scalars(goals, path))
    return out


# ---------------------------------------------------------------------------
# MCTS test support

def random_matrix(rng: random.Random):
    """Small random DNF matrix with at least one all-positive start clause,
    and the text it was parsed from."""
    from mctab.problems import parse_problem

    preds = [("p", 1), ("q", 1), ("r", 0)]
    consts = ["a", "b"]

    def literal():
        name, arity = rng.choice(preds)
        sign = "-" if rng.random() < 0.5 else ""
        if arity == 0:
            return f"{sign}{name}"
        arg = rng.choice(consts + ["X", "f(X)", "f(a)", "g(a,b)"])
        return f"{sign}{name}({arg})"

    while True:
        n = rng.randint(3, 8)
        lines = []
        for _ in range(n):
            lits = [literal() for _ in range(rng.randint(1, 3))]
            lines.append(" | ".join(lits) + ".")
        text = "\n".join(lines) + "\n"
        try:
            m = parse_problem(text)
        except Exception:
            continue
        if m.start_ids:
            return m, text


def _random_eq_term(rng: random.Random, depth: int) -> str:
    """A term of `random_eq_matrix`; module-level, since a recursive nested
    function is a reference cycle."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["X", "Y", "a"])
    if roll < 0.8:
        return f"f({_random_eq_term(rng, depth - 1)})"
    return f"h({_random_eq_term(rng, depth - 1)},{_random_eq_term(rng, depth - 1)})"


def random_eq_matrix(rng: random.Random):
    """Small random matrix with negative equations for the rewrite half of
    action enumeration, over few symbols so that rules often apply: sides
    headed by a function symbol or a constant, which are rewrite rules, and
    bare-variable sides (as in `f(X)!=X` read right to left), which are
    not, and goals with variable subterms.  Has at least one all-positive
    start clause.  Returned with the text it was parsed from."""
    from mctab.problems import parse_problem

    def literal():
        if rng.random() < 0.4:
            return f"{_random_eq_term(rng, 2)}!={_random_eq_term(rng, 1)}"
        sign = "-" if rng.random() < 0.5 else ""
        return f"{sign}{rng.choice('pq')}({_random_eq_term(rng, 2)})"

    while True:
        lines = [" | ".join(literal() for _ in range(rng.randint(1, 3))) + "."
                 for _ in range(rng.randint(3, 7))]
        text = "\n".join(lines) + "\n"
        m = parse_problem(text)
        if m.start_ids:
            return m, text


def check_tree_invariants(tree):
    """Parent/child tables inverse; open-node visits sum over children."""
    for node in tree.nodes:
        for cid in node.children.values():
            assert tree.nodes[cid].parent == node.id
        assert node.parent is None or node.id in tree.nodes[node.parent].children.values()
        if node.state.result == 0:
            expected = 1 + sum(tree.nodes[c].visits for c in node.children.values())
            assert node.visits == expected, (node.id, node.visits, expected)
        else:
            assert not node.children
        assert node.reward <= node.visits + 1e-9


class RewardReplay:
    """Shadow accounting that recomputes every node's total reward."""

    def __init__(self, tree):
        self.init_reward = {n.id: n.reward for n in tree.nodes}
        self.backprop = {n.id: 0.0 for n in tree.nodes}
        self.known = len(tree.nodes)

    def after_playout(self, tree, end_id):
        end = tree.nodes[end_id]
        if len(tree.nodes) > self.known:  # a node was expanded
            assert len(tree.nodes) == self.known + 1
            self.known += 1
            self.init_reward[end_id] = end.reward
            self.backprop[end_id] = 0.0
            reward = end.reward
            start = end.parent
        else:
            reward = 1.0 if end.state.result == 1 else 0.0
            start = end_id
        cur = start
        while cur is not None:
            self.backprop[cur] += reward
            cur = tree.nodes[cur].parent

    def check(self, tree):
        for node in tree.nodes:
            expected = self.init_reward[node.id] + self.backprop[node.id]
            assert abs(node.reward - expected) < 1e-9, (node.id, node.reward, expected)


# ---------------------------------------------------------------------------
# reference action enumerator

def reference_valid_actions(m, goals, path, cfg, next_var) -> tuple:
    """Action enumeration by testing against clause copies renamed to fresh
    variables from `next_var` on, the way the calculus used to do it."""
    def renamed(clause):
        fresh = {i: Var(next_var + i) for i in range(len(clause.var_names))}
        return [
            Literal(l.positive, l.predicate, tuple(oracle_apply(fresh, a) for a in l.args))
            for l in clause.literals
        ]

    if not goals:
        return ()
    head = goals[0]
    neg_head = Literal(not head.positive, head.predicate, head.args)
    out = []
    for clause in m.clauses:
        for j, lit in enumerate(renamed(clause)):
            if lit.positive != head.positive and reference_unify(neg_head, lit) is not None:
                out.append(ExtAction(clause.id, j))
    for k, plit in enumerate(path):
        if plit.positive != head.positive and reference_unify(neg_head, plit) is not None:
            out.append(RedAction(k))
    if cfg.rewrite:
        for clause in m.clauses:
            for j, lit in enumerate(renamed(clause)):
                if lit.positive or lit.predicate != EQ or len(lit.args) != 2:
                    continue
                left, right = lit.args
                for direction, src, dst in (("LR", left, right), ("RL", right, left)):
                    if isinstance(src, Var):
                        continue  # not a rewrite rule: its source is a variable
                    for pos in [p for p, _ in literal_subterms(head)]:
                        sub = literal_subterm(head, pos)
                        sigma = match_term(src, sub)
                        if sigma is not None and oracle_apply(sigma, dst) != sub:
                            out.append(RewAction(clause.id, j, direction, pos))
    return tuple(out)


def reference_apply_action(m, s, action) -> bool:
    """`calculus._apply_on_work` as it was: rename the whole clause from
    `next_var` on, unify the chosen literal with the negated head, resolve
    the head, then resolve the renamed side literals, a second walk over
    each.  Works in place on `s`, as the step does: the head stays in the
    goals until `bind`, which measures it, and False when `bind` finds a
    literal beyond the term bounds.  A start choice renames its clause the
    same way and makes it the goals, its step the first of the proof."""
    if isinstance(action, StartAction):
        clause = m.clauses[action.clause_id]
        offset = s.next_var
        s.goals = tuple(oracle_rename(l, offset) for l in clause.literals)
        s.next_var = offset + len(clause.var_names)
        s.proof += (StartStep(clause.id, tuple((n, offset + i)
                                               for i, n in enumerate(clause.var_names))),)
        return True
    head = s.goals[0]
    if isinstance(action, RedAction):
        plit = s.path[action.path_index]
        delta = unify_literals(Literal(not head.positive, head.predicate, head.args), plit)
        if not s.bind(delta, s.next_var):
            return False
        s.goals = s.goals[1:]
        s.proof += (RedStep(resolve_literal(delta, head), resolve_literal(delta, plit)),)
        return True
    clause = m.clauses[action.clause_id]
    offset = s.next_var
    renamed = tuple(oracle_rename(l, offset) for l in clause.literals)
    s.next_var = offset + len(clause.var_names)
    varmap = tuple((n, offset + i) for i, n in enumerate(clause.var_names))
    j = action.lit_index
    lit, rest = renamed[j], renamed[:j] + renamed[j + 1 :]
    if isinstance(action, ExtAction):
        delta = unify_literals(Literal(not head.positive, head.predicate, head.args), lit)
        if not s.bind(delta, offset):
            return False
        s.goals = s.goals[1:]
        head2 = resolve_literal(delta, head)
        if s.goals:
            s.todos = ((s.goals, s.path, (head2,) + s.lemmas),) + s.todos
        s.goals = resolve_literals(delta, rest)
        s.path = (head2,) + s.path
        s.proof += (ExtStep(action.clause_id, varmap, head2),)
        return True
    left, right = lit.args
    src, dst = (left, right) if action.direction == "LR" else (right, left)
    sigma = match_term(src, literal_subterm(head, action.position))
    goal_after = literal_replace(head, action.position, resolve_term(sigma, dst))
    sides = resolve_literals(sigma, rest)
    s.bind(sigma, offset)
    s.goals = s.goals[1:]
    if s.goals:
        s.todos = ((s.goals, s.path, s.lemmas),) + s.todos
    s.goals = (goal_after,) + sides
    s.path = (head,) + s.path
    s.proof += (
        RewStep(action.clause_id, varmap, resolve_literal(sigma, lit), action.direction,
                head, goal_after, sides),
    )
    return True


# ---------------------------------------------------------------------------
# reference goal statistics

def reference_term_stats(goals) -> tuple:
    """`term_stats` as three recursive walks per literal, the way the library
    used to compute it: size, depth and symbol count each walk on their own."""
    def size(t):
        return 1 if isinstance(t, Var) else 1 + sum(size(a) for a in t.args)

    def depth(t):
        return 1 if isinstance(t, Var) or not t.args else 1 + max(depth(a) for a in t.args)

    def symbols(t):
        return 0 if isinstance(t, Var) else 1 + sum(symbols(a) for a in t.args)

    total = max_size = max_depth = n_symbols = 0
    for lit in goals:
        n = 1 + sum(size(a) for a in lit.args)
        total += n
        max_size = max(max_size, n)
        max_depth = max(max_depth, 1 + max((depth(a) for a in lit.args), default=0))
        n_symbols += 1 + sum(symbols(a) for a in lit.args)
    return total, max_size, max_depth, n_symbols


# ---------------------------------------------------------------------------
# deep model files

def deep_model_text(depth: int, dim: int) -> str:
    """A model of two trees, each a chain of `depth` splits on feature 0: the
    first nests on the left, the second on the right.  A vector without
    feature 0 reaches the innermost leaf (0.25) of both."""
    left_chain = "N 0 0.5 L " * depth + "L 0.25" + " L -1.0" * depth
    right_chain = "N 0 0.5 R L -1.0 " * depth + "L 0.25"
    return f"GBT v1 dim={dim} eta=0.5 base=0.0\n{left_chain}\n{right_chain}\n"


# ---------------------------------------------------------------------------
# guided hot path oracles

def reference_next_action(node) -> int:
    """The action `_expand` took by scanning every prior: the unexpanded one
    with the largest prior, the lowest index among equal priors."""
    unexpanded = [i for i in range(len(node.child_priors)) if i not in node.children]
    return max(unexpanded, key=lambda i: (node.child_priors[i], -i))


def reference_select_child(tree, node, cp: float):
    """A playout's choice of child, scanning the children sorted by action
    index: the first live child with the largest UCT score, and that score."""
    best = None
    best_score = -math.inf
    log_visits = math.log(node.visits)
    for ai in sorted(node.children):
        child = tree.nodes[node.children[ai]]
        if child.dead:
            continue
        score = uct_score(child, log_visits, cp)
        if score > best_score:
            best_score = score
            best = child
    return best, best_score


def reference_descend(tree, cp: float):
    """The node a playout expands, found with the oracles above: the bigstep
    root while it has an unexpanded action; below it, the first node whose
    pool of unexpanded actions beats its best live child, or that has no
    live child.  The pool scores as UCT with a zero value term, one virtual
    visit and the largest unexpanded prior."""
    node = tree.nodes[tree.bigstep_root]
    while True:
        unexpanded = len(node.children) < len(node.child_priors)
        if unexpanded and node.id == tree.bigstep_root:
            return node
        best, best_score = reference_select_child(tree, node, cp)
        if unexpanded:
            prior = node.child_priors[reference_next_action(node)]
            pool = cp * prior * math.sqrt(math.log(node.visits)) if node.visits > 1 else 0.0
            if best is None or pool > best_score:
                return node
        node = best


def reference_priors(guidance, s) -> list:
    """`ModelGuidance.priors` with one policy prediction per action."""
    from mctab.guidance import priors_from_predictions

    ex = guidance.extractor
    scores = [guidance.policy_model.predict(ex.action_features(s, ex.action_key(s, a)))
              for a in s.actions]
    return priors_from_predictions(scores, guidance.temperature)


# ---------------------------------------------------------------------------
# checker oracle: DPLL recursing once per decision

def reference_dpll(clauses, assignment):
    from mctab.checker import _simplify

    clauses = _simplify(clauses, assignment)
    if clauses is None:
        return None
    if not clauses:
        return assignment
    counts: dict = {}
    for clause in clauses:
        for lit in clause:
            counts[lit] = counts.get(lit, 0) + 1
    branch = max(sorted(counts), key=lambda l: counts[l])
    for choice in (branch > 0, branch <= 0):
        trial = dict(assignment)
        trial[abs(branch)] = choice
        model = reference_dpll(clauses, trial)
        if model is not None:
            return model
    return None


# ---------------------------------------------------------------------------
# learner oracle: the trainer that gathered and sorted each node's columns

def _reference_best_split(row_ids, grad, hess, entries_of, lam, g_total, h_total):
    n = len(row_ids)
    cols: dict = {}
    for i in row_ids:
        for f, v in entries_of[i].items():
            if v != 0.0:  # missing, as routing has it
                cols.setdefault(f, []).append((v, i))
    parent = g_total * g_total / (h_total + lam)
    best = None
    best_gain = 1e-12
    for f in sorted(cols):
        col = sorted(cols[f])
        g_present = 0.0
        h_present = 0.0
        for _, i in col:
            g_present += grad[i]
            h_present += hess[i]
        g_miss = g_total - g_present
        h_miss = h_total - h_present
        n_miss = n - len(col)
        g_left = 0.0
        h_left = 0.0
        n_left = 0
        k = 0
        while k < len(col):
            value = col[k][0]
            while k < len(col) and col[k][0] == value:
                g_left += grad[col[k][1]]
                h_left += hess[col[k][1]]
                n_left += 1
                k += 1
            for default_left in (True, False):
                if default_left:
                    gl, hl, nl = g_left + g_miss, h_left + h_miss, n_left + n_miss
                else:
                    gl, hl, nl = g_left, h_left, n_left
                nr = n - nl
                if nl == 0 or nr == 0:
                    continue
                gr = g_total - gl
                hr = h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, value, default_left)
    return best


def _reference_build_tree(row_ids, grad, hess, entries_of, cfg, depth):
    g_total = left_sum(grad[i] for i in row_ids)
    h_total = left_sum(hess[i] for i in row_ids)
    leaf = _Node(weight=-g_total / (h_total + cfg.reg_lambda))
    if depth >= cfg.max_depth or len(row_ids) < 2:
        return leaf
    found = _reference_best_split(row_ids, grad, hess, entries_of, cfg.reg_lambda, g_total, h_total)
    if found is None:
        return leaf
    _, feature, threshold, default_left = found
    left_ids, right_ids = [], []
    for i in row_ids:
        value = entries_of[i].get(feature)
        if value is None or value == 0.0:
            (left_ids if default_left else right_ids).append(i)
        elif value <= threshold:
            left_ids.append(i)
        else:
            right_ids.append(i)
    node = _Node(feature=feature, threshold=threshold, default_left=default_left)
    node.left = _reference_build_tree(left_ids, grad, hess, entries_of, cfg, depth + 1)
    node.right = _reference_build_tree(right_ids, grad, hess, entries_of, cfg, depth + 1)
    return node


def reference_train(data, cfg):
    """`gbt.train` as it was before it sorted each column once: every split
    search gathers the node's columns from the row dicts and sorts them.  The
    code is the old code, except that its float sums are `gbt.left_sum`, the
    left-to-right addition `sum` did up to Python 3.11, and that its split
    search leaves 0.0 entries out as missing, as routing does."""
    if not data.rows:
        raise DatasetError("cannot train on an empty dataset")
    n = len(data.rows)
    entries_of = [entries for entries, _ in data.rows]
    target = [t for _, t in data.rows]
    weight = [1.0] * n
    pos = sum(1 for t in target if t > 0)
    neg = n - pos
    if pos and neg and pos != neg:
        factor = max(pos, neg) / min(pos, neg)
        minority_positive = pos < neg
        weight = [factor if ((t > 0) == minority_positive) else 1.0 for t in target]
    holdout = [i for i in range(n) if i % 10 == 9]
    train_ids = [i for i in range(n) if i % 10 != 9]
    watch = holdout if holdout else train_ids
    base_num = left_sum(weight[i] * target[i] for i in train_ids)
    base_den = left_sum(weight[i] for i in train_ids)
    base = base_num / base_den
    pred = [base] * n
    grad = [0.0] * n
    hess = [0.0] * n
    history = TrainHistory()
    trees = []
    best = _rmse(watch, pred, target, weight)
    best_round = -1
    for rnd in range(cfg.rounds):
        for i in train_ids:
            grad[i] = weight[i] * (pred[i] - target[i])
            hess[i] = weight[i]
        tree = _reference_build_tree(train_ids, grad, hess, entries_of, cfg, 0)
        trees.append(tree)
        for i in range(n):
            pred[i] += cfg.eta * tree.evaluate(entries_of[i])
        history.train_rmse.append(_rmse(train_ids, pred, target, weight))
        score = _rmse(watch, pred, target, weight)
        history.holdout_rmse.append(score)
        if score < best - 1e-12:
            best = score
            best_round = rnd
        if rnd - best_round >= cfg.patience:
            break
    history.best_round = best_round
    history.best_rmse = best
    model = GbtModel(dim=data.dim, eta=cfg.eta, base=base, trees=trees[: best_round + 1])
    model.history = history
    return model


# ---------------------------------------------------------------------------
# trust-boundary readers as they were: the character-loop tokenizer, and the
# trace reader that numbered trace variables in a map of its own

_PUNCT = {"(", ")", ",", "|", ".", "-", "=", "#"}


def reference_tokenize(text: str):
    tokens = []  # (kind, value, line, col)
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "!" and i + 1 < n and text[i + 1] == "=":
            tokens.append(("!=", "!=", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append((c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Skolems:
    """Sends each trace variable name to a `_sk<n>` constant, numbered in
    order of first occurrence; `fresh` continues the same count."""

    def __init__(self):
        self.constants: dict = {}  # variable name -> constant
        self.count = 0

    def fresh(self) -> Term:
        self.count += 1
        return App(f"_sk{self.count - 1}")

    def freeze(self, node: Term, names) -> Term:
        if isinstance(node, Var):
            name = names[node.id]
            if name not in self.constants:
                self.constants[name] = self.fresh()
            return self.constants[name]
        if not node.args:
            return node
        return App(node.symbol, tuple(self.freeze(a, names) for a in node.args))


# the one edit to the old code: a field parser's variable names, once its
# `var_names` list, are the keys of its `vars` table
def _reference_field_literal(text: str, skolems: _Skolems) -> Literal:
    parser = _Parser(text)
    lit = parser.parse_literal()
    if parser.peek()[0] != "eof":
        raise TraceError(f"trailing input in literal {text!r}")
    args = tuple(skolems.freeze(a, list(parser.vars)) for a in lit.args)
    return Literal(lit.positive, lit.predicate, args)


def _reference_theta(text: str, skolems: _Skolems) -> dict:
    if not (text.startswith("{") and text.endswith("}")):
        raise TraceError(f"malformed substitution {text!r}")
    parser = _Parser(text[1:-1])
    theta: dict = {}
    while parser.peek()[0] != "eof":
        if theta:
            parser.expect(",")
        name = parser.expect("ident")[1]
        parser.expect("=")
        if name in theta:
            raise TraceError(f"{name} is bound twice")
        theta[name] = skolems.freeze(parser.parse_term(), list(parser.vars))
    return theta


def reference_parse_trace(text: str):
    """Parse a proof trace into its list of ground steps.  Also returns a
    `fresh()` that makes constants occurring nowhere in the steps."""
    skolems = _Skolems()
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        try:
            kind = fields[0]
            if kind == "start" and len(fields) == 3:
                steps.append(Start(int(fields[1]), _reference_theta(fields[2], skolems)))
            elif kind == "ext" and len(fields) == 4:
                steps.append(
                    Ext(int(fields[1]), _reference_theta(fields[2], skolems),
                        _reference_field_literal(fields[3], skolems))
                )
            elif kind == "red" and len(fields) == 3:
                steps.append(
                    Red(_reference_field_literal(fields[1], skolems),
                        _reference_field_literal(fields[2], skolems))
                )
            elif kind == "lem" and len(fields) == 2:
                steps.append(Lem(_reference_field_literal(fields[1], skolems)))
            elif kind == "rew" and len(fields) >= 7:
                steps.append(
                    Rew(
                        int(fields[1]),
                        _reference_theta(fields[2], skolems),
                        _reference_field_literal(fields[3], skolems),
                        fields[4],
                        _reference_field_literal(fields[5], skolems),
                        _reference_field_literal(fields[6], skolems),
                        [_reference_field_literal(f, skolems) for f in fields[7:]],
                    )
                )
            else:
                raise TraceError(f"unrecognized step {stripped!r}")
        except (ValueError, ParseError, TraceError) as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    if not steps:
        raise TraceError("empty proof trace")
    return steps, skolems.fresh
