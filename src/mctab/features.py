"""Sparse features: term walks up to length 3 plus scalars, hashed to dimension d.

Walk tokens are vertical root-to-descendant symbol chains with variables
abstracted to a shared `*` token and literal polarity folded into the
predicate symbol.  Regions are tag-prefixed (`g:` goals, `p:` path, `a:...`
action) and share one hashed space: token j lands in bucket fnv1a64(j) mod d
and colliding tokens sum.  A vector is a plain dict from bucket to value:
buckets lie below d, values are finite and positive.
"""

from __future__ import annotations

from . import terms
from .calculus import ExtAction, ProverState, RedAction
from .problems import Matrix
from .terms import Literal, Term, Var, fnv1a64, term_stats


def _sym(t: Term) -> str:
    return "*" if isinstance(t, Var) else t.symbol


def _children(t: Term) -> tuple:
    return () if isinstance(t, Var) else t.args


def _add(out: dict, token: str, value: float = 1.0):
    out[token] = out.get(token, 0.0) + value


def _walks_from(label: str, children: tuple, tag: str, out: dict):
    _add(out, tag + label)
    for c in children:
        c_label = _sym(c)
        _add(out, tag + label + "." + c_label)
        for cc in _children(c):
            _add(out, tag + label + "." + c_label + "." + _sym(cc))


def _literal_walks(lit: Literal, tag: str, out: dict):
    root = lit.predicate if lit.positive else "~" + lit.predicate
    _walks_from(root, lit.args, tag, out)
    stack = list(lit.args)
    while stack:
        t = stack.pop()
        _walks_from(_sym(t), _children(t), tag, out)
        stack.extend(_children(t))


def _count_symbols(lit: Literal, counts: dict):
    counts[lit.predicate] = counts.get(lit.predicate, 0) + 1
    stack = list(lit.args)
    while stack:
        t = stack.pop()
        if not isinstance(t, Var):
            counts[t.symbol] = counts.get(t.symbol, 0) + 1
            stack.extend(t.args)


def _action_walks(m: Matrix, path: tuple, action, out: dict):
    """The `a:` region: walks that depend on the action alone, never on goals."""
    if isinstance(action, ExtAction):
        for lit in m.clauses[action.clause_id].literals:
            _literal_walks(lit, "a:ext:", out)
    elif isinstance(action, RedAction):
        _literal_walks(path[action.path_index], "a:red:", out)
    else:
        eq = m.clauses[action.clause_id].literals[action.lit_index]
        _literal_walks(eq, f"a:rew:{action.direction}:", out)


def _scalars(goals: tuple, path: tuple) -> dict:
    """The `n:` counts and the two most frequent goal symbols as `top:`."""
    total, max_size, max_depth, symbols = term_stats(goals)
    out = {"n:goals": float(len(goals)), "n:symbols": float(symbols),
           "n:maxsize": float(max_size), "n:maxdepth": float(max_depth),
           "n:pathlen": float(len(path))}
    counts: dict = {}
    for lit in goals:
        _count_symbols(lit, counts)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
    for name, _ in top:
        _add(out, "top:" + name)
    return out


def compress(raw: dict, dim: int) -> dict:
    """Index-modulo hashing; colliding tokens sum, zero values drop out."""
    if dim <= 0:
        raise ValueError("feature dimension must be positive")
    entries: dict = {}
    for token, value in raw.items():
        if value == 0.0:
            continue
        idx = fnv1a64(token) % dim
        entries[idx] = entries.get(idx, 0.0) + value
    return entries


class FeatureExtractor:
    """Per-problem extractor equal to `compress(raw_features(...))`, whose
    `raw_features` token multiset is the oracle in `tests/helpers.py`.  It is
    built from compressed pieces: a state's vector is its `n:`/`top:`
    scalars plus the walk entries of each goal (`g:`) and path literal
    (`p:`), memoised per tag and literal; an action's vector is its state's
    vector plus an `a:` delta, memoised by `action_key`.  This is exact: the
    regions are disjoint, compress is additive, and every value is an
    integer-valued float, so the sums do not round.  Token buckets are
    memoised too; every memo lives for one problem."""

    def __init__(self, m: Matrix, dim: int):
        if dim <= 0:
            raise ValueError("feature dimension must be positive")
        self.matrix = m
        self.dim = dim
        self._buckets: dict = {}  # token -> bucket
        self._walks: dict = {}  # (tag, literal) -> entries of its walks
        self._deltas: dict = {}  # action key -> entries of the a: region
        # the search scores a state's value and then its actions' priors
        self._last: tuple = (None, None, None)  # (state, its vector, its key or None)

    def _compress(self, raw: dict) -> dict:
        buckets = self._buckets
        entries: dict = {}
        for token, value in raw.items():
            if value == 0.0:
                continue
            idx = buckets.get(token)
            if idx is None:
                idx = buckets[token] = terms.fnv1a64(token) % self.dim
            entries[idx] = entries.get(idx, 0.0) + value
        return entries

    def _add_walks(self, entries: dict, tag: str, lits: tuple):
        for lit in lits:
            walks = self._walks.get((tag, lit))
            if walks is None:
                raw: dict = {}
                _literal_walks(lit, tag, raw)
                walks = self._walks[tag, lit] = self._compress(raw)
            for idx, value in walks.items():
                entries[idx] = entries.get(idx, 0.0) + value

    def state_features(self, s: ProverState) -> dict:
        state, entries, _ = self._last
        if state is not s:
            entries = self._compress(_scalars(s.goals, s.path))
            self._add_walks(entries, "g:", s.goals)
            self._add_walks(entries, "p:", s.path)
            self._last = (s, entries, None)
        return entries

    def state_key(self, s: ProverState) -> tuple:
        """The buckets of `state_features(s)` in order, then its values as
        ints: equal keys are equal vectors, since every value is an integer."""
        state, entries, key = self._last
        if state is not s:
            entries, key = self.state_features(s), None
        if key is None:
            key = (*entries, *map(int, entries.values()))
            self._last = (s, entries, key)
        return key

    @staticmethod
    def action_key(s: ProverState, action) -> tuple:
        """What the `a:` delta depends on: clause, path literal or rewrite."""
        if isinstance(action, ExtAction):
            return ("ext", action.clause_id)
        if isinstance(action, RedAction):
            return ("red", s.path[action.path_index])
        return ("rew", action.clause_id, action.lit_index, action.direction)

    def action_features(self, s: ProverState, action) -> dict:
        key = self.action_key(s, action)
        delta = self._deltas.get(key)
        if delta is None:
            raw: dict = {}
            _action_walks(self.matrix, s.path, action, raw)
            delta = self._deltas[key] = self._compress(raw)
        entries = dict(self.state_features(s))
        for idx, value in delta.items():
            entries[idx] = entries.get(idx, 0.0) + value
        return entries
