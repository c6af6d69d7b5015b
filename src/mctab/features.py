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
from .calculus import ExtAction, ProverState, RedAction, StartAction
from .problems import Matrix
from .terms import Literal, Term, Var, fnv1a64, term_stats


def _sym(t: Term) -> str:
    return "*" if isinstance(t, Var) else t.symbol


def _children(t: Term) -> tuple:
    return () if isinstance(t, Var) else t.args


def _skeleton(t: Term):
    """`t` with every variable erased to `*`, which no `App` equals."""
    if isinstance(t, Var):
        return "*"
    if not t.args:
        return t
    return (t.symbol, tuple(map(_skeleton, t.args)))


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


def _action_walks(m: Matrix, key: tuple, out: dict):
    """The `a:` region of an action from its `FeatureExtractor.action_key`
    alone: walks that depend on the action, never on goals."""
    if key[0] == "ext":
        for lit in m.clauses[key[1]].literals:
            _literal_walks(lit, "a:ext:", out)
    elif key[0] == "red":
        _literal_walks(key[1], "a:red:", out)
    else:
        _, clause_id, j, direction = key
        _literal_walks(m.clauses[clause_id].literals[j], f"a:rew:{direction}:", out)


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
    `raw_features` token multiset is the oracle in `tests/helpers.py`.  It
    gives each literal it meets the id of its skeleton: its polarity,
    predicate and arguments with every variable erased.  The walks never
    read a variable id, so a literal's compressed walks are memoised per
    tag and skeleton id, and a state's vector is its `n:`/`top:` scalars
    plus the walks of each goal (`g:`) and path literal (`p:`).  The
    scalars, too, depend only on the skeletons and on how many goals and
    path literals there are, so `state_key`, the skeleton ids of goals and
    path, is an exact key of the vector that needs no vector.  `_last` is
    the package's one per-state memo: it holds the last state asked about,
    its key and, once built, its vector, whose walks take their ids from
    that key, so each of a state's literals is looked up once.  An action's
    vector is its state's vector plus an `a:` delta, built from its
    `action_key` alone and memoised by it, so that memo is exact by
    construction.  The sum is exact: the regions are disjoint, compress is
    additive, and every value is an integer-valued float, so it does not
    round.  Token buckets are memoised too; every memo lives for one
    problem."""

    def __init__(self, m: Matrix, dim: int):
        if dim <= 0:
            raise ValueError("feature dimension must be positive")
        self.matrix = m
        self.dim = dim
        self._buckets: dict = {}  # token -> bucket
        self._ids: dict = {}  # literal -> its skeleton id
        self._skeletons: dict = {}  # skeleton -> id
        self._walks: dict = {}  # (tag, skeleton id) -> entries of its walks
        self._deltas: dict = {}  # action key -> entries of the a: region
        # the search asks a state's value and then its priors
        self._last: tuple = (None, None, None)  # (state, its key, its vector or None)

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

    def _id(self, lit: Literal) -> int:
        i = self._ids.get(lit)
        if i is None:
            skeleton = (lit.positive, lit.predicate, tuple(map(_skeleton, lit.args)))
            i = self._ids[lit] = self._skeletons.setdefault(skeleton, len(self._skeletons))
        return i

    def _add_walks(self, entries: dict, tag: str, lits: tuple, ids: tuple):
        for lit, i in zip(lits, ids):
            key = (tag, i)
            walks = self._walks.get(key)
            if walks is None:
                raw: dict = {}
                _literal_walks(lit, tag, raw)
                walks = self._walks[key] = self._compress(raw)
            for idx, value in walks.items():
                entries[idx] = entries.get(idx, 0.0) + value

    def state_features(self, s: ProverState) -> dict:
        key = self.state_key(s)
        entries = self._last[2]
        if entries is None:
            entries = self._compress(_scalars(s.goals, s.path))
            self._add_walks(entries, "g:", s.goals, key[0])
            self._add_walks(entries, "p:", s.path, key[1])
            self._last = (s, key, entries)
        return entries

    def state_key(self, s: ProverState) -> tuple:
        """The skeleton ids of the goals and of the path, in order: states
        with one key have one vector."""
        if self._last[0] is not s:
            key = tuple(map(self._id, s.goals)), tuple(map(self._id, s.path))
            self._last = (s, key, None)
        return self._last[1]

    @staticmethod
    def action_key(s: ProverState, action) -> tuple:
        """What the `a:` delta depends on: clause, path literal or rewrite.
        A start choice walks its clause as an extension into it does."""
        if isinstance(action, (ExtAction, StartAction)):
            return ("ext", action.clause_id)
        if isinstance(action, RedAction):
            return ("red", s.path[action.path_index])
        return ("rew", action.clause_id, action.lit_index, action.direction)

    def action_features(self, s: ProverState, key: tuple) -> dict:
        """The vector of the action of `s` whose `action_key` is `key`."""
        delta = self._deltas.get(key)
        if delta is None:
            raw: dict = {}
            _action_walks(self.matrix, key, raw)
            delta = self._deltas[key] = self._compress(raw)
        entries = dict(self.state_features(s))
        for idx, value in delta.items():
            entries[idx] = entries.get(idx, 0.0) + value
        return entries
