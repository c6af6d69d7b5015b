"""First-order terms, literals, substitutions and unification with occurs check.

Terms are immutable values.  Variables are integers wrapped in Var; function
symbols and constants are App nodes (a constant is an App with no arguments).
Var, App and Literal are named tuples, so equality, hashing and construction
run in C; equality and hash are those of the field tuple, as for frozen
dataclasses.  Never mix them with plain tuples or other named tuples in one
collection: `Var(1) == (1,)` holds, and so does `Var(1) == RedAction(1)`.
Substitutions are plain dicts from variable id to Term, in one format:
triangular.  Each binding is kept as it was made and may mention a variable
another binding binds, earlier or later; nothing normalizes it.  The unifier
returns its bindings in the order it made them.

Three walks apply a substitution or a renaming.  `shift_term` and
`shift_literal` add `k` to every variable id, which renames a clause, whose
variables are 0..n-1, apart from a state's.  `resolve_term` and
`resolve_literal` apply any substitution by following bindings to a
fixpoint, and keep the identity of untouched subtrees.  `instantiate_term`
and `instantiate_literal` do both at once, shift by `k` and resolve under
`s`, in one walk: the calculus builds a clause's side literals with them.
Each walk recurses one frame per level of the term it builds, through `map`;
the calculus keeps those terms a few times `problems.MAX_TERM_DEPTH` deep at
most, so the walks fit the default recursion limit.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_
from typing import Iterable, NamedTuple, Optional, Union


class Var(NamedTuple):
    id: int


class App(NamedTuple):
    symbol: str
    args: tuple = ()


Term = Union[Var, App]

Subst = dict  # variable id -> Term

# the C call a named tuple's Python-level __new__ wraps; the walks build with it
_new = tuple.__new__


class Literal(NamedTuple):
    positive: bool
    predicate: str
    args: tuple = ()


# ---------------------------------------------------------------------------
# substitution application

def shift_term(t: Term, k: int) -> Term:
    """`t` with `k` added to every variable id."""
    if isinstance(t, Var):
        return _new(Var, (t.id + k,))
    if not t.args:
        return t
    return _new(App, (t.symbol, tuple(map(shift_term, t.args, repeat(k)))))


def shift_literal(lit: Literal, k: int) -> Literal:
    if not lit.args:
        return lit
    args = tuple(map(shift_term, lit.args, repeat(k)))
    return _new(Literal, (lit.positive, lit.predicate, args))


def resolve_term(s: Subst, t: Term) -> Term:
    """`t` under `s`, bindings followed to a fixpoint; untouched subtrees
    keep their identity.  A chain of variable bindings is followed in a
    loop, so the walk recurses once per level of the result only."""
    while isinstance(t, Var):
        bound = s.get(t.id)
        if bound is None:
            return t
        t = bound
    if not t.args:
        return t
    args = tuple(map(resolve_term, repeat(s), t.args))
    if all(map(is_, args, t.args)):
        return t
    return _new(App, (t.symbol, args))


def resolve_literal(s: Subst, lit: Literal) -> Literal:
    args = tuple(map(resolve_term, repeat(s), lit.args))
    if all(map(is_, args, lit.args)):
        return lit
    return _new(Literal, (lit.positive, lit.predicate, args))


def resolve_literals(s: Subst, lits: Iterable[Literal]) -> tuple:
    return tuple(map(resolve_literal, repeat(s), lits))


def instantiate_term(t: Term, k: int, s: Subst) -> Term:
    """`resolve_term(s, shift_term(t, k))` in one walk: a shifted variable
    is looked up in `s` as it is made."""
    if isinstance(t, Var):
        bound = s.get(t.id + k)
        return _new(Var, (t.id + k,)) if bound is None else resolve_term(s, bound)
    if not t.args:
        return t
    return _new(App, (t.symbol, tuple(map(instantiate_term, t.args, repeat(k), repeat(s)))))


def instantiate_literal(lit: Literal, k: int, s: Subst) -> Literal:
    """`resolve_literal(s, shift_literal(lit, k))` in one walk."""
    if not lit.args:
        return lit
    args = tuple(map(instantiate_term, lit.args, repeat(k), repeat(s)))
    return _new(Literal, (lit.positive, lit.predicate, args))


# ---------------------------------------------------------------------------
# unification

def is_ground_term(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(map(is_ground_term, t.args))


def is_ground_literal(lit: Literal) -> bool:
    return all(map(is_ground_term, lit.args))


def unify_literals(a: Literal, b: Literal) -> Optional[Subst]:
    """Most general unifier of two literals' argument lists, or None;
    polarity is ignored, so a goal unifies with the literals complementary
    to it as it stands, without a negated copy.  One stack holds every pair,
    the first argument on top and a term's last argument above its first.
    The result is triangular, each binding as made and in the order made, so
    a clash costs only the walk up to it and a success no rewrite."""
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    stack = list(zip(reversed(a.args), reversed(b.args)))
    s: Subst = {}
    while stack:
        x, y = stack.pop()
        while isinstance(x, Var) and x.id in s:
            x = s[x.id]
        while isinstance(y, Var) and y.id in s:
            y = s[y.id]
        if x is y:
            continue
        if isinstance(y, Var) and not isinstance(x, Var):
            x, y = y, x
        if isinstance(x, Var):
            if isinstance(y, App):
                if _occurs(s, x.id, y):
                    return None
            elif x.id == y.id:
                continue
            s[x.id] = y
        elif x.symbol != y.symbol or len(x.args) != len(y.args):
            return None
        else:
            stack.extend(zip(x.args, y.args))
    return s


def _occurs(s: Subst, v: int, t: Term) -> bool:
    """Whether variable `v` occurs in `t` under the triangular `s`.  Each
    binding is walked once: bindings such as {Y: f(X,X), Z: f(Y,Y)} share,
    and following every occurrence would cost the size of the term they
    resolve to, exponential in their number."""
    todo = [t]
    seen = set()
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            if t.id == v:
                return True
            if t.id in s and t.id not in seen:
                seen.add(t.id)
                todo.append(s[t.id])
        else:
            todo.extend(t.args)
    return False


def match_term(pattern: Term, subject: Term) -> Optional[Subst]:
    """One-sided matching: binds only variables of `pattern`, never of `subject`."""
    s: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = s.get(p.id)
            if bound is None:
                s[p.id] = t
            elif bound != t:
                return None
        elif isinstance(t, Var):
            return None
        else:
            if p.symbol != t.symbol or len(p.args) != len(t.args):
                return None
            stack.extend(zip(p.args, t.args))
    return s


# ---------------------------------------------------------------------------
# statistics

def term_stats(goals: Iterable[Literal]) -> tuple:
    """(total_size, max_size, max_depth, symbol_count) over a goal list.

    Size counts every symbol and variable occurrence; a constant or variable
    has depth 1.  symbol_count excludes variable occurrences.  Each literal
    is walked once, one nesting level at a time.
    """
    total = 0
    max_size = 0
    max_depth = 0
    symbols = 0
    for lit in goals:
        size = 1
        depth = 1
        symbols += 1
        level = lit.args
        while level:
            depth += 1
            size += len(level)
            below = []
            for t in level:
                if not isinstance(t, Var):
                    symbols += 1
                    below.extend(t.args)
            level = below
        total += size
        if size > max_size:
            max_size = size
        if depth > max_depth:
            max_depth = depth
    return total, max_size, max_depth, symbols


# ---------------------------------------------------------------------------
# positions and replacement (leftmost-outermost, 1-based argument indices)

def subterms(t: Term, pos: tuple = ()) -> list:
    """(position, subterm) pairs of `t` from one walk, `pos` prefixed."""
    out = [(pos, t)]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend(subterms(a, pos + (i,)))
    return out


def subterm_at(t: Term, pos: tuple) -> Term:
    for i in pos:
        if not isinstance(t, App) or i < 1 or i > len(t.args):
            raise IndexError(f"invalid position {pos!r}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: tuple, u: Term) -> Term:
    if not pos:
        return u
    if not isinstance(t, App) or pos[0] < 1 or pos[0] > len(t.args):
        raise IndexError(f"invalid position {pos!r}")
    i = pos[0] - 1
    args = list(t.args)
    args[i] = replace_at(args[i], pos[1:], u)
    return App(t.symbol, tuple(args))


def literal_subterms(lit: Literal) -> list:
    """`subterms` of every argument, excluding the predicate itself."""
    return [x for i, a in enumerate(lit.args, start=1) for x in subterms(a, (i,))]


def literal_subterm(lit: Literal, pos: tuple) -> Term:
    return subterm_at(lit.args[pos[0] - 1], pos[1:])


def literal_replace(lit: Literal, pos: tuple, u: Term) -> Literal:
    args = list(lit.args)
    args[pos[0] - 1] = replace_at(args[pos[0] - 1], pos[1:], u)
    return Literal(lit.positive, lit.predicate, tuple(args))


# ---------------------------------------------------------------------------
# FNV-1a, the token hash behind every feature bucket

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: str) -> int:
    h = _FNV_OFFSET
    for b in data.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h
