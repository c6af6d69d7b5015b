"""Connection-tableau state machine with explicit state.

A prover state carries the open goals of the active branch, the active path,
lemmas, a stack of saved frames for sibling branches, the accumulated proof
trace and substitution, and the list of valid actions.  A search starts
from one root state (`initial_states`); with several start clauses the
root's actions choose among them.  Applying an action
never mutates the parent state: the step works on a shallow copy of it and
only rebinds fields.  That copy is exact because every field is a tuple or
an int.  `subst` is a chain of the bindings each step made, `(delta,
parent chain)` down to `()`, so a child shares its parent's bindings and
keeps only its own; `flat_subst` builds the whole substitution for the few
readers that need it.  After every nondeterministic action the
deterministic simplifications run to a fixpoint (pop empty goals, loop
elimination by identity, lemma steps, reductions, forced single actions,
path limit).

Besides the path limit, one bound limits what the prover builds: a literal
deeper than `MAX_TERM_DEPTH` or larger than `MAX_TERM_SIZE` (problems) fails
its state.  `_fits` measures a literal under a substitution without building
it, only where a literal changes: on a head the first time `valid_actions`
meets it; in `bind`, on the head under the unifier before anything is
resolved and on the path and lemma literals resolving changed; and on a
proof's recorded literals under the whole substitution as its state becomes
PROVED, since a binding made later can still deepen a literal that has left
the branch.  Every binding of a unifier or match resolves to a subterm of
the head, so a step that passes adds less than the bound to any term it
walks.  A variable a live literal shares with the active branch occurs in
the head or in a path or lemma literal that stays on the branch while that
literal lives, so it resolves within the bound: a goal nests at most a
clause literal plus `MAX_TERM_DEPTH` deep and a rewritten head one bound
more, every walk fits the interpreter's default recursion limit, and every
emitted proof parses under the checker's depth bound.  Forced steps count
against `inference_limit` as they are made, so a settle chain ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import NamedTuple

from .config import Config
from .problems import MAX_TERM_DEPTH, MAX_TERM_SIZE, Matrix, format_literal, format_term
from .terms import (
    App,
    Literal,
    Subst,
    Var,
    instantiate_literal,
    is_ground_literal,
    literal_replace,
    literal_subterm,
    literal_subterms,
    match_term,
    resolve_literal,
    resolve_literals,
    resolve_term,
    unify_literals,
)

OPEN, PROVED, FAILED = 0, 1, -1

_NO_CANDIDATES = ((), (), {})


class NoStartClauseError(Exception):
    pass


# ---------------------------------------------------------------------------
# actions; these and the proof steps are named tuples like terms (see terms)

class StartAction(NamedTuple):
    clause_id: int


class ExtAction(NamedTuple):
    clause_id: int
    lit_index: int


class RedAction(NamedTuple):
    path_index: int


class RewAction(NamedTuple):
    clause_id: int
    lit_index: int
    direction: str  # "LR" rewrites left side to right, "RL" the reverse
    position: tuple


# ---------------------------------------------------------------------------
# proof steps; literal fields hold step-time instantiations and are finalized
# through the accumulated substitution when the trace is printed; like the
# actions, the calculus builds them with `tuple.__new__` (see terms._new)

class StartStep(NamedTuple):
    clause_id: int
    varmap: tuple  # ((source var name, fresh var id), ...)


class ExtStep(NamedTuple):
    clause_id: int
    varmap: tuple
    goal_lit: Literal


class RedStep(NamedTuple):
    goal_lit: Literal
    path_lit: Literal


class LemStep(NamedTuple):
    lit: Literal


class RewStep(NamedTuple):
    clause_id: int
    varmap: tuple
    eq_lit: Literal
    direction: str
    goal_before: Literal
    goal_after: Literal
    side_lits: tuple


@dataclass(slots=True)
class ProverState:
    goals: tuple
    path: tuple
    lemmas: tuple
    # saved sibling frames (goals, path, lemmas), each as it stood when saved;
    # bindings made since are only in subst, resolved when the frame resumes
    todos: tuple
    actions: tuple
    proof: tuple
    result: int
    # triangular: each binding as made, never rebound, as a chain of each
    # step's delta (see flat_subst); goals, path and lemmas are kept fully
    # applied, everything else goes through resolve_term
    subst: tuple
    next_var: int
    inference_count: int

    def copy(self) -> ProverState:
        return ProverState(*map(self.__getattribute__, self.__slots__))

    def bind(self, delta: Subst, bound: int) -> bool:
        """Link the triangular `delta` to subst and, when it binds a variable
        below `bound`, resolve the active branch through all of `delta`.  The
        branch is fully applied, so `delta` binds only free variables.  A
        step shifts its clause from `bound` on, so no fresh clause variable
        occurs in the branch (a rewrite's match binds only those), yet a
        branch variable may be bound to one that `delta` binds in turn:
        -p(X,X) against p(Y,f(a)) gives {X: Y, Y: f(a)}.

        `delta` unifies the head, goals[0], with a literal, so every binding
        resolves to a subterm of the head under `delta`.  The head is
        measured under `delta` before anything is resolved, and then every
        walk is bounded; the path and lemma literals it changed are checked
        after.  False when either is past the term bounds; the other goals
        are checked as they become the head."""
        if not delta:
            return True
        self.subst = delta, self.subst
        if min(delta) >= bound:
            return True
        if not _fits(self.goals[0], delta):
            return False
        before = self.path + self.lemmas
        self.goals = resolve_literals(delta, self.goals)
        self.path = resolve_literals(delta, self.path)
        self.lemmas = resolve_literals(delta, self.lemmas)
        after = self.path + self.lemmas
        # resolving keeps an unchanged literal itself
        return all(map(_fits, compress(after, map(is_not, after, before))))


_UNBOUND: Subst = {}


def flat_subst(chain: tuple) -> Subst:
    """The whole substitution of a binding chain: every delta's bindings,
    oldest first, each in the order made, as one dict.  No variable is
    bound twice, so this is the dict that `{**subst, **delta}` at each step
    would have built."""
    deltas = []
    while chain:
        delta, chain = chain
        deltas.append(delta)
    out: Subst = {}
    for delta in reversed(deltas):
        out.update(delta)
    return out


def _fits(lit: Literal, s: Subst = _UNBOUND) -> bool:
    """Whether `lit` under `s` is within the term bounds: at most
    MAX_TERM_DEPTH deep and MAX_TERM_SIZE symbols and variables, its
    predicate counting as one of each.  Measured without building it, a
    level at a time, and stopping at the first level past either bound, so
    a large literal costs about what the bounds allow."""
    depth, size, level = 1, 1, lit.args
    while level:
        depth += 1
        size += len(level)
        if depth > MAX_TERM_DEPTH or size > MAX_TERM_SIZE:
            return False
        below = []
        for t in level:
            while t.__class__ is Var and t.id in s:
                t = s[t.id]
            if t.__class__ is App:
                below += t.args
        level = below
    return True


# ---------------------------------------------------------------------------
# action enumeration

def valid_actions(m: Matrix, head: Literal, path: tuple, cfg: Config, next_var: int) -> tuple:
    """All applicable actions for `head`, the first goal of a state, which
    the settle loop has already tested for loop elimination, lemmas and
    identity reduction: extensions, then reductions, then rewrites.

    Extensions connect the head to a complementary input-clause literal;
    reductions to a complementary path literal (both under unification with
    occurs check).  Rewrite actions use a negative equational clause literal
    as an oriented rule whose left side matches a goal subterm; matching only
    instantiates the clause's variables.

    State variables are below `next_var`, so the head shifted by -next_var
    (instantiated under no bindings) has only negative ids and shares none
    with a clause's 0..k-1: clause literals are tested as they are, without
    a renamed copy.  Candidates come from the matrix's action index, in
    clause and literal order, so the cost follows the literals that could
    connect, not the matrix size: when the head's first argument is an
    application, only the literals whose first argument has its symbol and
    arity or is a variable.

    Extensions and rewrites do not depend on the path, and they are
    enumerated once per exact head literal and rewrite setting, then kept in
    `m.head_actions`.  The exact head is a sound key for any `next_var`:
    unification, matching and the no-op test compare variables only for
    identity, and every shift keeps the head's variables apart from the
    clause's.  The memo holds them as one tuple, extensions then rewrites,
    with the number of extensions; with no reduction on the path that tuple
    itself is returned, shared by every state with this head.  Reductions
    depend on the path and are computed on every call.  A head beyond the
    term bounds has no actions, so its state fails; it is checked once, on
    its miss.
    """
    key = head, cfg.rewrite
    known = m.head_actions.get(key)
    if known is None and not _fits(head):
        known = m.head_actions[key] = ()
    if known is None:
        shifted = instantiate_literal(head, -next_var, _UNBOUND)
        every, var_first, keyed = m.literal_index.get(
            (head.predicate, not head.positive, len(head.args)), _NO_CANDIDATES)
        first = head.args[0] if head.args else None
        candidates = (keyed.get((first.symbol, len(first.args)), var_first)
                      if isinstance(first, App) else every)
        ext = tuple(tuple.__new__(ExtAction, (clause_id, j))  # see terms._new
                    for lit, clause_id, j in candidates
                    if unify_literals(shifted, lit) is not None)
        rew = tuple(_rewrite_actions(m, shifted)) if cfg.rewrite and m.rewrite_rules else ()
        known = m.head_actions[key] = ext + rew, len(ext)
    if not known:
        return ()
    red = []
    for k, plit in enumerate(path):
        if plit.predicate != head.predicate or plit.positive == head.positive:
            continue
        if unify_literals(head, plit) is not None:
            red.append(tuple.__new__(RedAction, (k,)))
    actions, n_ext = known
    if not red:
        return actions
    return actions[:n_ext] + tuple(red) + actions[n_ext:]


def _rewrite_actions(m: Matrix, head: Literal) -> list:
    """Rewrites of `head`, whose variables must not occur in any clause.  A
    rule tries the subterms with its source's symbol and arity."""
    out = []
    buckets: dict = {}
    for pos, sub in literal_subterms(head):
        if not isinstance(sub, Var):
            buckets.setdefault((sub.symbol, len(sub.args)), []).append((pos, sub))
    for clause_id, j, direction, src, dst in m.rewrite_rules:
        for pos, sub in buckets.get((src.symbol, len(src.args)), ()):
            sigma = match_term(src, sub)
            if sigma is None:
                continue
            if resolve_term(sigma, dst) == sub:
                continue  # no-op rewrite
            out.append(tuple.__new__(RewAction, (clause_id, j, direction, pos)))
    return out


# ---------------------------------------------------------------------------
# steps; each works in place on a fresh copy of the parent state

def _apply_on_work(m: Matrix, s: ProverState, action) -> bool:
    """One nondeterministic step; counts no inference and does not settle.
    The action was enumerated from this state, so it applies.  False, and
    the step left unfinished, when `bind` puts a literal beyond the term
    bounds.

    A start step, taken only from a root with no goals, makes its clause's
    literals the goals as they are, the clause's variables 0..k-1.  An
    extension or a rewrite renames only the chosen clause literal to
    fresh variables from `next_var` on, by `instantiate_literal` under no
    bindings, and unifies it with the head (matches its source against a
    head subterm) as it stands.  That renaming, the other literals and the
    varmap depend only on the clause, the literal and `next_var`, and
    sibling steps share their parent's `next_var`: they are built once per
    key and kept in `m.renamed`.  The head stays in the goals until `bind`,
    so it is walked only when the unifier binds a branch variable; otherwise
    it is final.  Each side literal is shifted and resolved in one
    `instantiate_literal` walk."""
    if isinstance(action, StartAction):
        clause = m.clauses[action.clause_id]
        s.goals, s.next_var = clause.literals, len(clause.var_names)
        s.proof = (StartStep(action.clause_id, tuple(zip(clause.var_names, range(s.next_var)))),)
        return True
    if isinstance(action, RedAction):
        if not s.bind(unify_literals(s.goals[0], s.path[action.path_index]), s.next_var):
            return False
        s.proof += (tuple.__new__(RedStep, (s.goals[0], s.path[action.path_index])),)
        s.goals = s.goals[1:]
        return True
    offset = s.next_var
    key = action.clause_id, action.lit_index, offset
    renamed = m.renamed.get(key)
    if renamed is None:
        clause = m.clauses[action.clause_id]
        j = action.lit_index
        renamed = m.renamed[key] = (
            instantiate_literal(clause.literals[j], offset, _UNBOUND),
            clause.literals[:j] + clause.literals[j + 1 :],
            tuple(zip(clause.var_names, range(offset, offset + len(clause.var_names)))))
    lit, rest, varmap = renamed
    s.next_var = offset + len(varmap)
    if isinstance(action, ExtAction):
        delta = unify_literals(s.goals[0], lit)
        if not s.bind(delta, offset):
            return False
        head = s.goals[0]
        if len(s.goals) > 1:
            s.todos = ((s.goals[1:], s.path, (head,) + s.lemmas),) + s.todos
        s.goals = tuple(map(instantiate_literal, rest, repeat(offset), repeat(delta)))
        s.path = (head,) + s.path
        s.proof += (tuple.__new__(ExtStep, (action.clause_id, varmap, head)),)
        return True
    head = s.goals[0]
    left, right = lit.args
    src, dst = (left, right) if action.direction == "LR" else (right, left)
    sigma = match_term(src, literal_subterm(head, action.position))
    goal_after = literal_replace(head, action.position, resolve_term(sigma, dst))
    sides = tuple(map(instantiate_literal, rest, repeat(offset), repeat(sigma)))
    s.bind(sigma, offset)  # binds only clause variables, so rewrites nothing
    if len(s.goals) > 1:
        s.todos = ((s.goals[1:], s.path, s.lemmas),) + s.todos
    s.goals = (goal_after,) + sides
    s.path = (head,) + s.path
    s.proof += (tuple.__new__(RewStep, (action.clause_id, varmap, resolve_literal(sigma, lit),
                                        action.direction, head, goal_after, sides)),)
    return True


def _det_on_work(m: Matrix, s: ProverState, cfg: Config) -> ProverState:
    """Deterministic simplification to fixpoint; sets the result and actions
    of `s` and returns it.  Every pass pops a goal or a frame, or makes a
    forced step, which adds goals but counts an inference: the loop ends."""
    eager = not cfg.guided_reduction
    s.result, s.actions = FAILED, ()
    while True:
        if not s.goals:
            if not s.todos:
                if all(map(_fits, _recorded(s.proof), repeat(flat_subst(s.subst)))):
                    s.result = PROVED
                return s
            # a frame held no bound variable when saved; resolving it through
            # the bindings made since brings it up to date
            subst = flat_subst(s.subst)
            s.goals, s.path, s.lemmas = (resolve_literals(subst, part) for part in s.todos[0])
            s.todos = s.todos[1:]
            continue
        head = s.goals[0]
        if head in s.path:  # loop elimination, identity only
            return s
        if head in s.lemmas:
            s.proof += (tuple.__new__(LemStep, (head,)),)
            s.goals = s.goals[1:]
            continue
        neg_head = tuple.__new__(Literal, (not head.positive, head.predicate, head.args))
        if neg_head in s.path:  # reduction without unification
            s.proof += (tuple.__new__(RedStep, (head, neg_head)),)
            s.goals = s.goals[1:]
            continue
        actions = valid_actions(m, head, s.path, cfg, s.next_var)
        if eager:
            # the first unifying path literal, in path order; not an inference
            red = next(filter(RedAction.__instancecheck__, actions), None)
            if red is not None:
                if not _apply_on_work(m, s, red):
                    return s
                continue
        if cfg.single_action_optim and len(actions) == 1:
            # forced chains respect both budgets even on ground goals
            if len(s.path) > cfg.path_limit or s.inference_count >= cfg.inference_limit:
                return s
            s.inference_count += 1
            if not _apply_on_work(m, s, actions[0]):
                return s
            continue
        if not actions:
            return s
        if len(s.path) > cfg.path_limit and not all(is_ground_literal(l) for l in s.goals):
            return s
        s.result, s.actions = OPEN, actions
        return s


def _recorded(proof: tuple) -> list:
    """Every literal the steps of `proof` record."""
    out = []
    for step in proof:
        out.extend(f for f in step if isinstance(f, Literal))
        if isinstance(step, RewStep):
            out.extend(step.side_lits)
    return out


# ---------------------------------------------------------------------------
# public operations

def apply_action(m: Matrix, state: ProverState, index: int, cfg: Config) -> ProverState:
    """Apply the indexed action, then settle with `_det_on_work`.  Parent untouched."""
    if state.result != OPEN:
        raise ValueError("cannot act on a closed state")
    if index < 0 or index >= len(state.actions):
        raise IndexError(f"action index {index} out of range")
    s = state.copy()
    s.inference_count += 1
    if _apply_on_work(m, s, state.actions[index]):
        return _det_on_work(m, s, cfg)
    s.result, s.actions = FAILED, ()
    return s


def initial_states(m: Matrix, cfg: Config) -> ProverState:
    """The root state of a search.  With one start clause it is that
    clause's settled start state: its literals as goals, its `StartStep`,
    nothing on the path, and no inference counted.  With several it is an
    OPEN state with no goals whose actions are one `StartAction` per start
    clause, so choosing the start clause is an ordinary step: one inference
    that builds that start state, then its settle.

    A start clause's mark is not among its literals (the parser keeps it as
    a flag), so a start clause an extension uses again leaves no goal behind.
    """
    if not m.start_ids:
        raise NoStartClauseError("matrix has no start clause")
    root = ProverState(goals=(), path=(), lemmas=(), todos=(),
                       actions=tuple(map(StartAction, m.start_ids)), proof=(),
                       result=OPEN, subst=(), next_var=0, inference_count=0)
    if len(root.actions) > 1:
        return root
    _apply_on_work(m, root, root.actions[0])
    return _det_on_work(m, root, cfg)


# ---------------------------------------------------------------------------
# proof trace serialization (the checker's input contract)

def _fmt(subst: Subst, lit: Literal) -> str:
    return format_literal(resolve_literal(subst, lit))


def _fmt_theta(subst: Subst, varmap: tuple) -> str:
    parts = [f"{name}={format_term(resolve_term(subst, Var(vid)))}" for name, vid in varmap]
    return "{" + ",".join(parts) + "}"


def format_proof(proof: tuple, subst: Subst) -> str:
    """Render a proof trace, resolving every recorded term through subst."""
    lines = []
    for step in proof:
        if isinstance(step, StartStep):
            lines.append(f"start {step.clause_id} {_fmt_theta(subst, step.varmap)}")
        elif isinstance(step, ExtStep):
            lines.append(
                f"ext {step.clause_id} {_fmt_theta(subst, step.varmap)} {_fmt(subst, step.goal_lit)}"
            )
        elif isinstance(step, RedStep):
            lines.append(f"red {_fmt(subst, step.goal_lit)} {_fmt(subst, step.path_lit)}")
        elif isinstance(step, LemStep):
            lines.append(f"lem {_fmt(subst, step.lit)}")
        else:
            fields = [
                "rew",
                str(step.clause_id),
                _fmt_theta(subst, step.varmap),
                _fmt(subst, step.eq_lit),
                step.direction,
                _fmt(subst, step.goal_before),
                _fmt(subst, step.goal_after),
            ]
            fields.extend(_fmt(subst, s) for s in step.side_lits)
            lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
