"""Connection-tableau state machine with explicit state.

A prover state carries the open goals of the active branch, the active path,
lemmas, a stack of saved frames for sibling branches, the accumulated proof
trace and substitution, and the list of valid actions.  Applying an action
never mutates the parent state: the step works on a shallow copy of it and
only rebinds fields.  That copy is exact because every field is a tuple or
an int except `subst`, which is only ever rebound (`{**subst, **delta}`),
never updated in place.  After every nondeterministic action the
deterministic simplifications run to a fixpoint (pop empty goals, loop
elimination by identity, lemma steps, reductions, forced single actions,
path limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .config import Config
from .problems import START_MARK, Matrix, format_literal, format_term
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
    negate,
    resolve_literal,
    resolve_literals,
    resolve_term,
    shift_literal,
    unify_literals,
)

OPEN, PROVED, FAILED = 0, 1, -1

# deterministic chains are bounded as a last-resort guard against matrices
# that drive single-action rewriting forever on ground goals
_DET_GUARD = 100000

_NO_CANDIDATES = ((), (), {})


class NoStartClauseError(Exception):
    pass


# ---------------------------------------------------------------------------
# actions; these and the proof steps are named tuples like terms (see terms)

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
# through the accumulated substitution when the trace is printed

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
    # triangular: each binding as made, never rebound; goals, path and lemmas
    # are kept fully applied, everything else goes through resolve_term
    subst: Subst
    next_var: int
    inference_count: int

    def copy(self) -> ProverState:
        return ProverState(*map(self.__getattribute__, self.__slots__))

    def bind(self, delta: Subst, bound: int):
        """Add the triangular `delta` to subst and, when it binds a variable
        below `bound`, resolve the active branch through all of `delta`.  The
        branch is fully applied, so `delta` binds only free variables.  A
        step shifts its clause from `bound` on, so no fresh clause variable
        occurs in the branch (a rewrite's match binds only those), yet a
        branch variable may be bound to one that `delta` binds in turn:
        -p(X,X) against p(Y,f(a)) gives {X: Y, Y: f(a)}."""
        if not delta:
            return
        if min(delta) < bound:
            self.goals = resolve_literals(delta, self.goals)
            self.path = resolve_literals(delta, self.path)
            self.lemmas = resolve_literals(delta, self.lemmas)
        self.subst = {**self.subst, **delta}


# ---------------------------------------------------------------------------
# action enumeration

def valid_actions(m: Matrix, goals: tuple, path: tuple, cfg: Config, next_var: int) -> tuple:
    """All applicable actions for the head goal literal: extensions, then
    reductions, then rewrites.

    Extensions connect the head to a complementary input-clause literal;
    reductions to a complementary path literal (both under unification with
    occurs check).  Rewrite actions use a negative equational clause literal
    as an oriented rule whose left side matches a goal subterm; matching only
    instantiates the clause's variables.

    State variables are below `next_var`, so the head shifted by -next_var
    has only negative ids and shares none with a clause's 0..k-1: clause
    literals are tested as they are, without a renamed copy.  Candidates
    come from the matrix's action index, in clause and literal order, so
    the cost follows the literals that could connect, not the matrix size:
    when the head's first argument is an application, only the literals
    whose first argument has its symbol and arity or is a variable.

    Extensions and rewrites do not depend on the path, and they are
    enumerated once per exact head literal and rewrite setting, then kept in
    `m.head_actions`.  The exact head is a sound key for any `next_var`:
    unification, matching and the no-op test compare variables only for
    identity, and every shift keeps the head's variables apart from the
    clause's.  Reductions depend on the path and are computed on every call.
    """
    if not goals:
        return ()
    head = goals[0]
    key = head, cfg.rewrite
    known = m.head_actions.get(key)
    if known is None:
        shifted = shift_literal(head, -next_var)
        every, var_first, keyed = m.literal_index.get(
            (head.predicate, not head.positive, len(head.args)), _NO_CANDIDATES)
        first = head.args[0] if head.args else None
        candidates = (keyed.get((first.symbol, len(first.args)), var_first)
                      if isinstance(first, App) else every)
        ext = tuple(tuple.__new__(ExtAction, (clause_id, j))  # see terms._new
                    for lit, clause_id, j in candidates
                    if unify_literals(shifted, lit) is not None)
        rew = tuple(_rewrite_actions(m, shifted)) if cfg.rewrite and m.rewrite_rules else ()
        known = m.head_actions[key] = ext, rew
    ext, rew = known
    red = []
    for k, plit in enumerate(path):
        if plit.predicate != head.predicate or plit.positive == head.positive:
            continue
        if unify_literals(head, plit) is not None:
            red.append(RedAction(k))
    return ext + tuple(red) + rew


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

def _apply_on_work(m: Matrix, s: ProverState, action) -> None:
    """One nondeterministic step; counts no inference and runs no det_steps.
    The action was enumerated from this state, so it applies.

    An extension or a rewrite shifts only the chosen clause literal to fresh
    variables from `next_var` on, and unifies it with the head (matches its
    source against a head subterm) as it stands.  The head stays in the
    goals until `bind`, so it is walked only when the unifier binds a branch
    variable; otherwise it is final.  Each side literal is shifted and
    resolved in one `instantiate_literal` walk."""
    if isinstance(action, RedAction):
        s.bind(unify_literals(s.goals[0], s.path[action.path_index]), s.next_var)
        s.proof += (RedStep(s.goals[0], s.path[action.path_index]),)
        s.goals = s.goals[1:]
        return
    clause = m.clauses[action.clause_id]
    offset = s.next_var
    s.next_var = offset + len(clause.var_names)
    varmap = tuple(zip(clause.var_names, range(offset, s.next_var)))
    j = action.lit_index
    lit = shift_literal(clause.literals[j], offset)
    rest = clause.literals[:j] + clause.literals[j + 1 :]
    if isinstance(action, ExtAction):
        delta = unify_literals(s.goals[0], lit)
        s.bind(delta, offset)
        head = s.goals[0]
        if len(s.goals) > 1:
            s.todos = ((s.goals[1:], s.path, (head,) + s.lemmas),) + s.todos
        s.goals = tuple(map(instantiate_literal, rest, repeat(offset), repeat(delta)))
        s.path = (head,) + s.path
        s.proof += (ExtStep(action.clause_id, varmap, head),)
        return
    head = s.goals[0]
    left, right = lit.args
    src, dst = (left, right) if action.direction == "LR" else (right, left)
    sigma = match_term(src, literal_subterm(head, action.position))
    goal_after = literal_replace(head, action.position, resolve_term(sigma, dst))
    sides = tuple(map(instantiate_literal, rest, repeat(offset), repeat(sigma)))
    s.bind(sigma, offset)
    if len(s.goals) > 1:
        s.todos = ((s.goals[1:], s.path, s.lemmas),) + s.todos
    s.goals = (goal_after,) + sides
    s.path = (head,) + s.path
    s.proof += (RewStep(action.clause_id, varmap, resolve_literal(sigma, lit), action.direction,
                        head, goal_after, sides),)


def _det_on_work(m: Matrix, s: ProverState, cfg: Config) -> ProverState:
    """Deterministic simplification to fixpoint; sets the result and actions
    of `s` and returns it."""
    eager = not cfg.guided_reduction
    s.result, s.actions = FAILED, ()
    for _ in range(_DET_GUARD):
        if not s.goals:
            if not s.todos:
                s.result = PROVED
                return s
            # a frame held no bound variable when saved; resolving it through
            # the bindings made since brings it up to date
            s.goals, s.path, s.lemmas = (resolve_literals(s.subst, part) for part in s.todos[0])
            s.todos = s.todos[1:]
            continue
        head = s.goals[0]
        if head in s.path:  # loop elimination, identity only
            return s
        if head in s.lemmas:
            s.proof += (LemStep(head),)
            s.goals = s.goals[1:]
            continue
        neg_head = negate(head)
        if neg_head in s.path:  # reduction without unification
            s.proof += (RedStep(head, neg_head),)
            s.goals = s.goals[1:]
            continue
        actions = valid_actions(m, s.goals, s.path, cfg, s.next_var)
        if eager:
            # the first unifying path literal, in path order; not an inference
            red = next((a for a in actions if isinstance(a, RedAction)), None)
            if red is not None:
                _apply_on_work(m, s, red)
                continue
        if cfg.single_action_optim and len(actions) == 1:
            if len(s.path) > cfg.path_limit:
                # forced chains must respect the depth bound even on ground
                # goals, otherwise term-growing matrices chain forever
                return s
            s.inference_count += 1
            _apply_on_work(m, s, actions[0])
            continue
        if not actions:
            return s
        if len(s.path) > cfg.path_limit and not all(is_ground_literal(l) for l in s.goals):
            return s
        s.result, s.actions = OPEN, actions
        return s
    return s


# ---------------------------------------------------------------------------
# public operations

def det_steps(m: Matrix, state: ProverState, cfg: Config) -> ProverState:
    return _det_on_work(m, state.copy(), cfg)


def apply_action(m: Matrix, state: ProverState, index: int, cfg: Config) -> ProverState:
    """Apply the indexed action, then settle with det_steps.  Parent untouched."""
    if state.result != OPEN:
        raise ValueError("cannot act on a closed state")
    if index < 0 or index >= len(state.actions):
        raise IndexError(f"action index {index} out of range")
    s = state.copy()
    s.inference_count += 1
    _apply_on_work(m, s, state.actions[index])
    return _det_on_work(m, s, cfg)


def initial_states(m: Matrix, cfg: Config) -> list:
    """One settled state per start clause.

    When several start clauses exist, picking among them is the search's
    first branching (the search layer builds a virtual root over these).
    """
    if not m.start_ids:
        raise NoStartClauseError("matrix has no start clause")
    out = []
    for sid in m.start_ids:
        clause = m.clauses[sid]
        varmap = tuple((n, i) for i, n in enumerate(clause.var_names))
        state = ProverState(
            goals=tuple(l for l in clause.literals if l.predicate != START_MARK),
            path=(),
            lemmas=(),
            todos=(),
            actions=(),
            proof=(StartStep(sid, varmap),),
            result=OPEN,
            subst={},
            next_var=len(clause.var_names),
            inference_count=0,
        )
        out.append(_det_on_work(m, state, cfg))
    return out


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
        elif isinstance(step, RewStep):
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
        else:
            raise TypeError(f"unknown proof step {step!r}")
    return "\n".join(lines) + "\n"
