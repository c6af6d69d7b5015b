"""Connection-tableau state machine with explicit state.

A prover state carries the open goals of the active branch, the active path,
lemmas, a stack of saved frames for sibling branches, the accumulated proof
trace and substitution, and the list of valid actions.  Applying an action
never mutates the parent state; after every nondeterministic action the
deterministic simplifications run to a fixpoint (pop empty goals, loop
elimination by identity, lemma steps, reductions, forced single actions,
path limit).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Config
from .problems import START_MARK, Matrix, format_literal, format_term
from .terms import (
    Literal,
    Subst,
    Var,
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


class NoStartClauseError(Exception):
    pass


# ---------------------------------------------------------------------------
# actions

@dataclass(frozen=True)
class ExtAction:
    clause_id: int
    lit_index: int


@dataclass(frozen=True)
class RedAction:
    path_index: int


@dataclass(frozen=True)
class RewAction:
    clause_id: int
    lit_index: int
    direction: str  # "LR" rewrites left side to right, "RL" the reverse
    position: tuple


Action = object


# ---------------------------------------------------------------------------
# proof steps; literal fields hold step-time instantiations and are finalized
# through the accumulated substitution when the trace is printed

@dataclass(frozen=True)
class StartStep:
    clause_id: int
    varmap: tuple  # ((source var name, fresh var id), ...)


@dataclass(frozen=True)
class ExtStep:
    clause_id: int
    varmap: tuple
    goal_lit: Literal


@dataclass(frozen=True)
class RedStep:
    goal_lit: Literal
    path_lit: Literal


@dataclass(frozen=True)
class LemStep:
    lit: Literal


@dataclass(frozen=True)
class RewStep:
    clause_id: int
    varmap: tuple
    eq_lit: Literal
    direction: str
    goal_before: Literal
    goal_after: Literal
    side_lits: tuple


@dataclass
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


# ---------------------------------------------------------------------------
# action enumeration

def valid_actions(m: Matrix, goals: tuple, path: tuple, cfg: Config, next_var: int) -> tuple:
    """All applicable actions for the head goal literal.

    Extensions connect the head to a complementary input-clause literal;
    reductions to a complementary path literal (both under unification with
    occurs check).  Rewrite actions use a negative equational clause literal
    as an oriented rule whose left side matches a goal subterm; matching only
    instantiates the clause's variables.

    State variables are below `next_var`, so the head shifted by -next_var
    has only negative ids and shares none with a clause's 0..k-1: clause
    literals are tested as they are, without a renamed copy.  Candidates
    come from the matrix's action index, in clause and literal order, so
    the cost follows the literals that could connect, not the matrix size.
    """
    if not goals:
        return ()
    head = goals[0]
    neg_head = negate(head)
    shifted = shift_literal(neg_head, -next_var)
    out = []
    for lit, clause_id, j in m.literal_index.get(
        (head.predicate, not head.positive, len(head.args)), ()
    ):
        if unify_literals(shifted, lit) is not None:
            out.append(ExtAction(clause_id, j))
    for k, plit in enumerate(path):
        if plit.predicate != head.predicate or plit.positive == head.positive:
            continue
        if unify_literals(neg_head, plit) is not None:
            out.append(RedAction(k))
    if cfg.rewrite:
        out.extend(_rewrite_actions(m, shifted))
    return tuple(out)


def _rewrite_actions(m: Matrix, head: Literal) -> list:
    """Rewrites of `head`, whose variables must not occur in any clause.  A
    rule tries the subterms with its source's symbol and arity, or every
    subterm when its source is a variable."""
    out = []
    every = literal_subterms(head)
    buckets: dict = {}
    for pos, sub in every:
        if not isinstance(sub, Var):
            buckets.setdefault((sub.symbol, len(sub.args)), []).append((pos, sub))
    for clause_id, j, direction, src, dst in m.rewrite_rules:
        if isinstance(src, Var):
            candidates = every
        else:
            candidates = buckets.get((src.symbol, len(src.args)), ())
        for pos, sub in candidates:
            sigma = match_term(src, sub)
            if sigma is None:
                continue
            if resolve_term(sigma, dst) == sub:
                continue  # no-op rewrite
            out.append(RewAction(clause_id, j, direction, pos))
    return out


# ---------------------------------------------------------------------------
# working representation (mutable scratch for one derivation step)

class _Work:
    __slots__ = ("goals", "path", "lemmas", "todos", "proof", "subst", "next_var", "inferences")

    def __init__(self, state: ProverState):
        self.goals = list(state.goals)
        self.path = state.path
        self.lemmas = state.lemmas
        self.todos = list(state.todos)
        self.proof = list(state.proof)
        self.subst = state.subst
        self.next_var = state.next_var
        self.inferences = state.inference_count

    def bind(self, delta: Subst, bound: int):
        """Add the triangular `delta` to subst and, when it binds a variable
        below `bound`, resolve the active branch through all of `delta`.  The
        branch is fully applied, so `delta` binds only free variables.  An
        extension renames its clause from `bound` on, so no fresh clause
        variable occurs in the branch, yet a branch variable may be bound to
        one that `delta` binds in turn: -p(X,X) against p(Y,f(a)) gives
        {X: Y, Y: f(a)}."""
        if not delta:
            return
        if min(delta) < bound:
            self.goals = [resolve_literal(delta, l) for l in self.goals]
            self.path = resolve_literals(delta, self.path)
            self.lemmas = resolve_literals(delta, self.lemmas)
        self.subst = {**self.subst, **delta}

    def finish(self, result: int, actions: tuple) -> ProverState:
        return ProverState(
            goals=tuple(self.goals),
            path=self.path,
            lemmas=self.lemmas,
            todos=tuple(self.todos),
            actions=actions,
            proof=tuple(self.proof),
            result=result,
            subst=self.subst,
            next_var=self.next_var,
            inference_count=self.inferences,
        )


def _apply_on_work(m: Matrix, w: _Work, action) -> None:
    """One nondeterministic step on the scratch state; counts no inference
    and runs no det_steps."""
    head = w.goals[0]
    tail = w.goals[1:]
    if isinstance(action, ExtAction):
        clause = m.clause(action.clause_id)
        offset = w.next_var
        renamed = clause.rename(offset)
        w.next_var = offset + len(clause.var_names)
        delta = unify_literals(negate(head), renamed[action.lit_index])
        if delta is None:
            raise ValueError("extension action no longer applicable")
        w.goals = tail
        w.bind(delta, offset)
        head2 = resolve_literal(delta, head)
        rest = resolve_literals(
            delta, renamed[: action.lit_index] + renamed[action.lit_index + 1 :]
        )
        if w.goals:
            w.todos = [(tuple(w.goals), w.path, (head2,) + w.lemmas)] + w.todos
        w.goals = list(rest)
        w.path = (head2,) + w.path
        varmap = tuple((n, offset + i) for i, n in enumerate(clause.var_names))
        w.proof.append(ExtStep(clause.id, varmap, head2))
    elif isinstance(action, RedAction):
        plit = w.path[action.path_index]
        delta = unify_literals(negate(head), plit)
        if delta is None:
            raise ValueError("reduction action no longer applicable")
        w.goals = tail
        w.bind(delta, w.next_var)
        w.proof.append(RedStep(resolve_literal(delta, head), resolve_literal(delta, plit)))
    elif isinstance(action, RewAction):
        clause = m.clause(action.clause_id)
        offset = w.next_var
        renamed = clause.rename(offset)
        w.next_var = offset + len(clause.var_names)
        eq_lit = renamed[action.lit_index]
        left, right = eq_lit.args
        src, dst = (left, right) if action.direction == "LR" else (right, left)
        sigma = match_term(src, literal_subterm(head, action.position))
        if sigma is None:
            raise ValueError("rewrite action no longer applicable")
        goal_after = literal_replace(head, action.position, resolve_term(sigma, dst))
        sides = resolve_literals(
            sigma, renamed[: action.lit_index] + renamed[action.lit_index + 1 :]
        )
        # sigma binds only fresh clause variables; record it for trace output
        w.subst = {**w.subst, **sigma}
        if tail:
            w.todos = [(tuple(tail), w.path, w.lemmas)] + w.todos
        w.goals = [goal_after] + list(sides)
        w.path = (head,) + w.path
        varmap = tuple((n, offset + i) for i, n in enumerate(clause.var_names))
        w.proof.append(
            RewStep(
                clause.id,
                varmap,
                resolve_literal(sigma, eq_lit),
                action.direction,
                head,
                goal_after,
                sides,
            )
        )
    else:
        raise TypeError(f"unknown action {action!r}")


def _det_on_work(m: Matrix, w: _Work, cfg: Config) -> ProverState:
    """Deterministic simplification to fixpoint; returns the settled state."""
    eager = not cfg.guided_reduction
    for _ in range(_DET_GUARD):
        if not w.goals:
            if not w.todos:
                return w.finish(PROVED, ())
            # a frame held no bound variable when saved; resolving it through
            # the bindings made since brings it up to date
            goals2, w.path, w.lemmas = (resolve_literals(w.subst, part) for part in w.todos.pop(0))
            w.goals = list(goals2)
            continue
        head = w.goals[0]
        if head in w.path:  # loop elimination, identity only
            return w.finish(FAILED, ())
        if head in w.lemmas:
            w.proof.append(LemStep(head))
            w.goals = w.goals[1:]
            continue
        neg_head = negate(head)
        if neg_head in w.path:  # reduction without unification
            w.proof.append(RedStep(head, neg_head))
            w.goals = w.goals[1:]
            continue
        actions = valid_actions(m, w.goals, w.path, cfg, w.next_var)
        if eager:
            # the first unifying path literal, in path order; not an inference
            red = next((a for a in actions if isinstance(a, RedAction)), None)
            if red is not None:
                _apply_on_work(m, w, red)
                continue
        if cfg.single_action_optim and len(actions) == 1:
            if len(w.path) > cfg.path_limit:
                # forced chains must respect the depth bound even on ground
                # goals, otherwise term-growing matrices chain forever
                return w.finish(FAILED, ())
            w.inferences += 1
            _apply_on_work(m, w, actions[0])
            continue
        if not actions:
            return w.finish(FAILED, ())
        if len(w.path) > cfg.path_limit and not all(is_ground_literal(l) for l in w.goals):
            return w.finish(FAILED, ())
        return w.finish(OPEN, actions)
    return w.finish(FAILED, ())


# ---------------------------------------------------------------------------
# public operations

def det_steps(m: Matrix, state: ProverState, cfg: Config) -> ProverState:
    return _det_on_work(m, _Work(state), cfg)


def apply_action(m: Matrix, state: ProverState, index: int, cfg: Config) -> ProverState:
    """Apply the indexed action, then settle with det_steps.  Parent untouched."""
    if state.result != OPEN:
        raise ValueError("cannot act on a closed state")
    if index < 0 or index >= len(state.actions):
        raise IndexError(f"action index {index} out of range")
    w = _Work(state)
    w.inferences += 1
    _apply_on_work(m, w, state.actions[index])
    return _det_on_work(m, w, cfg)


def initial_states(m: Matrix, cfg: Config) -> list:
    """One settled state per start clause.

    When several start clauses exist, picking among them is the search's
    first branching (the search layer builds a virtual root over these).
    """
    if not m.start_ids:
        raise NoStartClauseError("matrix has no start clause")
    out = []
    for sid in m.start_ids:
        clause = m.clause(sid)
        goals = [l for l in clause.literals if l.predicate != START_MARK]
        varmap = tuple((n, i) for i, n in enumerate(clause.var_names))
        state = ProverState(
            goals=tuple(goals),
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
        out.append(det_steps(m, state, cfg))
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
