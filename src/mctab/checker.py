"""Independent proof verification.

A proof trace is accepted when the ground clause instances it reports, with
polarities swapped into refutation view, are propositionally unsatisfiable.
Each `start`, `ext` and `rew` step names an input clause and a substitution;
the checker builds the instance itself by applying that substitution to the
clause.  A substitution may leave clause variables out, which then get fresh
constants, but may not bind a name the clause does not have.  Each rewrite
step adds one more instance: the replacement instance of its equation that
links the goal before the step to the goal after it.

Soundness rests on one fact: every clause handed to the DPLL core is an
input clause under a ground substitution, or a replacement instance from
`expand_rewrite`, valid with equality as the resolvent of the symmetry and
congruence instances linking its two goals.  The checker makes up no clause
of its own, not even a start goal: the parser keeps a start clause's mark
out of its literals, and the checker reads no mark.  Each clause is a
consequence of the problem with equality, so an unsatisfiable set of them
refutes the problem; atoms are told apart by structure, not by their
printed form.  The SAT core is unit propagation plus branching, depth-first
on an explicit stack, which is complete; the witness it returns for a
satisfiable set makes a literal of every clause true but may leave atoms
unassigned, so any completion of it is a model too.  The structural checks
(one `start` step, the first; connected `ext` goals, complementary `red`
literals, `lem` literals solved before) only reject traces that do not
describe a tableau.

Every field of a trace is read by the problem parser, over one variable
table for the whole trace, so trace variable n is the parser's own number,
by first occurrence in the text; it is frozen to the constant `_sk<n>`, and
the fresh constants for left-out clause variables continue the same count.
A substitution field is `{}` or `{Name=term,...}`, and a clause id is ASCII
decimal digits.

What this module shares with the prover is exactly these names: the problem
parser and literal printer (which names a witness's atoms), the term and
clause data model, and a literal's subterm walk and replacement.
Instantiation, the rewrite expansion and the SAT core are its own.

    problems: EQ Clause Matrix ParseError _Parser format_literal parse_problem
    terms: App Literal Term Var literal_replace literal_subterms
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .problems import (
    EQ,
    Clause,
    Matrix,
    ParseError,
    _Parser,
    format_literal,
    parse_problem,
)
from .terms import (
    App,
    Literal,
    Term,
    Var,
    literal_replace,
    literal_subterms,
)


class TraceError(Exception):
    pass


# ---------------------------------------------------------------------------
# trace parsing: every field is frozen to ground terms as it is read

@dataclass
class Start:
    clause_id: int
    theta: dict  # clause variable name -> ground Term


@dataclass
class Ext:
    clause_id: int
    theta: dict
    goal: Literal


@dataclass
class Red:
    goal: Literal
    path_lit: Literal


@dataclass
class Lem:
    lit: Literal


@dataclass
class Rew:
    clause_id: int
    theta: dict
    eq_lit: Literal
    direction: str
    before: Literal
    after: Literal
    sides: list


def _freeze(t: Term) -> Term:
    """`t` with each trace variable `Var(n)` as the constant `_sk<n>`."""
    if isinstance(t, Var):
        return App(f"_sk{t.id}")
    return App(t.symbol, tuple(map(_freeze, t.args))) if t.args else t


def _clause_id(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise TraceError(f"bad clause id {text!r}")
    return int(text)


def _parse_field_literal(text: str, names: dict) -> Literal:
    parser = _Parser(text, names)
    lit = parser.parse_literal()
    if parser.peek()[0] != "eof":
        raise TraceError(f"trailing input in literal {text!r}")
    return Literal(lit.positive, lit.predicate, tuple(map(_freeze, lit.args)))


def _parse_theta(text: str, names: dict) -> dict:
    if not (text.startswith("{") and text.endswith("}")):
        raise TraceError(f"malformed substitution {text!r}")
    parser = _Parser(text[1:-1], names)
    theta: dict = {}
    while parser.peek()[0] != "eof":
        if theta:
            parser.expect(",")
        name = parser.expect("ident")[1]
        parser.expect("=")
        if name in theta:
            raise TraceError(f"{name} is bound twice")
        theta[name] = _freeze(parser.parse_term())
    return theta


def parse_trace(text: str):
    """Parse a proof trace into its list of ground steps.  Also returns a
    `fresh()` that makes constants occurring nowhere in the steps."""
    names: dict = {}  # trace variable name -> n, one table for every field's parser
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        try:
            kind = fields[0]
            if kind == "start" and len(fields) == 3:
                steps.append(Start(_clause_id(fields[1]), _parse_theta(fields[2], names)))
            elif kind == "ext" and len(fields) == 4:
                steps.append(
                    Ext(_clause_id(fields[1]), _parse_theta(fields[2], names),
                        _parse_field_literal(fields[3], names))
                )
            elif kind == "red" and len(fields) == 3:
                steps.append(
                    Red(_parse_field_literal(fields[1], names),
                        _parse_field_literal(fields[2], names))
                )
            elif kind == "lem" and len(fields) == 2:
                steps.append(Lem(_parse_field_literal(fields[1], names)))
            elif kind == "rew" and len(fields) >= 7:
                steps.append(
                    Rew(
                        _clause_id(fields[1]),
                        _parse_theta(fields[2], names),
                        _parse_field_literal(fields[3], names),
                        fields[4],
                        _parse_field_literal(fields[5], names),
                        _parse_field_literal(fields[6], names),
                        [_parse_field_literal(f, names) for f in fields[7:]],
                    )
                )
            else:
                raise TraceError(f"unrecognized step {stripped!r}")
        except (ParseError, TraceError) as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    if not steps:
        raise TraceError("empty proof trace")
    count = itertools.count(len(names))
    return steps, lambda: App(f"_sk{next(count)}")


def _ground(t: Term, values: list) -> Term:
    """`t` with each clause variable replaced by its value, indexed by id."""
    if isinstance(t, Var):
        return values[t.id]
    return App(t.symbol, tuple([_ground(a, values) for a in t.args]))


def _instantiate(clause: Clause, theta: dict, fresh) -> list:
    """Ground instance of the clause under theta; the clause variables theta
    leaves out become fresh constants."""
    values = [theta[name] if name in theta else fresh() for name in clause.var_names]
    return [Literal(l.positive, l.predicate, tuple([_ground(a, values) for a in l.args]))
            for l in clause.literals]


# ---------------------------------------------------------------------------
# rewrite expansion

def expand_rewrite(step: Rew, b_lits) -> list:
    """The one ground equality-axiom instance a rewrite step stands for.

    Returns a prover-polarity clause built from the clause's own equation
    `left=right`: the replacement instance that links the goal before the
    step to the goal after it.  Raises TraceError when the recorded step is
    not coherent.
    """
    if step.direction not in ("LR", "RL"):
        raise TraceError(f"bad rewrite direction {step.direction!r}")
    eq = step.eq_lit
    if eq.positive or eq.predicate != EQ or len(eq.args) != 2:
        raise TraceError("rewrite equation must be a negative equality literal")
    if eq not in b_lits:
        raise TraceError("rewrite equation does not occur in the clause instance")
    if Counter(b_lits) - Counter([eq]) != Counter(step.sides):
        raise TraceError("rewrite side literals do not match the clause instance")
    left, right = eq.args
    src, dst = (left, right) if step.direction == "LR" else (right, left)
    before, after = step.before, step.after
    if before.predicate != after.predicate or before.positive != after.positive:
        raise TraceError("rewrite changes the goal's predicate or polarity")
    if not any(sub == src and literal_replace(before, pos, dst) == after
               for pos, sub in literal_subterms(before)):
        raise TraceError("no position turns the goal before into the goal after")
    # the goal that holds follows from the one it was rewritten from
    implied, implying = (after, before) if before.positive else (before, after)
    return [Literal(True, EQ, (left, right)),
            Literal(True, implied.predicate, implied.args),
            Literal(False, implying.predicate, implying.args)]


# ---------------------------------------------------------------------------
# propositional unsatisfiability (DPLL)

@dataclass
class GroundClauseSet:
    clauses: list = field(default_factory=list)  # lists of signed ints
    atoms: dict = field(default_factory=dict)  # positive Literal -> variable id

    def add_clause(self, lits):
        """Add a prover-polarity ground clause, swapping into refutation view."""
        encoded = []
        for lit in lits:
            atom = Literal(True, lit.predicate, lit.args)
            vid = self.atoms.setdefault(atom, len(self.atoms) + 1)
            encoded.append(-vid if lit.positive else vid)
        self.clauses.append(encoded)


def _simplify(clauses, assignment):
    """Unit propagation to a fixpoint; None on a conflict."""
    while True:
        new = []
        for clause in clauses:
            keep = []
            satisfied = False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    keep.append(lit)
                elif (lit > 0) == value:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not keep:
                return None
            new.append(keep)
        clauses = new
        units = {c[0] for c in clauses if len(c) == 1}
        if not units:
            return clauses
        for u in units:
            if assignment.get(abs(u), (u > 0)) != (u > 0):
                return None
            assignment[abs(u)] = u > 0


def _dpll(clauses, assignment):
    """Depth-first search for a model: each decision sets the most frequent
    literal true first; the other branch waits on an explicit stack."""
    stack = [(clauses, assignment)]
    while stack:
        clauses, assignment = stack.pop()
        clauses = _simplify(clauses, assignment)
        if clauses is None:
            continue
        if not clauses:
            return assignment
        counts: dict = {}
        for clause in clauses:
            for lit in clause:
                counts[lit] = counts.get(lit, 0) + 1
        branch = max(sorted(counts), key=lambda l: counts[l])
        for choice in (branch <= 0, branch > 0):  # the last pushed is tried first
            stack.append((clauses, {**assignment, abs(branch): choice}))
    return None


def check_unsat(g: GroundClauseSet):
    """(True, None) when unsatisfiable, else (False, satisfying assignment)."""
    model = _dpll([list(c) for c in g.clauses], {})
    if model is None:
        return True, None
    names = {vid: format_literal(atom) for atom, vid in g.atoms.items()}
    witness = {names[v]: val for v, val in sorted(model.items())}
    return False, witness


# ---------------------------------------------------------------------------
# the full check

@dataclass
class CheckResult:
    ok: bool
    message: str = "OK"
    step: Optional[int] = None
    witness: Optional[dict] = None


def check_proof_texts(proof_text: str, problem_text: str) -> CheckResult:
    """Parse the problem and check the trace against it; a problem that
    does not parse is a rejection."""
    try:
        matrix = parse_problem(problem_text)
    except ParseError as exc:
        return CheckResult(False, f"problem parse error: {exc}")
    return check_trace(proof_text, matrix)


def check_trace(proof_text: str, matrix: Matrix) -> CheckResult:
    """Check a proof trace against an already parsed problem."""
    try:
        steps, fresh = parse_trace(proof_text)
    except TraceError as exc:
        return CheckResult(False, f"trace parse error: {exc}")
    ground = GroundClauseSet()
    ext_goals: list = []

    for idx, step in enumerate(steps):
        if isinstance(step, Start) != (idx == 0):
            why = "a second start step" if idx else "the first step is not a start step"
            return CheckResult(False, why, idx)
        if isinstance(step, (Start, Ext, Rew)):
            if step.clause_id >= len(matrix.clauses):
                return CheckResult(False, "clause reference out of range", idx)
            clause = matrix.clauses[step.clause_id]
            foreign = [name for name in step.theta if name not in clause.var_names]
            if foreign:
                return CheckResult(
                    False, f"substitution binds {foreign[0]}, which the clause does not have", idx
                )
            b_lits = _instantiate(clause, step.theta, fresh)
            if isinstance(step, Ext):
                goal = step.goal
                if Literal(not goal.positive, goal.predicate, goal.args) not in b_lits:
                    return CheckResult(
                        False, "extension goal is not connected to the clause instance", idx
                    )
                ext_goals.append(goal)
            if isinstance(step, Rew):
                try:
                    ground.add_clause(expand_rewrite(step, b_lits))
                except TraceError as exc:
                    return CheckResult(False, f"malformed rewrite step: {exc}", idx)
            ground.add_clause(b_lits)
        elif isinstance(step, Red):
            goal = step.goal
            if Literal(not goal.positive, goal.predicate, goal.args) != step.path_lit:
                return CheckResult(False, "reduction literals are not complementary", idx)
        elif step.lit not in ext_goals:  # a Lem step
            return CheckResult(False, "lemma literal was never solved before", idx)

    unsat, witness = check_unsat(ground)
    if not unsat:
        return CheckResult(False, "instance set is propositionally satisfiable", None, witness)
    return CheckResult(True)
