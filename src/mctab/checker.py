"""Independent proof verification.

A proof trace is accepted when two assertions hold: every clause instance it
reports is subsumed by the referenced input clause under the reported
substitution (searching for a variable renaming when the domain names do not
line up), and the set of reported instances, with polarities swapped into
refutation view, is propositionally unsatisfiable.  Rewrite steps are first
expanded into ground instances of the equality axioms (symmetry for
right-to-left rewrites, one function congruence per nesting level, and a
predicate congruence linking the goals before and after).

Residual proof variables are frozen to fresh `_sk<n>` constants, numbered in
order of first occurrence.  This module deliberately shares only the term
data model and parser with the prover; subsumption, matching and the SAT
core are implemented independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .problems import (
    EQ,
    START_MARK,
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
    apply_literal,
    is_ground_literal,
    literal_positions,
    literal_replace,
    literal_subterm,
    replace_at,
    subterm_at,
)


class TraceError(Exception):
    pass


# ---------------------------------------------------------------------------
# trace parsing

@dataclass
class Start:
    clause_id: int
    theta: dict  # source var name -> Term


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


class _SharedVars:
    """Maps variable names to one id space across all trace fields."""

    def __init__(self):
        self.ids: dict = {}

    def remap(self, node, names):
        if isinstance(node, Var):
            name = names[node.id]
            if name not in self.ids:
                self.ids[name] = len(self.ids)
            return Var(self.ids[name])
        return App(node.symbol, tuple(self.remap(a, names) for a in node.args))

    def remap_literal(self, lit: Literal, names) -> Literal:
        return Literal(lit.positive, lit.predicate, tuple(self.remap(a, names) for a in lit.args))


def _parse_field_literal(text: str, shared: _SharedVars) -> Literal:
    parser = _Parser(text)
    lit = parser.parse_literal()
    if parser.peek()[0] != "eof":
        raise TraceError(f"trailing input in literal {text!r}")
    return shared.remap_literal(lit, parser.var_names)


def _parse_field_term(text: str, shared: _SharedVars) -> Term:
    parser = _Parser(text)
    term = parser.parse_term()
    if parser.peek()[0] != "eof":
        raise TraceError(f"trailing input in term {text!r}")
    return shared.remap(term, parser.var_names)


def _split_theta(body: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_theta(text: str, shared: _SharedVars) -> dict:
    if not (text.startswith("{") and text.endswith("}")):
        raise TraceError(f"malformed substitution {text!r}")
    body = text[1:-1].strip()
    theta: dict = {}
    if not body:
        return theta
    for part in _split_theta(body):
        name, sep, value = part.partition("=")
        if not sep or not name:
            raise TraceError(f"malformed binding {part!r}")
        theta[name.strip()] = _parse_field_term(value.strip(), shared)
    return theta


def parse_trace(text: str):
    """Parse a proof trace into its list of steps."""
    shared = _SharedVars()
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        try:
            kind = fields[0]
            if kind == "start" and len(fields) == 3:
                steps.append(Start(int(fields[1]), _parse_theta(fields[2], shared)))
            elif kind == "ext" and len(fields) == 4:
                steps.append(
                    Ext(int(fields[1]), _parse_theta(fields[2], shared),
                        _parse_field_literal(fields[3], shared))
                )
            elif kind == "red" and len(fields) == 3:
                steps.append(
                    Red(_parse_field_literal(fields[1], shared),
                        _parse_field_literal(fields[2], shared))
                )
            elif kind == "lem" and len(fields) == 2:
                steps.append(Lem(_parse_field_literal(fields[1], shared)))
            elif kind == "rew" and len(fields) >= 7:
                steps.append(
                    Rew(
                        int(fields[1]),
                        _parse_theta(fields[2], shared),
                        _parse_field_literal(fields[3], shared),
                        fields[4],
                        _parse_field_literal(fields[5], shared),
                        _parse_field_literal(fields[6], shared),
                        [_parse_field_literal(f, shared) for f in fields[7:]],
                    )
                )
            else:
                raise TraceError(f"unrecognized step {stripped!r}")
        except (ValueError, ParseError, TraceError) as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    if not steps:
        raise TraceError("empty proof trace")
    return steps


# ---------------------------------------------------------------------------
# variable freezing

class _Freezer:
    def __init__(self):
        self.mapping: dict = {}

    def freeze_term(self, t: Term) -> Term:
        if isinstance(t, Var):
            if t.id not in self.mapping:
                self.mapping[t.id] = App(f"_sk{len(self.mapping)}")
            return self.mapping[t.id]
        if not t.args:
            return t
        return App(t.symbol, tuple(self.freeze_term(a) for a in t.args))

    def freeze_literal(self, lit: Literal) -> Literal:
        return Literal(lit.positive, lit.predicate, tuple(self.freeze_term(a) for a in lit.args))

    def fresh(self) -> Term:
        key = ("fresh", len(self.mapping))
        self.mapping[key] = App(f"_sk{len(self.mapping)}")
        return self.mapping[key]


# ---------------------------------------------------------------------------
# assertion 1: instances subsumed by their input clauses

def check_instance(b_lits, theta: dict, clause: Clause) -> bool:
    """Does theta (over the clause's variables, possibly renamed) turn the
    clause into a propositional subsumer of B?"""
    names = clause.var_names
    if all(name in names for name in theta):
        subst = {i: theta[name] for i, name in enumerate(names) if name in theta}
        inst = [apply_literal(subst, l) for l in clause.literals]
        if all(is_ground_literal(l) and l in b_lits for l in inst):
            return True
    return _renaming_search(list(b_lits), theta, clause)


def _is_frozen_constant(t: Term) -> bool:
    return isinstance(t, App) and not t.args and t.symbol.startswith("_sk")


def _renaming_search(b_lits, theta: dict, clause: Clause) -> bool:
    """Backtracking search for a renaming rho with theta(rho(C)) subsuming B.

    Clause variables map injectively to substitution domain names; variables
    the substitution never touched may instead match a frozen constant of B
    directly (they denote fresh constants).
    """
    lits = clause.literals

    def match_args(pairs, assign, used):
        if not pairs:
            yield assign, used
            return
        (c, b), rest = pairs[0], pairs[1:]
        if isinstance(c, Var):
            cur = assign.get(c.id)
            if cur is not None:
                value = theta[cur[1]] if cur[0] == "name" else cur[1]
                if value == b:
                    yield from match_args(rest, assign, used)
                return
            for name, value in theta.items():
                if name not in used and value == b:
                    a2 = dict(assign)
                    a2[c.id] = ("name", name)
                    yield from match_args(rest, a2, used | {name})
            if _is_frozen_constant(b):
                a2 = dict(assign)
                a2[c.id] = ("term", b)
                yield from match_args(rest, a2, used)
        else:
            if isinstance(b, Var) or c.symbol != b.symbol or len(c.args) != len(b.args):
                return
            yield from match_args(list(zip(c.args, b.args)) + rest, assign, used)

    def solve(i, assign, used):
        if i == len(lits):
            return True
        cl = lits[i]
        for b in b_lits:
            if (
                b.predicate != cl.predicate
                or b.positive != cl.positive
                or len(b.args) != len(cl.args)
            ):
                continue
            for assign2, used2 in match_args(list(zip(cl.args, b.args)), dict(assign), set(used)):
                if solve(i + 1, assign2, used2):
                    return True
        return False

    return solve(0, {}, set())


def _instantiate(clause: Clause, theta: dict, freezer: _Freezer):
    """Ground instance of the clause under theta, completing unbound
    variables with fresh frozen constants.  Returns (literals, full theta)."""
    full = dict(theta)
    subst = {}
    for i, name in enumerate(clause.var_names):
        if name in theta:
            subst[i] = theta[name]
        else:
            value = freezer.fresh()
            subst[i] = value
            full[name] = value
    inst = [apply_literal(subst, l) for l in clause.literals]
    return inst, full


# ---------------------------------------------------------------------------
# rewrite expansion

def expand_rewrite(step: Rew, b_lits) -> list:
    """Ground equality-axiom instances replacing one rewrite step.

    Returns extra prover-polarity clauses: a symmetry instance for RL, one
    function congruence per nesting level between the rewrite position and
    the literal root, and a predicate congruence linking the goal before and
    after.  Raises TraceError when the recorded step is not coherent.
    """
    if step.direction not in ("LR", "RL"):
        raise TraceError(f"bad rewrite direction {step.direction!r}")
    eq = step.eq_lit
    if eq.positive or eq.predicate != EQ or len(eq.args) != 2:
        raise TraceError("rewrite equation must be a negative equality literal")
    if eq not in b_lits:
        raise TraceError("rewrite equation does not occur in the clause instance")
    remaining = list(b_lits)
    remaining.remove(eq)
    if sorted(map(format_literal, remaining)) != sorted(map(format_literal, step.sides)):
        raise TraceError("rewrite side literals do not match the clause instance")
    left, right = eq.args
    src, dst = (left, right) if step.direction == "LR" else (right, left)
    before, after = step.before, step.after
    if before.predicate != after.predicate or before.positive != after.positive:
        raise TraceError("rewrite changes the goal's predicate or polarity")
    position = None
    for pos in literal_positions(before):
        if literal_subterm(before, pos) == src and literal_replace(before, pos, dst) == after:
            position = pos
            break
    if position is None:
        raise TraceError("no position turns the goal before into the goal after")

    out = []
    if step.direction == "RL":
        # symmetry: from l=r conclude r=l
        out.append([Literal(True, EQ, (left, right)), Literal(False, EQ, (right, left))])
    arg_index = position[0]
    arg_path = position[1:]
    arg_before = before.args[arg_index - 1]
    s_cur, t_cur = src, dst
    for k in range(len(arg_path) - 1, -1, -1):
        prefix = arg_path[:k]
        c_before = subterm_at(arg_before, prefix)
        c_after = replace_at(c_before, (arg_path[k],), t_cur)
        out.append([Literal(True, EQ, (s_cur, t_cur)), Literal(False, EQ, (c_before, c_after))])
        s_cur, t_cur = c_before, c_after
    if before.positive:
        out.append(
            [
                Literal(True, EQ, (s_cur, t_cur)),
                Literal(True, after.predicate, after.args),
                Literal(False, before.predicate, before.args),
            ]
        )
    else:
        out.append(
            [
                Literal(True, EQ, (s_cur, t_cur)),
                Literal(True, before.predicate, before.args),
                Literal(False, after.predicate, after.args),
            ]
        )
    return out


# ---------------------------------------------------------------------------
# assertion 2: propositional unsatisfiability (DPLL)

@dataclass
class GroundClauseSet:
    clauses: list = field(default_factory=list)  # lists of signed ints
    atoms: dict = field(default_factory=dict)  # atom string -> variable id

    def add_clause(self, lits, swap_polarity=True):
        """Add a prover-polarity ground clause, swapping into refutation view."""
        encoded = []
        for lit in lits:
            atom = format_literal(Literal(True, lit.predicate, lit.args))
            vid = self.atoms.setdefault(atom, len(self.atoms) + 1)
            encoded.append(-vid if (lit.positive == swap_polarity) else vid)
        self.clauses.append(encoded)


def _simplify(clauses, assignment):
    changed = True
    while changed:
        changed = False
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
        if units:
            for u in units:
                if assignment.get(abs(u), (u > 0)) != (u > 0):
                    return None
                assignment[abs(u)] = u > 0
            changed = True
            continue
        # pure literal elimination
        seen: dict = {}
        for clause in clauses:
            for lit in clause:
                seen[abs(lit)] = seen.get(abs(lit), 0) | (1 if lit > 0 else 2)
        pure = [v for v, mask in sorted(seen.items()) if mask != 3]
        if pure:
            for v in pure:
                assignment[v] = seen[v] == 1
            changed = True
    return clauses


def _dpll(clauses, assignment):
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
        model = _dpll(clauses, trial)
        if model is not None:
            return model
    return None


def check_unsat(g: GroundClauseSet):
    """(True, None) when unsatisfiable, else (False, satisfying assignment)."""
    model = _dpll([list(c) for c in g.clauses], {})
    if model is None:
        return True, None
    names = {vid: atom for atom, vid in g.atoms.items()}
    witness = {names[v]: val for v, val in sorted(model.items()) if v in names}
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
    try:
        matrix = parse_problem(problem_text)
    except ParseError as exc:
        return CheckResult(False, f"problem parse error: {exc}")
    try:
        steps = parse_trace(proof_text)
    except TraceError as exc:
        return CheckResult(False, f"trace parse error: {exc}")
    return check_proof(steps, matrix)


def check_proof(steps, matrix: Matrix) -> CheckResult:
    freezer = _Freezer()
    ground = GroundClauseSet()
    ext_goals: list = []
    saw_start_mark = False

    def frozen(lit: Literal) -> Literal:
        return freezer.freeze_literal(lit)

    for idx, step in enumerate(steps):
        if isinstance(step, (Start, Ext, Rew)):
            if step.clause_id < 0 or step.clause_id >= len(matrix.clauses):
                return CheckResult(False, "clause reference out of range", idx)
            clause = matrix.clause(step.clause_id)
            theta = {name: freezer.freeze_term(t) for name, t in step.theta.items()}
            b_lits, theta_full = _instantiate(clause, theta, freezer)
            if not check_instance(b_lits, theta_full, clause):
                return CheckResult(
                    False, "instance not subsumed by its input clause", idx
                )
            if any(l.predicate == START_MARK for l in b_lits):
                saw_start_mark = True
            if isinstance(step, Ext):
                goal = frozen(step.goal)
                if Literal(not goal.positive, goal.predicate, goal.args) not in b_lits:
                    return CheckResult(
                        False, "extension goal is not connected to the clause instance", idx
                    )
                ext_goals.append(goal)
            if isinstance(step, Rew):
                rew = Rew(
                    step.clause_id,
                    theta,
                    frozen(step.eq_lit),
                    step.direction,
                    frozen(step.before),
                    frozen(step.after),
                    [frozen(s) for s in step.sides],
                )
                try:
                    extra = expand_rewrite(rew, b_lits)
                except TraceError as exc:
                    return CheckResult(False, f"malformed rewrite step: {exc}", idx)
                for lits in extra:
                    ground.add_clause(lits)
            ground.add_clause(b_lits)
        elif isinstance(step, Red):
            goal = frozen(step.goal)
            path_lit = frozen(step.path_lit)
            if Literal(not goal.positive, goal.predicate, goal.args) != path_lit:
                return CheckResult(
                    False, "reduction literals are not complementary", idx
                )
        elif isinstance(step, Lem):
            lit = frozen(step.lit)
            if lit not in ext_goals:
                return CheckResult(False, "lemma literal was never solved before", idx)
        else:
            return CheckResult(False, f"unknown step {step!r}", idx)

    if saw_start_mark:
        # the implicit initial goal of marked problems
        ground.add_clause([Literal(False, START_MARK, ())])
    unsat, witness = check_unsat(ground)
    if not unsat:
        return CheckResult(
            False, "instance set is propositionally satisfiable", None, witness
        )
    return CheckResult(True)


def check_proof_files(proof_path: str, problem_path: str) -> CheckResult:
    with open(proof_path, "r", encoding="utf-8") as fh:
        proof_text = fh.read()
    with open(problem_path, "r", encoding="utf-8") as fh:
        problem_text = fh.read()
    return check_proof_texts(proof_text, problem_text)
