"""Problem files: parsing, start-clause selection and literal printing.

The matrix is a list of clauses in disjunctive normal form, one clause per
line of the input file.  Grammar (UTF-8 text):

    problem  := { clause | comment | blank }
    clause   := item { "|" item } "."
    item     := literal | "#"
    literal  := term ( "=" | "!=" ) term | [ "-" ] atom
    atom     := ident [ "(" term { "," term } ")" ]
    term     := variable | ident [ "(" term { "," term } ")" ]
    comment  := "%" rest-of-line

An identifier is a run of `_` and the characters `str.isalnum()` accepts;
one that starts with an uppercase letter or `_` is a variable, quantified per
clause.  The parser numbers variables 0, 1, ... in order of first occurrence:
per clause, or over one table a caller shares, as the proof checker does for
all the fields of a trace.  Each literal has one spelling, the one
`format_literal` writes: a negated equation is `X != Y`, never `-X = Y`.
`#` is not an atom but a mark on its clause: the start clauses are the
marked ones, or the all-positive ones when no clause is marked, and a
clause's literals never hold the mark, so a marked clause can be used again
later in a proof, as leanCoP's conjecture clauses can.  Clause ids are
assigned in file order and stay stable for the whole run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .terms import App, Literal, Term, Var, literal_subterms

EQ = "="

# the bounds on a literal, its predicate counting as one level and one
# symbol: the parser refuses a deeper literal, the prover fails a state whose
# literal outgrows either (see calculus), and a walk over a term twice this
# deep, as a checker's ground instance can be, fits the default recursion limit
MAX_TERM_DEPTH = 128
MAX_TERM_SIZE = 1000


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Clause:
    id: int
    literals: tuple
    var_names: tuple  # source names; Var ids in literals are 0..len(var_names)-1


@dataclass
class Matrix:
    clauses: list = field(default_factory=list)
    start_ids: list = field(default_factory=list)
    # (predicate, positive, arity) -> (every, var_first, keyed), lists of
    # (literal, clause id, literal index) in clause and literal order: all;
    # those with a variable first argument; per first-argument (symbol,
    # arity), those whose first argument has that key or is a variable
    literal_index: dict = field(default_factory=dict)
    # the rewrite rules l -> r, l not a variable: one (clause id, literal
    # index, direction, source, target) per direction of a negative equation
    # whose source is not a variable, in clause order
    rewrite_rules: list = field(default_factory=list)
    # (head literal, rewriting on) -> (extension actions + rewrite actions,
    # number of extensions), or () for a head beyond the term bounds: the
    # head's path-free actions, filled only by calculus.valid_actions
    head_actions: dict = field(default_factory=dict, compare=False, repr=False)
    # (clause id, literal index, offset) -> (the literal shifted by offset,
    # the clause's other literals unshifted, ((source name, fresh id), ...)):
    # a step's renaming, filled only by calculus._apply_on_work
    renamed: dict = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# tokenizer

# one alternative per token kind; `\w` is exactly `str.isalnum()` plus "_"
_TOKEN = re.compile(r"(?P<skip>[ \t\r]+|%[^\n]*)|(?P<newline>\n)|(?P<punct>!=|[(),|.=#-])"
                    r"|(?P<ident>\w+)|(?P<error>.)")


def _tokenize(text: str):
    tokens = []  # (kind, value, line, col)
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "error":
            raise ParseError(f"unexpected character {value!r}", line, col)
        elif kind != "skip":
            tokens.append((value if kind == "punct" else kind, value, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _Parser:
    def __init__(self, text: str, vars: Optional[dict] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        # variable name -> id, numbered by first occurrence: per clause of a
        # problem, or one table the caller passes in and shares
        self.vars = {} if vars is None else vars

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def parse_clauses(self) -> list:
        """(literals, whether marked, variable names, position of the first
        token) per clause."""
        clauses = []
        while self.peek()[0] != "eof":
            self.vars = {}
            at = self.peek()[2:]
            items = [self.parse_item()]
            while self.peek()[0] == "|":
                self.next()
                items.append(self.parse_item())
            self.expect(".")
            lits = tuple(filter(None, items))
            clauses.append((lits, len(lits) < len(items), tuple(self.vars), at))
        return clauses

    def parse_item(self) -> Optional[Literal]:
        """A literal, or None for the start mark."""
        if self.peek()[0] == "#":
            self.next()
            return None
        return self.parse_literal()

    def parse_literal(self) -> Literal:
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        kind, value = self.peek()[:2]
        if kind != "ident":
            self.error(f"expected atom, found {value!r}")
        left = self.parse_term()
        if self.peek()[0] in ("=", "!="):
            if negative:
                self.error("'-' cannot negate an equation: write it with '!='")
            positive = self.next()[0] == "="
            return Literal(positive, EQ, (left, self.parse_term()))
        if isinstance(left, Var):
            self.error("a bare variable is not an atom")
        return Literal(not negative, left.symbol, left.args)

    def parse_term(self, depth: int = 1):
        tok = self.expect("ident")
        name = tok[1]
        if _is_var_name(name):
            return Var(self.vars.setdefault(name, len(self.vars)))
        args = []
        if self.peek()[0] == "(":
            if depth >= MAX_TERM_DEPTH:
                raise ParseError(f"terms nest deeper than {MAX_TERM_DEPTH}", tok[2], tok[3])
            self.next()
            args.append(self.parse_term(depth + 1))
            while self.peek()[0] == ",":
                self.next()
                args.append(self.parse_term(depth + 1))
            self.expect(")")
        return App(name, tuple(args))


def parse_problem(text: str) -> Matrix:
    """Parse a problem, enforcing arity consistency, and build its start
    clauses and action index."""
    raw = _Parser(text).parse_clauses()
    if not raw:
        raise ParseError("empty problem: no clauses", 1, 1)
    m = Matrix()
    arities: dict = {}  # name -> (arity, kind)
    for cid, (lits, _, names, at) in enumerate(raw):
        m.clauses.append(Clause(cid, lits, names))
        for j, lit in enumerate(lits):
            seen = [(lit.predicate, len(lit.args), "predicate")]
            seen += [(t.symbol, len(t.args), "function")
                     for _, t in literal_subterms(lit) if isinstance(t, App)]
            for name, arity, kind in seen:
                prev = arities.setdefault(name, (arity, kind))
                if prev != (arity, kind):
                    used = f"used as {kind}/{arity} but previously as {prev[1]}/{prev[0]}"
                    raise ParseError(f"symbol {name!r} {used}", *at)
            every, var_first, keyed = m.literal_index.setdefault(
                (lit.predicate, lit.positive, len(lit.args)), ([], [], {}))
            first = lit.args[0] if lit.args else None
            if isinstance(first, App):
                lists = (every, keyed.setdefault((first.symbol, len(first.args)), var_first[:]))
            else:
                lists = (every, var_first, *keyed.values())
            for candidates in lists:
                candidates.append((lit, cid, j))
            if not lit.positive and lit.predicate == EQ and len(lit.args) == 2:
                left, right = lit.args
                for direction, src, dst in (("LR", left, right), ("RL", right, left)):
                    if not isinstance(src, Var):
                        m.rewrite_rules.append((cid, j, direction, src, dst))
    marked = [cid for cid, (_, mark, _, _) in enumerate(raw) if mark]
    positive = [c.id for c in m.clauses if all(l.positive for l in c.literals)]
    m.start_ids = marked or positive
    return m


# ---------------------------------------------------------------------------
# printing

def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"_{t.id}"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({','.join(map(format_term, t.args))})"


def format_literal(lit: Literal) -> str:
    if lit.predicate == EQ and len(lit.args) == 2:
        op = "=" if lit.positive else "!="
        return f"{format_term(lit.args[0])}{op}{format_term(lit.args[1])}"
    body = format_term(App(lit.predicate, lit.args))
    return body if lit.positive else f"-{body}"
