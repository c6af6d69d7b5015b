"""Problem files: parsing, printing and start-clause selection.

The matrix is a list of clauses in disjunctive normal form, one clause per
line of the input file.  Grammar (UTF-8 text):

    problem  := { clause | comment | blank }
    clause   := literal { "|" literal } "."
    literal  := [ "-" ] atom
    atom     := ident [ "(" term { "," term } ")" ] | term "=" term | "#"
    term     := variable | ident [ "(" term { "," term } ")" ]
    comment  := "%" rest-of-line

Identifiers matching [A-Z_][A-Za-z0-9_]* are variables, quantified per
clause.  `X != Y` abbreviates `-(X = Y)`; `#` is the reserved start marker.
Clause ids are assigned in file order and stay stable for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .terms import App, Literal, Term, Var, literal_subterms, shift_literal

EQ = "="
START_MARK = "#"

# deepest nesting the parser accepts, a predicate counting as one level;
# recursive walks over parsed terms then stay well inside the recursion
# limit the package sets on import
MAX_TERM_DEPTH = 2000


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

    def rename(self, offset: int) -> tuple:
        """Copy with variable ids shifted by `offset`."""
        return tuple(shift_literal(l, offset) for l in self.literals)


@dataclass
class Matrix:
    clauses: list = field(default_factory=list)
    start_ids: list = field(default_factory=list)
    # (predicate, positive, arity) -> (every, var_first, keyed), lists of
    # (literal, clause id, literal index) in clause and literal order: all;
    # those with a variable first argument; per first-argument (symbol,
    # arity), those whose first argument has that key or is a variable
    literal_index: dict = field(default_factory=dict)
    # one (clause id, literal index, direction, source, target) per direction
    # of every negative equation, in clause order
    rewrite_rules: list = field(default_factory=list)

    def clause(self, cid: int) -> Clause:
        return self.clauses[cid]


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = {"(", ")", ",", "|", ".", "-", "=", "#"}


def _tokenize(text: str):
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


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars: dict = {}  # per-clause: name -> id
        self.var_names: list = []

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
        clauses = []
        while self.peek()[0] != "eof":
            self.vars = {}
            self.var_names = []
            lits = [self.parse_literal()]
            while self.peek()[0] == "|":
                self.next()
                lits.append(self.parse_literal())
            self.expect(".")
            clauses.append((tuple(lits), tuple(self.var_names)))
        return clauses

    def parse_literal(self) -> Literal:
        negative = False
        if self.peek()[0] == "-":
            self.next()
            negative = True
        atom = self.parse_atom()
        if negative:
            return Literal(not atom.positive, atom.predicate, atom.args)
        return atom

    def parse_atom(self) -> Literal:
        kind, value = self.peek()[:2]
        if kind == "#":
            self.next()
            if self.peek()[0] in ("=", "!="):
                self.error("'#' cannot appear inside an equation")
            return Literal(True, START_MARK, ())
        if kind == "(":
            # parenthesized atom, e.g. -(a = b)
            self.next()
            lit = self.parse_literal()
            self.expect(")")
            return lit
        if kind != "ident":
            self.error(f"expected atom, found {value!r}")
        left = self.parse_term()
        if self.peek()[0] in ("=", "!="):
            positive = self.next()[0] == "="
            return Literal(positive, EQ, (left, self.parse_term()))
        if isinstance(left, Var):
            self.error("a bare variable is not an atom")
        return Literal(True, left.symbol, left.args)

    def parse_term(self, depth: int = 1):
        tok = self.expect("ident")
        name = tok[1]
        if _is_var_name(name):
            if name not in self.vars:
                self.vars[name] = len(self.var_names)
                self.var_names.append(name)
            return Var(self.vars[name])
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
    for cid, (lits, names) in enumerate(raw):
        m.clauses.append(Clause(cid, lits, names))
        for j, lit in enumerate(lits):
            seen = [(lit.predicate, len(lit.args), "predicate")]
            seen += [(t.symbol, len(t.args), "function")
                     for _, t in literal_subterms(lit) if isinstance(t, App)]
            for name, arity, kind in seen:
                prev = arities.setdefault(name, (arity, kind))
                if prev != (arity, kind):
                    used = f"used as {kind}/{arity} but previously as {prev[1]}/{prev[0]}"
                    raise ParseError(f"symbol {name!r} {used}", 0, 0)
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
                m.rewrite_rules.append((cid, j, "LR", left, right))
                m.rewrite_rules.append((cid, j, "RL", right, left))
    marked = [c.id for c in m.clauses if any(l.predicate == START_MARK for l in c.literals)]
    positive = [c.id for c in m.clauses if c.literals and all(l.positive for l in c.literals)]
    m.start_ids = marked or positive
    return m


# ---------------------------------------------------------------------------
# printing

def format_term(t: Term, names: Optional[dict] = None) -> str:
    if isinstance(t, Var):
        if names and t.id in names:
            return names[t.id]
        return f"_{t.id}"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({','.join(format_term(a, names) for a in t.args)})"


def format_literal(lit: Literal, names: Optional[dict] = None) -> str:
    if lit.predicate == EQ and len(lit.args) == 2:
        op = "=" if lit.positive else "!="
        return f"{format_term(lit.args[0], names)}{op}{format_term(lit.args[1], names)}"
    body = lit.predicate
    if lit.args:
        body += f"({','.join(format_term(a, names) for a in lit.args)})"
    return body if lit.positive else f"-{body}"


def format_clause(c: Clause) -> str:
    names = {i: n for i, n in enumerate(c.var_names)}
    return " | ".join(format_literal(l, names) for l in c.literals) + "."


def format_matrix(m: Matrix) -> str:
    return "\n".join(format_clause(c) for c in m.clauses) + "\n"
