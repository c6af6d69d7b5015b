import pytest

from mctab.problems import (
    MAX_TERM_DEPTH,
    ParseError,
    format_clause,
    format_literal,
    format_matrix,
    generate_equality_axioms,
    parse_problem,
)
from mctab.terms import App, Literal, Var

APP_A = """\
% three clauses: assumptions forall x.p(x), forall x.p(x) => q(a), goal q(a)
-p(X).
p(Y) | -q(a).
q(a).
"""


def test_parse_three_clause_example():
    m = parse_problem(APP_A)
    assert len(m.clauses) == 3
    assert m.clauses[0].literals == (Literal(False, "p", (Var(0),)),)
    assert m.clauses[1].literals == (
        Literal(True, "p", (Var(0),)),
        Literal(False, "q", (App("a"),)),
    )
    assert m.clauses[2].literals == (Literal(True, "q", (App("a"),)),)
    assert [c.id for c in m.clauses] == [0, 1, 2]
    # only the goal clause is all-positive
    assert m.start_ids == [2]


def test_parse_empty_file_is_error():
    with pytest.raises(ParseError):
        parse_problem("% nothing here\n")


def test_parse_arity_mismatch_is_error():
    with pytest.raises(ParseError):
        parse_problem("p(a).\np(a,b).\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("p(a) |\n| q.\n")
    assert exc.value.line == 2


def nested(depth: int) -> str:
    return "f(" * depth + "a" + ")" * depth


def test_deep_terms_are_a_positioned_parse_error():
    # a predicate and MAX_TERM_DEPTH - 1 levels of terms parse; one more does not
    parse_problem(f"p({nested(MAX_TERM_DEPTH - 2)}).\n")
    with pytest.raises(ParseError) as exc:
        parse_problem(f"q.\np({nested(MAX_TERM_DEPTH - 1)}).\n")
    assert (exc.value.line, exc.value.col) == (2, 3 + 2 * (MAX_TERM_DEPTH - 2))
    with pytest.raises(ParseError, match=f"deeper than {MAX_TERM_DEPTH}"):
        parse_problem(f"p({nested(30000)}).\n")


def test_equality_shorthand():
    m = parse_problem("a=b.\nX != f(Y).\n-(a = b).\n")
    assert m.clauses[0].literals == (Literal(True, "=", (App("a"), App("b"))),)
    assert m.clauses[1].literals == (
        Literal(False, "=", (Var(0), App("f", (Var(1),)))),
    )
    assert m.clauses[2].literals == m.clauses[1].literals[:0] + (
        Literal(False, "=", (App("a"), App("b"))),
    )
    assert format_literal(m.clauses[2].literals[0]) == "a!=b"


def test_start_marker_convention():
    m = parse_problem("# | -q(a).\nq(a).\np(b).\n")
    assert m.start_ids == [0]


def test_variables_scoped_per_clause():
    m = parse_problem("p(X) | q(X).\nr(X).\n")
    # both clauses use local id 0 for their own X
    assert m.clauses[0].literals[0].args == m.clauses[1].literals[0].args


def test_print_parse_roundtrip():
    text = "\n".join(
        [
            "-p(X).",
            "p(Y) | -q(a).",
            "q(a).",
            "h(f(X),g(Y,c))=X | -r(Z) | # .",
            "a!=b.",
        ]
    )
    m1 = parse_problem(text)
    m2 = parse_problem(format_matrix(m1))
    assert len(m1.clauses) == len(m2.clauses)
    for c1, c2 in zip(m1.clauses, m2.clauses):
        assert c1.literals == c2.literals
        assert c1.var_names == c2.var_names
    assert m1.start_ids == m2.start_ids


def test_rename_shifts_variable_ids():
    m = parse_problem("p(X,Y) | q(X).\n")
    lits = m.clauses[0].rename(10)
    assert lits[0].args == (Var(10), Var(11))
    assert lits[1].args == (Var(10),)


def test_equality_axioms_generated():
    m = parse_problem("a=b.\np(f(a)).\n")
    n_before = len(m.clauses)
    generate_equality_axioms(m)
    texts = [format_clause(c) for c in m.clauses[n_before:]]
    assert "X!=X." in texts
    assert "X=Y | Y!=X." in texts
    assert "X=Y | Y=Z | X!=Z." in texts
    # congruence for unary f: X=Y entails f(X)=f(Y)
    assert "X=Y | f(X)!=f(Y)." in texts
    # predicate congruence for p
    assert "X=Y | p(X) | -p(Y)." in texts
    # '=' itself gets no congruence clause (symmetry+transitivity cover it)
    assert not any("=(" in t for t in texts)


def test_equality_axioms_idempotent():
    m = parse_problem("a=b.\np(f(a)).\n")
    generate_equality_axioms(m)
    n = len(m.clauses)
    generate_equality_axioms(m)
    assert len(m.clauses) == n


def test_equality_axioms_noop_without_equality():
    m = parse_problem("p(a).\n-p(X).\n")
    n = len(m.clauses)
    generate_equality_axioms(m)
    assert len(m.clauses) == n


def test_action_index_after_axioms_equals_a_fresh_one():
    text = "a=b.\nf(X)!=g(X) | p(X).\n-p(h(a,b)).\n"
    m = parse_problem(text)
    generate_equality_axioms(m)
    fresh = parse_problem(format_matrix(m))
    assert [c.literals for c in fresh.clauses] == [c.literals for c in m.clauses]
    assert m.literal_index == fresh.literal_index
    assert m.rewrite_rules == fresh.rewrite_rules
    assert m.start_ids == fresh.start_ids
    assert len(m.rewrite_rules) > len(parse_problem(text).rewrite_rules)


def test_clause_ids_stable_after_axioms():
    m = parse_problem("a=b.\nq(a).\n")
    generate_equality_axioms(m)
    assert [c.id for c in m.clauses] == list(range(len(m.clauses)))
