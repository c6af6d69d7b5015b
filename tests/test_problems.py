import pytest
from hypothesis import given, settings, strategies as st

from mctab.problems import (
    MAX_TERM_DEPTH,
    ParseError,
    _tokenize,
    format_literal,
    parse_problem,
)
from mctab.terms import App, Literal, Var

from helpers import reference_tokenize

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


def test_arity_clash_is_positioned_at_its_clause():
    clash = "'f' used as function/2 but previously as function/1"
    with pytest.raises(ParseError, match=clash) as exc:
        parse_problem("p(a).\nq(f(a)) | p(f(a,b)).\n")
    assert (exc.value.line, exc.value.col) == (2, 1)
    with pytest.raises(ParseError, match="'p' used as predicate/2") as exc:
        parse_problem("p(a).\n% p/2 next\n\n   -q | p(a,b).\n")
    assert (exc.value.line, exc.value.col) == (4, 4)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("p(a) |\n| q.\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="expected '.', found '='") as exc:
        parse_problem("#=a.\n")
    assert (exc.value.line, exc.value.col) == (1, 2)


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
    m = parse_problem("a=b.\nX != f(Y).\na!=b.\n")
    assert m.clauses[0].literals == (Literal(True, "=", (App("a"), App("b"))),)
    assert m.clauses[1].literals == (
        Literal(False, "=", (Var(0), App("f", (Var(1),)))),
    )
    assert m.clauses[2].literals == (Literal(False, "=", (App("a"), App("b"))),)
    assert format_literal(m.clauses[2].literals[0]) == "a!=b"
    # each literal has one spelling: no parentheses, no '-' before an equation
    for text, message, col in (
        ("-(a = b).", "expected atom, found '\\('", 2),
        ("(p).", "expected atom, found '\\('", 1),
        ("-(-p).", "expected atom, found '\\('", 2),
        ("-a=b.", "'-' cannot negate an equation: write it with '!='", 3),
        ("-a!=b.", "'-' cannot negate an equation: write it with '!='", 3),
    ):
        with pytest.raises(ParseError, match=message) as exc:
            parse_problem(f"q.\n{text}\n")
        assert (exc.value.line, exc.value.col) == (2, col), text


def test_rewrite_rules_have_no_variable_source():
    # f(X) -> X is a rewrite rule; X -> f(X) would match every subterm
    m = parse_problem("f(X)!=X | p(X).\n")
    assert m.rewrite_rules == [(0, 0, "LR", App("f", (Var(0),)), Var(0))]
    assert parse_problem("X!=Y | p(X).\n").rewrite_rules == []
    # a target with a variable the source lacks is still a rule
    m = parse_problem("p(a).\nq(b) | a!=X.\n")
    assert m.rewrite_rules == [(1, 1, "LR", App("a"), Var(0))]


def test_no_corpus_rule_has_a_variable_source():
    import os
    from mctab.cli import corpus_dir

    rules = []
    for name in sorted(os.listdir(corpus_dir())):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            rules += parse_problem(fh.read()).rewrite_rules
    # 66 of the 102 orientations of the corpus's negative equations
    assert len(rules) == 66 and not any(isinstance(src, Var) for _, _, _, src, _ in rules)


def test_start_marker_convention():
    m = parse_problem("# | -q(a).\nq(a).\np(b).\n")
    assert m.start_ids == [0]
    # the mark is a clause flag, not a literal
    m = parse_problem("-q(a) | #.\nq(X) | # | -p(X).\np(a).\n#.\n")
    assert m.start_ids == [0, 1, 3]
    assert [c.literals for c in m.clauses] == [
        (Literal(False, "q", (App("a"),)),),
        (Literal(True, "q", (Var(0),)), Literal(False, "p", (Var(0),))),
        (Literal(True, "p", (App("a"),)),),
        (),
    ]
    # the mark is no atom: it is never negated and never stands in an equation
    for text, at in (("p | -#.\n", (1, 6)), ("p.\na = # | q.\n", (2, 5)),
                     ("-#.\n", (1, 2))):
        with pytest.raises(ParseError, match="found '#'") as exc:
            parse_problem(text)
        assert (exc.value.line, exc.value.col) == at, text


def test_variables_scoped_per_clause():
    m = parse_problem("p(X) | q(X).\nr(X).\n")
    # both clauses use local id 0 for their own X
    assert m.clauses[0].literals[0].args == m.clauses[1].literals[0].args


def printed(m):
    """The clauses of `m` in the spelling of traces: each literal as
    `format_literal` writes it, variable `Var(i)` as `_i`, and `#` on every
    start clause."""
    return "".join(" | ".join([*map(format_literal, c.literals)] + ["#"] * (c.id in m.start_ids))
                   + ".\n" for c in m.clauses)


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
    m2 = parse_problem(printed(m1))
    assert [c.literals for c in m2.clauses] == [c.literals for c in m1.clauses]
    assert m1.start_ids == m2.start_ids


# problem text over one fixed signature, so every generated problem parses:
# predicates r/0, p/1, q/2, functions f/1, g/2, constants a, b
_terms = st.recursive(
    st.sampled_from(["X", "Y", "Z", "a", "b"]),
    lambda sub: st.one_of(
        st.builds("f({})".format, sub), st.builds("g({},{})".format, sub, sub)
    ),
    max_leaves=8,
)
_literals = st.one_of(
    st.just("#"),
    st.builds("{}r".format, st.sampled_from(["", "-"])),
    st.builds("{}p({})".format, st.sampled_from(["", "-"]), _terms),
    st.builds("{}q({},{})".format, st.sampled_from(["", "-"]), _terms, _terms),
    st.builds("{} {} {}".format, _terms, st.sampled_from(["=", "!="]), _terms),
    st.builds("{}!={}".format, _terms, _terms),
)
_problems = st.lists(
    st.lists(_literals, min_size=1, max_size=4).map(lambda lits: " | ".join(lits) + "."),
    min_size=1,
    max_size=6,
).map("\n".join)


@settings(max_examples=300)
@given(_problems)
def _print_parse_round_trip(text):
    m1 = parse_problem(text)
    m2 = parse_problem(printed(m1))
    assert [c.literals for c in m2.clauses] == [c.literals for c in m1.clauses]
    assert m2.start_ids == m1.start_ids
    assert m2.literal_index == m1.literal_index
    assert m2.rewrite_rules == m1.rewrite_rules


def test_print_parse_round_trip_property(hypothesis_home):
    _print_parse_round_trip()


# problem text with noise inserted, and free text over the grammar's
# alphabet with characters that are errors or unusual letters
_ALPHABET = "pqfgXY_ab09(),|.-=!#% \t\r\n\x00\f\u00e9\u0663\u2028"
_noise = st.text(st.sampled_from(_ALPHABET), max_size=10)


def _inserted(args):
    text, inserts = args
    for at, noise in inserts:
        at %= len(text) + 1
        text = text[:at] + noise + text[at:]
    return text


_inserts = st.lists(st.tuples(st.integers(0, 200), _noise), max_size=3)
_token_texts = st.one_of(
    st.tuples(_problems, _inserts).map(_inserted),
    st.text(st.sampled_from(_ALPHABET), max_size=40),
)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300)
@given(_token_texts)
def _tokens_as_the_reference(text):
    mine = _tokens_or_error(_tokenize, text)
    ref = _tokens_or_error(reference_tokenize, text)
    last = text.rpartition("\n")[2]
    if isinstance(ref, list) and "%" in last:
        # the one change: after a comment at the end of the input, eof sits at
        # the end of the line, where the character loop left it at the '%'
        assert ref[-1][3] == last.index("%") + 1
        ref[-1] = ref[-1][:3] + (len(last) + 1,)
    assert mine == ref


def test_tokens_as_the_reference(hypothesis_home):
    _tokens_as_the_reference()
