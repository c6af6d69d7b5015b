import random

import pytest
from hypothesis import given, settings, strategies as st

from mctab.calculus import (
    ExtAction,
    ExtStep,
    LemStep,
    RedAction,
    RedStep,
    RewAction,
    RewStep,
    StartStep,
)
from mctab.terms import (
    App,
    Literal,
    Var,
    fnv1a64,
    instantiate_literal,
    instantiate_term,
    literal_replace,
    literal_subterm,
    literal_subterms,
    match_term,
    replace_at,
    resolve_literal,
    resolve_term,
    shift_literal,
    shift_term,
    subterm_at,
    subterms,
    term_stats,
    unify_literals,
)

from helpers import (
    CONSTANTS,
    FUNCTIONS,
    REFERENCE_TYPES,
    alpha_equal,
    oracle_apply,
    oracle_unify,
    oracle_vars,
    random_literal_pair,
    random_term,
    random_term_pair,
    rebuilt,
    reference_term_stats,
    reference_unify,
)


def a():
    return App("a")


def unify(x, y):
    """The most general unifier of two terms: `unify_literals` on the
    one-argument literals `p(x)` and `p(y)`."""
    return unify_literals(Literal(True, "p", (x,)), Literal(True, "p", (y,)))


def resolved(s: dict) -> list:
    """The bindings of `s`, each resolved through `s`, in key order."""
    return [(v, resolve_term(s, t)) for v, t in s.items()]


def test_unify_textbook_mgu():
    # p(X, f(X)) vs p(a, Y)  ->  {X -> a, Y -> f(X)}, resolving to Y -> f(a)
    x, y = Var(0), Var(1)
    s = unify_literals(
        Literal(True, "p", (x, App("f", (x,)))),
        Literal(True, "p", (a(), y)),
    )
    assert s == {0: a(), 1: App("f", (x,))}
    assert resolved(s) == [(0, a()), (1, App("f", (a(),)))]


def test_unify_occurs_check_fails():
    x = Var(0)
    assert unify(x, App("f", (x,))) is None


def test_unify_occurs_check_walks_shared_bindings_once():
    """q(Z1,Z1,...,Zn,Zn) against q(Y1,f(Y0,Y0),...,Yn,f(Yn-1,Yn-1)) binds
    Zn to a term of 2^(n+1) - 1 symbols; an occurs check that followed every
    occurrence of a bound variable would never finish at n = 60."""
    n = 60
    zs = tuple(Var(i) for i in range(1, n + 1))
    ys = tuple(Var(n + 1 + i) for i in range(n + 1))
    left = tuple(z for z in zs for _ in range(2))
    right = tuple(t for i in range(1, n + 1) for t in (ys[i], App("f", (ys[i - 1], ys[i - 1]))))
    s = unify_literals(Literal(True, "q", left), Literal(True, "q", right))
    assert len(s) == 2 * n
    # Y0 occurs in what Zn is bound to
    cyclic = Literal(True, "q", left + (ys[0],)), Literal(True, "q", right + (zs[-1],))
    assert unify_literals(*cyclic) is None


def test_unify_identical_literals_empty_subst():
    lit = Literal(True, "p", (Var(0),))
    assert unify_literals(lit, lit) == {}


def test_unify_result_is_triangular():
    # a term's last argument goes first: Y=a, then X=f(Y), kept as made
    s = unify(App("h", (Var(0), Var(1))), App("h", (App("f", (Var(1),)), a())))
    assert list(s.items()) == [(1, a()), (0, App("f", (Var(1),)))]
    assert resolve_term(s, Var(0)) == App("f", (a(),))
    # -p(X,X) against p(Y,f(a)): X is bound to Y, which is bound after it
    s = unify_literals(
        Literal(True, "p", (Var(0), Var(0))), Literal(True, "p", (Var(1), App("f", (a(),))))
    )
    assert list(s.items()) == [(0, Var(1)), (1, App("f", (a(),)))]
    assert resolve_term(s, Var(0)) == App("f", (a(),))


def test_apply_subst_examples():
    f_xy = App("f", (Var(0), Var(1)))
    assert resolve_term({0: a()}, f_xy) == App("f", (a(), Var(1)))
    assert resolve_term({}, f_xy) is f_xy
    s = {0: App("g", (Var(2),)), 2: App("b")}
    assert resolve_literal(s, Literal(True, "p", (Var(0),))) == Literal(
        True, "p", (App("g", (App("b"),)),)
    )


def test_resolve_is_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        t1, t2 = random_term_pair(rng)
        s = unify(t1, t2)
        if s is None:
            continue
        u = resolve_term(s, t1)
        assert resolve_term(s, u) == u


def test_unify_makes_terms_identical():
    rng = random.Random(11)
    for _ in range(500):
        t1, t2 = random_term_pair(rng)
        s = unify(t1, t2)
        if s is not None:
            assert resolve_term(s, t1) == resolve_term(s, t2)


def test_unify_agrees_with_oracle():
    rng = random.Random(3)
    for _ in range(2000):
        t1, t2 = random_term_pair(rng)
        mine = unify(t1, t2)
        ref = oracle_unify(t1, t2)
        assert (mine is None) == (ref is None), (t1, t2)
        if mine is not None:
            inst_mine = resolve_term(mine, t1)
            inst_ref = oracle_apply(ref, t1)
            assert alpha_equal(inst_mine, inst_ref), (t1, t2, mine, ref)


def test_unify_literals_equal_the_reference_key_order_included():
    rng = random.Random(2024)
    unified = 0
    for _ in range(20_000):
        a, b = random_literal_pair(rng)
        mine = unify_literals(a, b)
        ref = reference_unify(a, b)
        assert (mine is None) == (ref is None), (a, b)
        if mine is not None:
            assert resolved(mine) == list(ref.items()), (a, b)
            unified += 1
    assert unified > 2_000


_terms = st.recursive(
    st.one_of(
        st.builds(Var, st.integers(-2, 3)),
        st.sampled_from(CONSTANTS).map(App),
    ),
    lambda inner: st.one_of(
        [st.tuples(*[inner] * n).map(lambda args, f=f: App(f, args)) for f, n in FUNCTIONS]
    ),
    max_leaves=10,
)


@settings(max_examples=500)
@given(_terms, _terms)
def _unify_terms_as_the_reference(a, b):
    mine = unify(a, b)
    ref = reference_unify(a, b)
    assert (mine is None) == (ref is None)
    if mine is not None:
        assert resolved(mine) == list(ref.items())
        assert resolve_term(mine, a) == resolve_term(mine, b)


def test_unify_terms_property_against_the_reference(hypothesis_home):
    _unify_terms_as_the_reference()


# ---------------------------------------------------------------------------
# the named tuples against the frozen dataclasses they replaced

LIBRARY_TYPES = {
    t.__name__: t
    for t in (Var, App, Literal, ExtAction, RedAction, RewAction,
              StartStep, ExtStep, RedStep, LemStep, RewStep)
}

_ints = st.integers(-1, 3)
_literals = st.builds(
    Literal, st.booleans(), st.sampled_from(["p", "q"]), st.lists(_terms, max_size=3).map(tuple)
)
_directions = st.sampled_from(["LR", "RL"])
_varmaps = st.lists(st.tuples(st.sampled_from("XY"), _ints), max_size=2).map(tuple)
_actions = st.one_of(
    st.builds(ExtAction, _ints, _ints),
    st.builds(RedAction, _ints),
    st.builds(RewAction, _ints, _ints, _directions,
              st.lists(st.integers(1, 2), max_size=3).map(tuple)),
)
_steps = st.one_of(
    st.builds(StartStep, _ints, _varmaps),
    st.builds(ExtStep, _ints, _varmaps, _literals),
    st.builds(RedStep, _literals, _literals),
    st.builds(LemStep, _literals),
    st.builds(RewStep, _ints, _varmaps, _literals, _directions, _literals, _literals,
              st.lists(_literals, max_size=2).map(tuple)),
)
# a pair of values of one kind: terms and literals, actions, or proof steps
_pairs = st.one_of(
    st.tuples(_terms | _literals, _terms | _literals),
    st.tuples(_actions, _actions),
    st.tuples(_steps, _steps),
)


@settings(max_examples=1000)
@given(_pairs)
def _named_tuples_as_the_dataclasses(pair):
    a, b = pair
    ref_a, ref_b = rebuilt(a, REFERENCE_TYPES), rebuilt(b, REFERENCE_TYPES)
    assert (a == b) == (ref_a == ref_b)
    assert (a != b) == (ref_a != ref_b)
    # an equal value built apart from `a` is equal to it in both
    assert a == rebuilt(a, LIBRARY_TYPES) and ref_a == rebuilt(a, REFERENCE_TYPES)
    for x, ref_x in ((a, ref_a), (b, ref_b)):
        assert type(ref_x).__name__ == type(x).__name__
        assert hash(x) == hash(ref_x)
        assert repr(x) == repr(ref_x)


def test_named_tuples_agree_with_the_dataclasses(hypothesis_home):
    _named_tuples_as_the_dataclasses()


# ---------------------------------------------------------------------------
# the contracts the extension step relies on

def test_unify_literals_ignores_polarity_key_order_included():
    """The calculus unifies a goal with the literals complementary to it as
    they stand, so the unifier must not depend on either side's polarity."""
    rng = random.Random(2025)
    unified = 0
    for _ in range(5_000):
        a, b = random_literal_pair(rng)
        mine = unify_literals(a, b)
        not_a = Literal(not a.positive, a.predicate, a.args)
        not_b = Literal(not b.positive, b.predicate, b.args)
        for x, y in ((not_a, b), (a, not_b), (not_a, not_b)):
            other = unify_literals(x, y)
            assert (other is None) == (mine is None), (x, y)
            if mine is not None:
                assert list(other.items()) == list(mine.items()), (x, y)
        unified += mine is not None
    assert unified > 500


def _relabel(t, ids):
    if isinstance(t, Var):
        return Var(ids[t.id % len(ids)])
    return App(t.symbol, tuple(_relabel(a, ids) for a in t.args))


@st.composite
def _triangular_substitutions(draw):
    """A triangular substitution over the ids -2..8: in a random order of the
    ids, a binding mentions only ids later in that order (a bare variable
    half the time, so bindings chain), and its keys are in another random
    order."""
    order = draw(st.permutations(range(-2, 9)))
    s = {}
    for i, v in enumerate(order[: draw(st.integers(0, len(order) - 1))]):
        shape = draw(st.builds(Var, st.integers(0, 10)) | _terms)
        s[v] = _relabel(shape, order[i + 1 :])
    keys = draw(st.permutations(list(s)))
    return {v: s[v] for v in keys}


def test_instantiate_literal_equals_shift_then_resolve(hypothesis_home):
    seen = {"shifted": 0, "chained": 0}

    @settings(max_examples=500)
    @given(_literals, st.integers(-2, 5), _triangular_substitutions())
    def instantiate_as_shift_then_resolve(lit, k, s):
        assert instantiate_literal(lit, k, s) == resolve_literal(s, shift_literal(lit, k))
        for t in lit.args:
            assert instantiate_term(t, k, s) == resolve_term(s, shift_term(t, k))
        bound = {v + k for t in lit.args for v in oracle_vars(t)} & s.keys()
        seen["shifted"] += bool(bound)
        seen["chained"] += any(oracle_vars(s[v]) & s.keys() for v in bound)

    instantiate_as_shift_then_resolve()
    # shifted variables are bound, some through chains of bindings
    assert seen["shifted"] > 100 and seen["chained"] > 50, seen


def test_match_is_one_sided():
    pat = App("f", (Var(0),))
    subj = App("f", (App("g", (Var(5),)),))
    assert match_term(pat, subj) == {0: App("g", (Var(5),))}
    # subject variables are never bound
    assert match_term(App("f", (a(),)), App("f", (Var(1),))) is None
    # non-linear patterns require equal subjects
    pat2 = App("h", (Var(0), Var(0)))
    assert match_term(pat2, App("h", (a(), a()))) == {0: a()}
    assert match_term(pat2, App("h", (a(), App("b")))) is None


def test_term_stats_examples():
    assert term_stats([Literal(True, "p", (a(),))]) == (2, 2, 2, 2)
    assert term_stats([]) == (0, 0, 0, 0)
    goals = [
        Literal(True, "p", (App("f", (Var(0),)),)),
        Literal(True, "q", (a(),)),
    ]
    total, max_size, max_depth, symbols = term_stats(goals)
    assert total == 5
    assert max_size == 3
    assert max_depth == 3
    assert symbols == 4  # p, f, q, a; the variable is not a symbol


def test_term_stats_equal_the_three_walk_reference():
    rng = random.Random(17)
    for _ in range(2000):
        goals = [
            Literal(
                rng.random() < 0.5,
                rng.choice("pqr"),
                tuple(random_term(rng, rng.randint(1, 15)) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        assert term_stats(goals) == reference_term_stats(goals), goals


def test_positions_enumeration_order():
    t = App("f", (a(), App("g", (App("b"),))))
    assert [p for p, _ in subterms(t)] == [(), (1,), (2,), (2, 1)]


def test_replace_at_positions():
    t = App("f", (a(), App("g", (App("b"),))))
    assert replace_at(t, (2, 1), App("c")) == App("f", (a(), App("g", (App("c"),))))
    assert replace_at(t, (), App("c")) == App("c")
    with pytest.raises(IndexError):
        subterm_at(t, (3,))


def test_positions_replace_roundtrip():
    rng = random.Random(5)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 12))
        for p, sub in subterms(t):
            assert subterm_at(t, p) == sub
            assert replace_at(t, p, sub) == t


def test_literal_positions_exclude_predicate_root():
    lit = Literal(True, "p", (App("g", (a(),)),))
    assert [p for p, _ in literal_subterms(lit)] == [(1,), (1, 1)]
    assert literal_subterm(lit, (1, 1)) == a()
    assert literal_replace(lit, (1,), App("b")) == Literal(True, "p", (App("b"),))


def test_fnv1a64_pinned_value():
    # every saved dataset's and model's feature indices depend on this value
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
