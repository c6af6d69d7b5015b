import os
import random

from mctab.calculus import ExtAction, ProverState, RedAction, RewAction, initial_states
from mctab.cli import corpus_dir
from mctab.config import Config
from mctab.features import FeatureExtractor, compress
from mctab.guidance import DefaultGuidance
from mctab.loop import list_problems
from mctab.mcts import search_problem
from mctab.problems import parse_problem
from mctab.terms import App, Literal, Var

from helpers import random_eq_matrix, random_matrix, raw_features


def mk_state(goals=(), path=(), todos=()):
    return ProverState(
        goals=tuple(goals),
        path=tuple(path),
        lemmas=(),
        todos=tuple(todos),
        actions=(),
        proof=(),
        result=0,
        subst={},
        next_var=100,
        inference_count=0,
    )


M = parse_problem("-p(X).\np(Y) | -q(a).\nq(a).\n")


def oracle(m, s, action=None, dim=10000):
    return compress(raw_features(m, s.goals, s.path, action), dim)


def test_walk_tokens_for_nested_literal():
    goal = Literal(True, "p", (App("f", (App("a"),)),))
    raw = raw_features(M, (goal,), ())
    for tok in ["g:p", "g:p.f", "g:p.f.a", "g:f", "g:f.a", "g:a"]:
        assert raw[tok] == 1.0
    assert raw["n:goals"] == 1.0
    assert raw["n:symbols"] == 3.0
    assert raw["n:maxdepth"] == 3.0
    assert raw["n:pathlen"] == 0.0


def test_variables_abstracted():
    g1 = (Literal(True, "p", (Var(0),)),)
    g2 = (Literal(True, "p", (Var(7),)),)
    assert raw_features(M, g1, ()) == raw_features(M, g2, ())


def test_empty_goal_list_only_scalars():
    raw = raw_features(M, (), ())
    assert raw["n:goals"] == 0.0
    assert raw["n:symbols"] == 0.0
    assert all(k.startswith("n:") for k in raw)


def test_polarity_folds_into_predicate_token():
    pos = raw_features(M, (Literal(True, "p", ()),), ())
    neg = raw_features(M, (Literal(False, "p", ()),), ())
    assert "g:p" in pos and "g:~p" in neg


def test_two_most_frequent_symbols_ties_lexicographic():
    goals = (
        Literal(True, "p", (App("a"), App("b"))),
        Literal(True, "q", (App("a"), App("b"))),
    )
    raw = raw_features(M, goals, ())
    assert raw.get("top:a") == 1.0
    assert raw.get("top:b") == 1.0
    assert "top:p" not in raw


def test_compress_sums_modulo_collisions():
    # craft tokens whose hashes collide mod 10 by brute force
    from mctab.terms import fnv1a64

    base = fnv1a64("tok0") % 10
    other = next(f"tok{i}" for i in range(1, 500) if fnv1a64(f"tok{i}") % 10 == base)
    fv = compress({"tok0": 1.0, other: 2.0}, 10)
    assert fv[base] == 3.0


def test_compress_empty_and_mass_conservation():
    assert compress({}, 10) == {}
    raw = raw_features(M, (Literal(True, "q", (App("a"),)),), ())
    fv = compress(raw, 17)
    assert abs(sum(fv.values()) - sum(raw.values())) < 1e-12
    assert all(0 <= i < 17 for i in fv)


def test_state_features_ignore_todos():
    ex = FeatureExtractor(M, 101)
    g = (Literal(True, "q", (App("a"),)),)
    s1 = mk_state(goals=g)
    s2 = mk_state(goals=g, todos=(((Literal(True, "p", (App("a"),)),), (), ()),))
    assert ex.state_features(s1) == ex.state_features(s2)


def test_action_features_distinguish_ext_and_red():
    ex = FeatureExtractor(M, 1009)
    plit = Literal(False, "q", (App("a"),))
    s = mk_state(goals=(Literal(True, "q", (App("a"),)),), path=(plit,))
    f_ext = ex.action_features(s, ex.action_key(s, ExtAction(1, 1)))
    f_red = ex.action_features(s, ex.action_key(s, RedAction(0)))
    assert f_ext != f_red


def test_cache_hit_equals_fresh_computation():
    ex = FeatureExtractor(M, 101)
    s = mk_state(goals=(Literal(True, "q", (App("a"),)),))
    a = ExtAction(1, 1)
    for _ in range(2):  # the second round reuses the state vector and the delta
        assert ex.state_features(s) == oracle(M, s, dim=101)
        assert ex.action_features(s, ex.action_key(s, a)) == oracle(M, s, a, dim=101)


def test_states_differing_below_depth_three_get_their_own_vectors():
    ex = FeatureExtractor(M, 10000)
    for leaf in ("a", "b"):
        t = App(leaf)
        for _ in range(3):
            t = App("f", (t,))
        s = mk_state(goals=(Literal(True, "p", (t,)),))
        assert ex.state_features(s) == oracle(M, s)
        a = ExtAction(0, 0)
        assert ex.action_features(s, ex.action_key(s, a)) == oracle(M, s, a)


def _assert_tree_matches_oracle(m, tree, dim):
    ex = FeatureExtractor(m, dim)
    checked = 0
    for node in tree.nodes:
        s = node.state
        # alternate the call order so both the fresh and the reused state
        # vector are compared
        if node.id % 2:
            assert ex.state_features(s) == oracle(m, s, dim=dim)
        for a in s.actions:
            assert ex.action_features(s, ex.action_key(s, a)) == oracle(m, s, a, dim=dim)
            checked += 1
        assert ex.state_features(s) == oracle(m, s, dim=dim)
    return checked


def test_extractor_equals_oracle_on_corpus_trees():
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60)
    kinds = set()
    for name in ("eq_chain_4.p", "eq_fun.p", "ground_red.p", "twopath_03.p", "hard_branch.p"):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            m = parse_problem(fh.read())
        tree = search_problem(m, DefaultGuidance(), cfg).tree
        assert _assert_tree_matches_oracle(m, tree, 10000) > 0
        kinds.update(type(a) for n in tree.nodes for a in n.state.actions)
    assert kinds == {ExtAction, RewAction}
    # a red action needs a non-ground path literal and guided reduction
    m = parse_problem(
        "q(X) | q(f(X)).\n-q(Y) | r(Y).\n-r(Z) | -q(a).\n-r(b) | -q(f(b)).\n-q(c).\n"
    )
    cfg = Config(inference_limit=100, bigstep_freq=10, path_limit=20, guided_reduction=True)
    tree = search_problem(m, DefaultGuidance(), cfg).tree
    _assert_tree_matches_oracle(m, tree, 10000)
    assert any(isinstance(a, RedAction) for n in tree.nodes for a in n.state.actions)


def test_extractor_equals_oracle_on_random_matrices():
    rng = random.Random(7)
    for i in range(20):
        cfg = Config(
            rewrite=True, inference_limit=60, bigstep_freq=7, path_limit=20,
            guided_reduction=bool(i % 2),
        )
        m, _ = random_matrix(rng)
        tree = search_problem(m, DefaultGuidance(), cfg).tree
        _assert_tree_matches_oracle(m, tree, 97)  # small dimension: many collisions


def test_states_with_one_skeleton_key_have_one_vector():
    # a state key erases variable ids only, so one key stands for one vector
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60, guided_reduction=True)
    matrices = []
    for name in list_problems(corpus_dir()):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            matrices.append(parse_problem(fh.read()))
    rng = random.Random(36)
    matrices += [(random_matrix if i % 2 else random_eq_matrix)(rng)[0] for i in range(40)]
    states = renamed = 0
    for m in matrices:
        ex = FeatureExtractor(m, cfg.feature_dim)
        seen = {}  # state key -> the oracle's vector and the literals first met under it
        for node in search_problem(m, DefaultGuidance(), cfg).tree.nodes:
            s = node.state
            vector = oracle(m, s, dim=cfg.feature_dim)
            first, literals = seen.setdefault(ex.state_key(s), (vector, (s.goals, s.path)))
            assert first == vector
            assert ex.state_features(s) == vector
            states += 1
            renamed += literals != (s.goals, s.path)
    # some keys stand for literals that differ in their variable ids
    assert states > renamed > 0


def _skeletons_of(ex, key):
    """`key` with each skeleton id replaced by its skeleton, so that the
    keys of two extractors compare."""
    skeletons = {i: skeleton for skeleton, i in ex._skeletons.items()}
    return tuple(tuple(skeletons[i] for i in ids) for ids in key)


def test_the_one_memo_answers_keys_and_vectors_in_any_order():
    # the last-state memo holds a state's key and vector for whichever is
    # asked first, and a new state replaces both
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60, guided_reduction=True)
    matrices = []
    for name in list_problems(corpus_dir()):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            matrices.append(parse_problem(fh.read()))
    rng = random.Random(37)
    matrices += [(random_matrix if i % 2 else random_eq_matrix)(rng)[0] for i in range(30)]
    asked = changed = 0
    for m in matrices:
        key_first, vector_first, interleaved = (
            FeatureExtractor(m, cfg.feature_dim) for _ in range(3))
        other = other_vector = None
        for node in search_problem(m, DefaultGuidance(), cfg).tree.nodes:
            s = node.state
            fresh = FeatureExtractor(m, cfg.feature_dim)
            key = _skeletons_of(fresh, fresh.state_key(s))
            vector = oracle(m, s, dim=cfg.feature_dim)
            assert _skeletons_of(key_first, key_first.state_key(s)) == key
            assert key_first.state_features(s) == vector
            assert vector_first.state_features(s) == vector
            assert _skeletons_of(vector_first, vector_first.state_key(s)) == key
            if other is not None:  # A, B, A
                assert _skeletons_of(interleaved, interleaved.state_key(s)) == key
                assert interleaved.state_features(other) == other_vector
                assert interleaved.state_features(s) == vector
                assert _skeletons_of(interleaved, interleaved.state_key(s)) == key
                changed += vector != other_vector
            other, other_vector = s, vector
            asked += 1
    # a stale answer would differ from the right one
    assert asked > changed > asked // 2


def test_a_state_key_erases_variable_ids_only():
    ex = FeatureExtractor(M, 101)

    def key(*goals):
        return ex.state_key(mk_state(goals=goals, path=goals[1:]))

    x, a = Var(3), App("a")
    px, pa = Literal(True, "p", (x,)), Literal(True, "p", (a,))
    assert key(Literal(True, "p", (x, x))) == key(Literal(True, "p", (Var(9), Var(0))))
    told_apart = [
        key(px), key(Literal(False, "p", (x,))), key(Literal(True, "q", (x,))), key(pa),
        key(Literal(True, "p", (App("*"),))),  # a constant named * is not a variable
        key(Literal(True, "p", (App("f", (x,)),))), key(Literal(True, "p", (App("f", (a,)),))),
        key(px, pa), key(pa, px),  # goals and path in order
    ]
    assert len(set(told_apart)) == len(told_apart)


def test_determinism_same_state_twice():
    cfg = Config(single_action_optim=False, rewrite=False)
    s = initial_states(M, cfg)
    ex = FeatureExtractor(M, 10000)
    a = ex.state_features(s)
    ex2 = FeatureExtractor(M, 10000)
    b = ex2.state_features(s)
    assert a == b


def test_rewrite_action_features_distinguish_directions():
    m2 = parse_problem("p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n")
    ex = FeatureExtractor(m2, 1009)
    s = mk_state(goals=(Literal(True, "p", (App("g", (App("a"),)),)),))
    lr = ex.action_features(s, ex.action_key(s, RewAction(1, 0, "LR", (1,))))
    rl = ex.action_features(s, ex.action_key(s, RewAction(1, 0, "RL", (1,))))
    assert lr != rl
