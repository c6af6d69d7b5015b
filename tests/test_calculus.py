import os
import random
from dataclasses import fields, replace

import pytest

from mctab import calculus, gbt
from mctab.calculus import (
    FAILED,
    OPEN,
    PROVED,
    ExtAction,
    ExtStep,
    LemStep,
    NoStartClauseError,
    RedAction,
    RedStep,
    RewAction,
    RewStep,
    StartAction,
    StartStep,
    apply_action,
    flat_subst,
    format_proof,
    initial_states,
    valid_actions,
)
from mctab.cli import corpus_dir
from mctab.config import Config, load_config
from mctab.features import FeatureExtractor
from mctab.guidance import DefaultGuidance, ModelGuidance
from mctab.mcts import extract_training_data, search_problem
from mctab.problems import MAX_TERM_DEPTH, parse_problem
from mctab.terms import App, Literal, Var, resolve_literals

from helpers import (
    default_recursion_limit,
    eager_subst,
    oracle_apply,
    oracle_rename,
    random_eq_matrix,
    random_matrix,
    reference_apply_action,
    reference_valid_actions,
    tree_states,
)

APP_A = "-p(X).\np(Y) | -q(a).\nq(a).\n"


def cfg_manual(**kw):
    kw.setdefault("single_action_optim", False)
    kw.setdefault("rewrite", False)
    return Config(**kw)


def test_initial_state_from_goal_clause():
    m = parse_problem(APP_A)
    s = initial_states(m, cfg_manual())
    assert s.result == OPEN
    assert s.goals == (Literal(True, "q", (App("a"),)),)
    assert s.path == ()
    assert len(s.actions) == 1


def test_three_clause_run_step_by_step():
    m = parse_problem(APP_A)
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    assert s.actions == (ExtAction(1, 1),)
    s2 = apply_action(m, s, 0, cfg)
    assert s2.result == OPEN
    assert [l.predicate for l in s2.goals] == ["p"]
    assert s2.path[0].predicate == "q"
    s3 = apply_action(m, s2, 0, cfg)
    assert s3.result == PROVED
    assert s3.actions == ()
    kinds = [type(st).__name__ for st in s3.proof]
    assert kinds == ["StartStep", "ExtStep", "ExtStep"]
    assert s3.inference_count == 2


def test_single_action_optimization_chains_to_proof():
    m = parse_problem(APP_A)
    s = initial_states(m, Config(rewrite=False))
    assert s.result == PROVED


def test_two_start_clauses_give_two_states():
    """With several start clauses the root has no goals and no proof step,
    and its actions choose the start clause: each builds that clause's start
    state, counted as one inference.  A lone start counts none."""
    m = parse_problem("p(a) | q(Y).\np(b).\n-p(X).\n")
    cfg = cfg_manual()
    root = initial_states(m, cfg)
    assert (root.result, root.goals, root.path, root.proof) == (OPEN, (), (), ())
    assert root.actions == (StartAction(0), StartAction(1))
    assert root.inference_count == 0
    first, second = (apply_action(m, root, i, cfg) for i in range(2))
    assert first.goals == m.clauses[0].literals and first.path == ()
    assert first.proof == (StartStep(0, (("Y", 0),)),) and first.next_var == 1
    assert second.proof == (StartStep(1, ()),) and second.next_var == 0
    assert first.inference_count == second.inference_count == 1
    lone = initial_states(parse_problem("p(b).\n-p(X).\n"), cfg)
    assert lone.proof == (StartStep(0, ()),) and lone.inference_count == 0


def test_no_start_clause_is_error():
    m = parse_problem("-p(a).\n-q(X) | p(X).\n")
    with pytest.raises(NoStartClauseError):
        initial_states(m, cfg_manual())


def test_unit_start_closing_immediately():
    m = parse_problem("q.\n-q.\n")
    s = initial_states(m, Config(rewrite=False))
    assert s.result == PROVED
    assert s.actions == ()


def test_loop_elimination_is_identity_based():
    m = parse_problem("q(a).\n-q(a) | q(a).\n")
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    # extending q(a) with clause 1 regenerates q(a) under path q(a): pruned
    s2 = apply_action(m, s, 0, cfg)
    assert s2.result == FAILED


def test_reduction_closes_against_path():
    # case split: prove r from (a or b), a=>r, b=>r; closing -r uses the path
    m = parse_problem("-a | -b.\na | -r.\nb | -r.\nr.\n")
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    assert s.goals[0] == Literal(True, "r", ())
    s = apply_action(m, s, 0, cfg)  # ext a | -r
    assert [l.predicate for l in s.goals] == ["a"]
    s = apply_action(m, s, 0, cfg)  # ext -a | -b
    assert [(l.positive, l.predicate) for l in s.goals] == [(False, "b")]
    s = apply_action(m, s, 0, cfg)  # ext b | -r -> goal -r closes by identity red
    assert s.result == PROVED
    assert any(isinstance(st, RedStep) for st in s.proof)


def test_valid_actions_include_unifying_reduction():
    m = parse_problem("p(c).\n-p(c) | -p(X).\n")
    cfg = cfg_manual(guided_reduction=True)
    s = initial_states(m, cfg)
    s = apply_action(m, s, 0, cfg)
    # goal -p(X) under path p(c): its negation unifies with the path literal
    assert s.goals[0] == Literal(False, "p", (Var(s.goals[0].args[0].id),))
    assert any(isinstance(a, RedAction) for a in s.actions)


def test_eager_reduction_fires_in_det_steps():
    m = parse_problem("p(c).\n-p(c) | -p(X).\n")
    cfg = Config(single_action_optim=False, rewrite=False, guided_reduction=False)
    s = initial_states(m, cfg)
    s = apply_action(m, s, 0, cfg)
    assert s.result == PROVED  # -p(X) reduced eagerly against p(c), X bound to c


def test_eager_reduction_takes_the_first_unifying_path_literal_uncounted():
    # after ext 1 and ext 2 the goal -p(X) stands under the path (p(b), p(a)),
    # and its negation unifies with both path literals
    m = parse_problem("p(a).\n-p(a) | p(b).\n-p(b) | -p(X).\n")
    for guided in (False, True):
        cfg = cfg_manual(guided_reduction=guided)
        s = initial_states(m, cfg)
        s = apply_action(m, s, s.actions.index(ExtAction(1, 0)), cfg)
        s = apply_action(m, s, s.actions.index(ExtAction(2, 0)), cfg)
        assert s.inference_count == 2
        if guided:
            assert s.result == OPEN
            assert [a for a in s.actions if isinstance(a, RedAction)] == [
                RedAction(0), RedAction(1)
            ]
        else:
            assert s.result == PROVED
            assert format_proof(s.proof, flat_subst(s.subst)).splitlines()[-1] == "red -p(b) p(b)"


def test_lemma_step():
    # two identical subgoals: the second closes as a lemma
    m = parse_problem("-a.\na | a | -c.\nc.\n")
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    s = apply_action(m, s, 0, cfg)  # goals [a, a]
    s = apply_action(m, s, 0, cfg)  # close first a; second a closes via lemma
    assert s.result == PROVED
    assert any(isinstance(st, LemStep) for st in s.proof)


def test_path_limit_fails_nonground_goals():
    # each extension introduces a fresh variable, so goals stay non-ground
    m = parse_problem("q(a).\n-q(X) | q(f(Y)) | q(Y).\n")
    cfg = cfg_manual(path_limit=2)
    s = initial_states(m, cfg)
    for _ in range(10):
        if s.result != OPEN:
            break
        s = apply_action(m, s, 0, cfg)
    assert s.result == FAILED


def test_rewrite_action_enumeration_and_application():
    # conditional rule: q(Z) implies g(Z)=h(Z), in matrix polarity
    m = parse_problem("p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n")
    cfg = Config(single_action_optim=False, rewrite=True)
    s = apply_action(m, initial_states(m, cfg), 0, cfg)  # start from p(g(a))
    rews = [a for a in s.actions if isinstance(a, RewAction)]
    assert len(rews) == 1
    assert rews[0].direction == "LR"  # h(Z) matches no goal subterm, so no RL
    idx = s.actions.index(rews[0])
    s2 = apply_action(m, s, idx, cfg)
    assert s2.goals == (
        Literal(True, "p", (App("h", (App("a"),)),)),
        Literal(False, "q", (App("a"),)),
    )
    assert s2.path[0] == Literal(True, "p", (App("g", (App("a"),)),))
    step = next(st for st in s2.proof if isinstance(st, RewStep))
    assert step.direction == "LR"
    assert step.goal_after == s2.goals[0]


def test_rewrite_then_close():
    m = parse_problem("p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n")
    cfg = Config(single_action_optim=False, rewrite=True)
    s = apply_action(m, initial_states(m, cfg), 0, cfg)  # start from p(g(a))
    idx = next(i for i, a in enumerate(s.actions) if isinstance(a, RewAction))
    s = apply_action(m, s, idx, cfg)
    idx = next(i for i, a in enumerate(s.actions) if isinstance(a, ExtAction))
    s = apply_action(m, s, idx, cfg)  # close p(h(a))
    assert [l.predicate for l in s.goals] == ["q"]
    idx = next(i for i, a in enumerate(s.actions) if isinstance(a, ExtAction))
    s = apply_action(m, s, idx, cfg)  # close -q(a) against q(a)
    assert s.result == PROVED


def test_rewrite_ground_equation_no_noop_actions():
    m = parse_problem("f(a)=f(a).\na!=a.\n")
    cfg = Config(rewrite=True, single_action_optim=False)
    s = initial_states(m, cfg)
    # rewriting a to a would be a no-op and must not be enumerated
    assert not any(isinstance(a, RewAction) for a in s.actions)


def test_actions_all_applicable():
    m = parse_problem(
        "p(g(a)) | r(X).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n-r(b).\n"
    )
    cfg = Config(single_action_optim=False, rewrite=True)
    todo = [initial_states(m, cfg)]
    seen = 0
    while todo and seen < 200:
        s = todo.pop()
        seen += 1
        if s.result != OPEN:
            continue
        for i in range(len(s.actions)):
            child = apply_action(m, s, i, cfg)  # must never raise
            todo.append(child)
    assert seen > 5


def test_inference_count_increments():
    m = parse_problem(APP_A)
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    s2 = apply_action(m, s, 0, cfg)
    assert s2.inference_count == s.inference_count + 1


def test_proof_trace_format():
    m = parse_problem(APP_A)
    s = initial_states(m, Config(rewrite=False))
    assert s.result == PROVED
    text = format_proof(s.proof, flat_subst(s.subst))
    lines = text.strip().splitlines()
    assert lines[0] == "start 2 {}"
    assert lines[1].startswith("ext 1 ")
    assert lines[2].startswith("ext 0 ")
    # unification made the two clause variables equal; theta is fully applied
    assert "q(a)" in lines[1]


def test_det_steps_idempotent_on_settled_state():
    m = parse_problem(APP_A)
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    again = calculus._det_on_work(m, s.copy(), cfg)
    assert again.goals == s.goals
    assert again.result == s.result


def test_apply_action_index_out_of_range():
    m = parse_problem(APP_A)
    cfg = cfg_manual()
    s = initial_states(m, cfg)
    with pytest.raises(IndexError):
        apply_action(m, s, 99, cfg)
    with pytest.raises(IndexError):
        apply_action(m, s, -1, cfg)


def _search_trees():
    """(matrix, cfg, tree) for every corpus problem, one matrix with red
    actions, one whose saved frame needs a chain of bindings, one whose
    extension binds a path variable through a fresh clause variable, 20
    random matrices and 20 random equational ones, rewrite on."""
    names = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".p"))
    for i, name in enumerate(names):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            m = parse_problem(fh.read())
        cfg = Config(
            inference_limit=150, bigstep_freq=20, path_limit=60, guided_reduction=bool(i % 2)
        )
        yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree
    # a red action needs a non-ground path literal and guided reduction
    m = parse_problem(
        "q(X) | q(f(X)).\n-q(Y) | r(Y).\n-r(Z) | -q(a).\n-r(b) | -q(f(b)).\n-q(c).\n"
    )
    cfg = Config(inference_limit=100, bigstep_freq=10, path_limit=20, guided_reduction=True)
    yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree
    # the frame q(X) is saved with X free; X := f(Z) and then Z := a are bound
    # below it, and t(a) keeps the state open while the frame waits
    m = parse_problem(
        "p(X) | q(X).\n-p(Y) | r(Y).\n-r(f(Z)) | s(Z) | t(Z).\n-s(a).\n-s(b).\n"
        "-t(a).\n-t(W).\n-q(f(a)).\n-q(f(b)).\n"
    )
    yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree
    # the path holds t(V) when p(V,V) extends with -p(Y,f(a)): the unifier
    # gives {V: Y, Y: f(a)}, so t(V) reaches t(f(a)) only through the chain;
    # the two r clauses keep the state open
    m = parse_problem("t(X).\n-t(Z) | p(Z,Z).\n-p(Y,f(a)) | r(Y).\n-r(f(a)).\n-r(W).\n")
    yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree
    rng = random.Random(11)
    for generate in (random_matrix, random_eq_matrix):
        for i in range(20):
            m, _ = generate(rng)
            cfg = Config(
                inference_limit=60, bigstep_freq=7, path_limit=20, guided_reduction=bool(i % 2)
            )
            yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree


@pytest.fixture(scope="module")
def search_trees():
    """The trees of `_search_trees`, built once for the tests that read them."""
    return list(_search_trees())


# [states, failed leaves among them] over the trees of `search_trees`, of
# `_random_eq_searches` and of `warm_searches`: every node's, as when each
# node kept its state
SEARCH_TREE_STATES = [1828, 483]
RANDOM_EQ_STATES = [1090, 245]
WARM_STATES = [2518, 690]


def _settled_states(cfg, tree, counts):
    """Every node's state, failed leaves rebuilt (see `tree_states`); adds
    the number of states and of rebuilt ones to `counts`."""
    states, rebuilt = tree_states(tree, cfg)
    counts[0] += len(states)
    counts[1] += rebuilt
    return states


def _applied_once(subst, part):
    """One plain pass of `subst` over the literals, with the oracle."""
    return tuple(
        Literal(l.positive, l.predicate, tuple(oracle_apply(subst, a) for a in l.args))
        for l in part
    )


def test_parent_state_not_mutated(search_trees):
    """Every action of every open state in the search trees leaves every
    field of its parent as it was, bindings of state variables included."""
    applied = binding = 0
    counts = [0, 0]
    for m, cfg, tree in search_trees:
        for s in _settled_states(cfg, tree, counts):
            if s.result != OPEN:
                continue
            before = [getattr(s, f.name) for f in fields(s)]
            subst = list(flat_subst(s.subst).items())
            for i in range(len(s.actions)):
                child = apply_action(m, s, i, cfg)
                assert [getattr(s, f.name) for f in fields(s)] == before
                assert list(flat_subst(s.subst).items()) == subst
                applied += 1
                binding += any(v < s.next_var
                               for v in flat_subst(child.subst).keys() - dict(subst).keys())
    assert counts == SEARCH_TREE_STATES
    assert applied > 0
    assert binding > 0


def test_valid_actions_equal_the_renaming_reference(search_trees):
    """Every settled state and resumed frame enumerates the reference's
    actions; so do its goals, on the matrix whose head memo the search has
    filled, under another `next_var`, with an empty path and with the other
    rewrite setting."""
    kinds = set()
    sources = set()  # whether a rewrite's source has arguments
    frames = pathless = unrewritten = 0
    counts = [0, 0]
    for m, cfg, tree in search_trees:
        flipped = replace(cfg, rewrite=not cfg.rewrite)
        for s in _settled_states(cfg, tree, counts):
            if not s.goals:  # the calculus enumerates actions only for a head goal
                continue
            expected = reference_valid_actions(m, s.goals, s.path, cfg, s.next_var)
            assert valid_actions(m, s.goals[0], s.path, cfg, s.next_var) == expected
            if s.result == OPEN:
                assert s.actions == expected
            kinds.update(type(a) for a in expected)
            for a in expected:
                if isinstance(a, RewAction):
                    left, right = m.clauses[a.clause_id].literals[a.lit_index].args
                    sources.add(bool((left if a.direction == "LR" else right).args))
            branches = [(s.goals, s.path, expected)]
            # resumed frames are heads the search reaches later
            for goals, path, _ in s.todos:
                subst = flat_subst(s.subst)
                goals, path = resolve_literals(subst, goals), resolve_literals(subst, path)
                expected = reference_valid_actions(m, goals, path, cfg, s.next_var)
                assert valid_actions(m, goals[0], path, cfg, s.next_var) == expected
                branches.append((goals, path, expected))
                frames += 1
            for goals, path, expected in branches:
                for c, p, n in ((cfg, path, s.next_var + 7), (cfg, (), s.next_var),
                                (flipped, path, s.next_var)):
                    again = reference_valid_actions(m, goals, p, c, n)
                    assert valid_actions(m, goals[0], p, c, n) == again
                    pathless += p is not path and again != expected
                    unrewritten += c is flipped and again != expected
    assert counts == SEARCH_TREE_STATES
    assert kinds == {ExtAction, RedAction, RewAction}
    assert sources == {True, False}  # sources headed by a function and by a constant
    # the trees' matrices hold equations with a bare-variable side, which no rule has
    assert any(isinstance(t, Var) for m, _, _ in search_trees for c in m.clauses
               for l in c.literals if l.predicate == "=" for t in l.args)
    assert frames > 0
    # an empty path and the other rewrite setting each change some action
    # set, so a memo that ignored either would be seen
    assert pathless > 0 and unrewritten > 0


def _counted(calls: list, f):
    """`f`, appending its name to `calls` on every call."""
    def wrapper(*args):
        calls.append(f.__name__)
        return f(*args)
    return wrapper


def test_a_repeated_head_is_enumerated_once(monkeypatch):
    """A head's extensions and rewrites are enumerated on its first call
    only: the second call unifies nothing and enumerates no rewrite."""
    m = parse_problem("p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\n-p(g(W)).\nq(a).\n")
    cfg = Config(rewrite=True)
    calls = []
    for name in ("unify_literals", "_rewrite_actions"):
        monkeypatch.setattr(calculus, name, _counted(calls, getattr(calculus, name)))
    goals = (Literal(True, "p", (App("g", (App("a"),)),)),)
    first = valid_actions(m, goals[0], (), cfg, 2)
    assert {type(a) for a in first} == {ExtAction, RewAction}
    assert "unify_literals" in calls and calls.count("_rewrite_actions") == 1
    calls.clear()
    assert valid_actions(m, goals[0], (), cfg, 2) == first
    assert calls == []


def test_without_a_reduction_a_head_shares_its_memoised_actions(search_trees):
    """A head's actions are one memoised tuple, returned itself whenever the
    path offers no reduction; with one, the reductions stand between the
    extensions and the rewrites of a new tuple."""
    m = parse_problem("p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\n-p(g(W)).\nq(a).\n")
    cfg = Config(rewrite=True)
    head = Literal(True, "p", (App("g", (App("a"),)),))
    first = valid_actions(m, head, (), cfg, 2)
    assert first is valid_actions(m, head, (Literal(True, "q", (App("a"),)),), cfg, 5)
    assert first == (ExtAction(3, 0), RewAction(1, 0, "LR", (1,)))
    reduced = valid_actions(m, head, (Literal(False, "p", (Var(0),)),), cfg, 2)
    assert reduced == (ExtAction(3, 0), RedAction(0), RewAction(1, 0, "LR", (1,)))
    shared = reduced_states = 0
    for m, cfg, tree in search_trees:
        for node in tree.nodes:
            s = node.state
            if s is None or s.result != OPEN or not s.goals:  # not a root choosing its start
                continue
            memo = m.head_actions[s.goals[0], cfg.rewrite][0]
            if any(isinstance(a, RedAction) for a in s.actions):
                assert s.actions is not memo
                reduced_states += 1
            else:
                assert s.actions is memo
                shared += 1
    assert shared > reduced_states > 0


def test_an_extension_shifts_one_literal_and_negates_nothing(monkeypatch):
    """An extension renames only the chosen clause literal, an instantiation
    under no bindings, and unifies it with the head as it stands; its side
    literals are instantiated in one walk each."""
    m = parse_problem("p(X) | q(X).\n-p(a) | r(Y) | s(Y,Z).\n-q(a).\n-r(b).\n-s(b,c).\n")
    s = initial_states(m, cfg_manual())
    assert s.actions == (ExtAction(1, 0),)
    assert not hasattr(calculus, "negate")
    calls = []
    instantiate = calculus.instantiate_literal

    def recorded(lit, k, subst):
        calls.append((lit, k, dict(subst)))
        return instantiate(lit, k, subst)

    monkeypatch.setattr(calculus, "instantiate_literal", recorded)
    child = s.copy()
    calculus._apply_on_work(m, child, s.actions[0])
    chosen, *sides = m.clauses[1].literals
    assert calls == [(chosen, 1, {})] + [(lit, 1, {0: App("a")}) for lit in sides]
    assert list(m.renamed) == [(1, 0, 1)]
    a = App("a")
    assert child.goals == (Literal(True, "r", (Var(1),)), Literal(True, "s", (Var(1), Var(2))))
    assert child.path == (Literal(True, "p", (a,)),)
    assert child.todos == (((Literal(True, "q", (a,)),), (), (Literal(True, "p", (a,)),)),)
    assert child.subst == ({0: a}, s.subst) and flat_subst(child.subst) == {0: a}
    assert child.proof[-1] == ExtStep(1, (("Y", 1), ("Z", 2)), Literal(True, "p", (a,)))


def _random_eq_searches():
    """(matrix, cfg, tree) for 30 random equational matrices, rewrite on."""
    rng = random.Random(23)
    for i in range(30):
        m, _ = random_eq_matrix(rng)
        cfg = Config(inference_limit=60, bigstep_freq=7, path_limit=20, rewrite=True,
                     guided_reduction=bool(i % 2))
        yield m, cfg, search_problem(m, DefaultGuidance(), cfg).tree


def test_apply_action_equals_the_renaming_reference(search_trees, monkeypatch):
    """Every child of every open state in the search trees, and in searches
    over random equational matrices, equals the child that the step as it
    was gives (rename the clause, unify with the negated head, resolve the
    head, resolve the side literals), field by field, subst in key order."""
    steps = []
    counts = [0, 0]
    for m, cfg, tree in search_trees + list(_random_eq_searches()):
        for s in _settled_states(cfg, tree, counts):
            if s.result == OPEN:
                steps.extend((m, cfg, s, i) for i in range(len(s.actions)))
    assert counts == [a + b for a, b in zip(SEARCH_TREE_STATES, RANDOM_EQ_STATES)]
    children = [apply_action(m, s, i, cfg) for m, cfg, s, i in steps]
    monkeypatch.setattr(calculus, "_apply_on_work", reference_apply_action)
    kinds = set()
    binding = 0  # extensions whose unifier binds a branch variable
    for (m, cfg, s, i), child in zip(steps, children):
        expected = apply_action(m, s, i, cfg)
        for f in fields(child):
            assert getattr(child, f.name) == getattr(expected, f.name), f.name
        assert list(flat_subst(child.subst).items()) == list(flat_subst(expected.subst).items())
        action = s.actions[i]
        kinds.add(type(action))
        if isinstance(action, ExtAction):
            binding += any(v < s.next_var for v in
                           flat_subst(child.subst).keys() - flat_subst(s.subst).keys())
    assert kinds == {StartAction, ExtAction, RedAction, RewAction}
    assert binding > 0


def test_saved_frames_are_brought_up_to_date_by_one_application(search_trees):
    """Resolving a frame once through the triangular subst equals applying
    the eagerly composed one, and a second pass changes nothing."""
    frames = chained = 0
    counts = [0, 0]
    for _, cfg, tree in search_trees:
        for s in _settled_states(cfg, tree, counts):
            subst = flat_subst(s.subst)
            eager = eager_subst(subst)
            for part in (s.goals, s.path, s.lemmas):
                assert _applied_once(eager, part) == part
            for frame in s.todos:
                for part in frame:
                    once = resolve_literals(subst, part)
                    assert once == _applied_once(eager, part)
                    assert resolve_literals(subst, once) == once
                    chained += once != _applied_once(subst, part)
                frames += 1
    assert counts == SEARCH_TREE_STATES
    assert frames > 0
    assert chained > 0  # some frame needs more than one plain application


def test_format_proof_equals_the_eager_composition(search_trees):
    counts = [0, 0]
    for _, cfg, tree in search_trees:
        for s in _settled_states(cfg, tree, counts):
            subst = flat_subst(s.subst)
            assert format_proof(s.proof, subst) == format_proof(s.proof, eager_subst(subst))
    assert counts == SEARCH_TREE_STATES


# ---------------------------------------------------------------------------
# the renaming memo and the unifier's precondition

def _warm_searches():
    """(problem text, matrix, cfg, tree) for the corpus searched unguided,
    then guided by models trained on those searches' rows, then for 20
    random matrices and 20 random equational ones, rewrite on."""
    cfg = Config(inference_limit=150, bigstep_freq=20, path_limit=60, limited_policy=False)
    texts = []
    for name in sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".p")):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            texts.append(fh.read())
    value_rows, policy_rows = [], []
    for text in texts:
        m = parse_problem(text)
        tree = search_problem(m, DefaultGuidance(), cfg).tree
        rows = extract_training_data(tree, cfg, FeatureExtractor(m, cfg.feature_dim))
        value_rows += rows[0]
        policy_rows += rows[1]
        yield text, m, cfg, tree
    train_cfg = Config(rounds=10, patience=50)
    value = gbt.train(gbt.Dataset(value_rows, cfg.feature_dim), train_cfg)
    policy = gbt.train(gbt.Dataset(policy_rows, cfg.feature_dim), train_cfg)
    for text in texts:
        m = parse_problem(text)
        guidance = ModelGuidance(value, policy, FeatureExtractor(m, cfg.feature_dim),
                                 cfg.temperature)
        yield text, m, cfg, search_problem(m, guidance, cfg).tree
    rng = random.Random(31)
    for generate in (random_matrix, random_eq_matrix):
        for i in range(20):
            m, text = generate(rng)
            cfg = Config(inference_limit=60, bigstep_freq=7, path_limit=20,
                         guided_reduction=bool(i % 2))
            yield text, m, cfg, search_problem(m, DefaultGuidance(), cfg).tree


@pytest.fixture(scope="module")
def warm_searches():
    """The searches of `_warm_searches`, and the number of `unify_literals`
    calls they made and the (predicate, arity) pairs of those whose two
    literals differ in either; the calculus is the unifier's one caller."""
    calls = []
    unify = calculus.unify_literals

    def recorded(a, b):
        calls.append(((a.predicate, len(a.args)), (b.predicate, len(b.args))))
        return unify(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calculus, "unify_literals", recorded)
        searches = list(_warm_searches())
    return searches, len(calls), [pair for pair in calls if pair[0] != pair[1]]


def test_every_unification_pairs_literals_of_one_predicate_and_arity(warm_searches):
    """`unify_literals` does not test its precondition; the calculus keeps it."""
    _, calls, mismatched = warm_searches
    assert calls > 4000
    assert mismatched == []


def test_the_renaming_memo_equals_a_fresh_renaming(warm_searches):
    """After each search every memo entry equals the renaming, slice and zip
    it stands for, and every child of every open state equals the child built
    on the same matrix freshly parsed, field by field, subst in key order,
    and as printed."""
    entries = hits = applied = 0
    counts = [0, 0]
    for text, m, cfg, tree in warm_searches[0]:
        for (clause_id, j, offset), (lit, rest, varmap) in m.renamed.items():
            clause = m.clauses[clause_id]
            assert lit == oracle_rename(clause.literals[j], offset)
            assert rest == clause.literals[:j] + clause.literals[j + 1 :]
            assert varmap == tuple(zip(clause.var_names, range(offset, offset + len(varmap))))
            assert len(varmap) == len(clause.var_names)
            entries += 1
        parsed = parse_problem(text)
        for s in _settled_states(cfg, tree, counts):
            if s.result != OPEN:
                continue
            for i, action in enumerate(s.actions):
                if isinstance(action, (ExtAction, RewAction)):
                    hits += (action.clause_id, action.lit_index, s.next_var) in m.renamed
                warm = apply_action(m, s, i, cfg)
                fresh = apply_action(replace(parsed, head_actions={}, renamed={}), s, i, cfg)
                for f in fields(warm):
                    assert getattr(warm, f.name) == getattr(fresh, f.name), f.name
                warm_subst, fresh_subst = flat_subst(warm.subst), flat_subst(fresh.subst)
                assert list(warm_subst.items()) == list(fresh_subst.items())
                assert format_proof(warm.proof, warm_subst) == format_proof(fresh.proof,
                                                                            fresh_subst)
                applied += 1
    assert counts == WARM_STATES
    assert entries > 1000 and hits > 1000 and applied > hits


def test_a_binding_chain_flattens_to_the_dict_each_step_used_to_copy(warm_searches):
    """Every state's binding chain extends its parent's by the deltas of its
    own step, and flattened it equals, item for item and in order, the dict
    that the copying rule `{**subst, **delta}` builds from the root's empty
    substitution along the state's tree path."""
    states = steps = 0
    for _, _, cfg, tree in warm_searches[0]:
        harvest, _ = tree_states(tree, cfg)
        copied = []  # node id -> the copying rule's dict
        for node, s in zip(tree.nodes, harvest):
            if node.parent is None:
                below, subst = (), {}
            else:
                below, subst = harvest[node.parent].subst, copied[node.parent]
            chain, deltas = s.subst, []
            while chain is not below:  # a chain that does not extend below ends in ()
                delta, chain = chain
                deltas.append(delta)
            for delta in reversed(deltas):
                subst = {**subst, **delta}
            copied.append(subst)
            assert list(flat_subst(s.subst).items()) == list(subst.items())
            states += 1
            steps += len(deltas) > 1  # a step whose settle bound again
    assert states == WARM_STATES[0]
    assert steps > 0


# ---------------------------------------------------------------------------
# the term bounds and the inference budget end every settle chain

DESK = os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini")

DOUBLING = {
    # a forced chain doubles the goal at every step
    "goal": "q(a).\n-q(Y) | q(f(h(Y,Y))).\n",
    # the heads stay at size 2 while a path literal doubles
    "path": "s(X) | r(X).\n-s(X) | p(X).\n-p(g(Y,Y)) | t(Y).\n-t(g(Z,Z)) | t(Z).\n-r(b).\n",
}


@pytest.mark.parametrize("limit", [None, 5])
@pytest.mark.parametrize("name", sorted(DOUBLING))
def test_doubling_chains_stop_within_their_budgets(name, limit):
    """At desk settings the term bound ends each chain long before the path
    limit; at 5 inferences the budget ends it.  A chain stops once its state
    has counted `inference_limit` inferences, so a search reports at most
    one chain, `inference_limit`, past the limit."""
    cfg = load_config(DESK, [] if limit is None else [f"inference_limit={limit}"])
    with default_recursion_limit():
        res = search_problem(parse_problem(DOUBLING[name]), DefaultGuidance(), cfg)
    assert res.outcome == "exhausted"
    assert res.stats.inferences <= 2 * cfg.inference_limit
    assert res.stats.inferences < cfg.path_limit


def _linked(n: int, link) -> str:
    """A start clause q(Z1,Z1,...,Zn,Zn) of size 2n + 1 and a clause whose
    unifier with it binds each Zi through link(Y(i-1))."""
    zs = ",".join(f"Z{i},Z{i}" for i in range(1, n + 1))
    ys = ",".join(f"Y{i},{link(f'Y{i - 1}')}" for i in range(1, n + 1))
    return f"q({zs}).\n-q({ys}).\n"


LINKED = {
    # each link nests 120 deep, within the bound: Z10 resolves 1,200 deep
    "deep": _linked(10, lambda y: "f(" * 120 + y + ")" * 120),
    # each link doubles: Z40 resolves to 2^41 - 1 symbols
    "large": _linked(40, lambda y: f"f({y},{y})"),
}


@pytest.mark.parametrize("name", sorted(LINKED))
def test_a_unifier_past_the_bounds_fails_its_step_before_anything_is_built(name, monkeypatch):
    """Both literals fit, and their unifier binds the head far past the
    bounds.  `bind` measures the head under the unifier first, so the forced
    extension fails without resolving or instantiating a literal.  It may
    rename one, an instantiation under no bindings, which binds nothing."""
    calls = []
    monkeypatch.setattr(calculus, "resolve_literals", _counted(calls, calculus.resolve_literals))
    instantiate = calculus.instantiate_literal

    def under_bindings(lit, k, s):
        if s:
            calls.append("instantiate_literal")
        return instantiate(lit, k, s)

    monkeypatch.setattr(calculus, "instantiate_literal", under_bindings)
    cfg = load_config(DESK)
    with default_recursion_limit():
        res = search_problem(parse_problem(LINKED[name]), DefaultGuidance(), cfg)
    assert res.outcome == "exhausted" and res.stats.inferences == 1
    assert calls == []


def test_a_head_beyond_the_depth_bound_fails_its_state():
    """hard_rec deepens its goal by one level per forced step; at the
    default path limit of 1000 the depth bound ends the chain instead."""
    with open(os.path.join(corpus_dir(), "hard_rec.p"), encoding="utf-8") as fh:
        m = parse_problem(fh.read())
    s = initial_states(m, Config())
    assert s.result == FAILED and s.actions == ()
    assert s.inference_count == len(s.path) == MAX_TERM_DEPTH - 1


def test_a_recorded_literal_deepened_after_it_left_the_branch_fails_the_proof():
    """p(g^100(Z)) is closed and leaves the branch; the binding made later
    for r(X) keeps the branch within the bound but deepens the recorded
    literal past it, which would emit a proof the checker cannot parse."""
    def problem(depth):
        deep = "g(" * 100 + "Z" + ")" * 100
        arg = "h(" * depth + "a" + ")" * depth
        return f"s(X) | r(X).\n-s(Z) | p({deep}).\n-p(Y).\n-r({arg}).\n"
    cfg = load_config(DESK)
    fits = initial_states(parse_problem(problem(20)), cfg)
    assert fits.result == PROVED
    beyond = initial_states(parse_problem(problem(50)), cfg)
    assert beyond.result == FAILED and not beyond.goals and not beyond.todos


def test_a_step_past_the_bounds_gives_a_failed_child_with_no_actions():
    """An extension, a reduction action and an eager reduction whose unifier
    puts a literal past the term bounds each fail their state: the linked
    literal of LINKED["large"], reached as is or as a goal after a clause
    literal that unifies with the start clause by renaming only."""
    start, linked = LINKED["large"].splitlines()
    renaming = "-q(" + ",".join(f"X{i}" for i in range(80)) + ")"
    m = parse_problem(f"{start}\n{renaming} | {linked}\n")
    guided = cfg_manual(guided_reduction=True)
    s = initial_states(m, guided)
    assert s.actions == (ExtAction(1, 0), ExtAction(1, 1))
    failed = apply_action(m, s, 1, guided)  # the extension by the linked literal
    assert (failed.result, failed.actions) == (FAILED, ())
    with pytest.raises(ValueError, match="closed state"):
        apply_action(m, failed, 0, guided)
    renamed = apply_action(m, s, 0, guided)  # the linked literal is now the head
    assert renamed.actions == (ExtAction(0, 0), RedAction(0))
    for i in range(2):
        child = apply_action(m, renamed, i, guided)
        assert (child.result, child.actions) == (FAILED, ())
    # eagerly, the same reduction is tried as the head is settled
    eager = apply_action(m, s, 0, cfg_manual(guided_reduction=False))
    assert (eager.result, eager.actions) == (FAILED, ())
    assert (eager.goals, eager.path, eager.proof) == (renamed.goals, renamed.path, renamed.proof)
