import math
import os
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from mctab.calculus import OPEN, PROVED, StartAction, StartStep
from mctab.cli import corpus_dir
from mctab.config import Config, load_config
from mctab.features import FeatureExtractor
from mctab.loop import solve_one
from mctab.guidance import DefaultGuidance, ModelGuidance, policy_target, value_target
from mctab import mcts
from mctab.mcts import (
    SearchNode,
    _dedup,
    _next_action,
    bigstep,
    extract_training_data,
    playout,
    search_problem,
    uct_score,
)
from mctab.mcts import SearchTree
from mctab.problems import parse_problem
from mctab.calculus import initial_states

from helpers import (
    RewardReplay,
    check_tree_invariants,
    random_eq_matrix,
    random_matrix,
    reference_descend,
    reference_next_action,
    reference_select_child,
)

APP_A = "-p(X).\np(Y) | -q(a).\nq(a).\n"
TWO_CHOICE = "p.\n-p | r.\n-p | s.\n-s.\n"


def node_with(reward, visits, prior):
    return SearchNode(
        id=0, parent=None, state=None,
        prior=prior, visits=visits, reward=reward, child_priors=[],
    )


def check_dead_rule(tree):
    """A node with every action expanded and every child dead is dead, the
    rule that lets every playout end in an expansion."""
    for node in tree.nodes:
        if (node.child_priors and len(node.children) == len(node.child_priors)
                and all(tree.nodes[c].dead for c in node.children.values())):
            assert node.dead, node.id


def test_uct_score_examples():
    assert uct_score(node_with(1.0, 1, 0.3), math.log(1), 3.0) == 1.0  # ln 1 = 0
    score = uct_score(node_with(2.0, 4, 0.25), math.log(16), 3.0)
    assert abs(score - (0.5 + 0.75 * math.sqrt(math.log(16) / 4))) < 1e-12
    assert abs(score - 1.12441) < 1e-4
    # larger prior strictly increases the score once the parent has visits
    low = uct_score(node_with(1.0, 2, 0.1), math.log(5), 2.0)
    high = uct_score(node_with(1.0, 2, 0.4), math.log(5), 2.0)
    assert high > low


def test_uct_argmax_matches_brute_force():
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(2, 6)
        parent_visits = 0
        children = []
        for i in range(n):
            visits = rng.randint(1, 50)
            reward = rng.uniform(0, visits)
            prior = rng.uniform(0.01, 1.0)
            children.append(node_with(reward, visits, prior))
            parent_visits += visits
        parent_visits += 1
        cp = rng.choice([0.5, 2.0, 3.0])
        scores = [uct_score(c, math.log(parent_visits), cp) for c in children]
        best = max(range(n), key=lambda i: (scores[i], -i))
        ref = 0
        for i in range(1, n):
            if scores[i] > scores[ref]:
                ref = i
        assert best == ref


def _random_tree(rng: random.Random, expanded: list):
    """A tree for `playout` to descend.  Few distinct means, visits and
    priors make equal UCT scores common; some nodes are dead, and children
    are inserted out of index order, as guided expansion inserts them.  The
    nodes have no state and the caller stubs `mcts.apply_action`, so an
    expansion only records (node id, action index) in `expanded`."""
    def insert(parent, ai, state, guidance):
        expanded.append((parent.id, ai))
        return SimpleNamespace(id=None)

    tree = SimpleNamespace(nodes=[], bigstep_root=0, playouts=0, matrix=None, _insert=insert)

    def grow(parent, prior, depth):
        node = node_with(0.0, 1, prior)
        node.id, node.parent = len(tree.nodes), parent
        tree.nodes.append(node)
        # a dead leaf has no actions, as a FAILED node; a live node has one to eight
        node.dead = depth < 3 and rng.random() < 0.2
        if not node.dead:
            node.child_priors = [rng.choice([0.125, 0.25, 0.5]) for _ in range(rng.randint(1, 8))]
        if node.dead or depth == 0 or rng.random() < 0.2:
            node.visits = rng.choice([1, 2, 4])
        else:
            n = len(node.child_priors)
            for ai in rng.sample(range(n), rng.choice([n, rng.randint(1, n)])):
                child = grow(node.id, node.child_priors[ai], depth - 1)
                node.children[ai] = child.id
                node.visits += child.visits
        node.reward = rng.choice([0.0, 0.5, 1.0]) * node.visits
        # the dead rule, as `_mark_dead` keeps it
        if (node.children and len(node.children) == len(node.child_priors)
                and all(tree.nodes[c].dead for c in node.children.values())):
            node.dead = True
        return node

    grow(None, 1.0, 3)
    tree.bigstep_root = rng.choice([n.id for n in tree.nodes if not n.dead
                                    and len(n.children) == len(n.child_priors)] or [0])
    return tree


def test_playout_descends_to_the_reference_node_on_random_trees(monkeypatch):
    """Each playout expands the node `reference_descend` finds, by the
    action `reference_next_action` picks: ties go to the lowest action
    index, dead children are skipped, and the pool of unexpanded actions
    wins over a live child when it scores higher."""
    monkeypatch.setattr(mcts, "apply_action", lambda m, state, ai, cfg: None)
    rng = random.Random(7)
    below_root = pool_won = late_ties = 0
    for _ in range(3000):
        expanded = []
        tree = _random_tree(rng, expanded)
        if tree.nodes[tree.bigstep_root].dead:
            continue
        cp = rng.choice([0.0, 1.0, 3.0])
        node = reference_descend(tree, cp)
        ai = reference_next_action(node)
        playout(tree, None, Config(), cp)
        assert expanded == [(node.id, ai)] and tree.playouts == 1
        below_root += node.id != tree.bigstep_root
        pool_won += (node.id != tree.bigstep_root
                     and reference_select_child(tree, node, cp)[0] is not None)
        # a choice on the way down that came later than an equal score
        while node.id != tree.bigstep_root:
            parent = tree.nodes[node.parent]
            log_visits = math.log(parent.visits)
            first = next(tree.nodes[c] for c in parent.children.values()
                         if not tree.nodes[c].dead
                         and uct_score(tree.nodes[c], log_visits, cp) == uct_score(
                             node, log_visits, cp))
            late_ties += first is not node
            node = parent
    assert below_root > 2000 and pool_won > 50 and late_ties > 200


def test_cp_extremes():
    # equal priors; child 0 has the best mean, child 1 the fewest visits
    children = [node_with(9.0, 10, 0.5), node_with(0.2, 2, 0.5), node_with(3.0, 10, 0.5)]
    n_parent = 23
    exploit = [uct_score(c, math.log(n_parent), 0.0) for c in children]
    assert exploit.index(max(exploit)) == 0
    explore = [uct_score(c, math.log(n_parent), 1e9) for c in children]
    assert explore.index(max(explore)) == 1


def test_learned_guidance_explores_with_cp_later(monkeypatch):
    """The search picks its exploration constant from its guidance: cp_initial
    under the default guidance, cp_later under learned guidance."""
    m = parse_problem(TWO_CHOICE)
    cfg = Config(rewrite=False, cp_initial=3.5, cp_later=1.25)
    seen = []
    traced = mcts.playout

    def spied(tree, guidance, cfg, cp):
        seen.append((type(guidance), cp))
        return traced(tree, guidance, cfg, cp)

    monkeypatch.setattr(mcts, "playout", spied)
    learned = ModelGuidance(None, None, FeatureExtractor(m, cfg.feature_dim), cfg.temperature)
    for guidance in (DefaultGuidance(), learned):
        assert search_problem(m, guidance, cfg).outcome == "proved"
    assert set(seen) == {(DefaultGuidance, 3.5), (ModelGuidance, 1.25)}


def test_first_playout_expands_highest_prior_root_action():
    m = parse_problem(TWO_CHOICE)
    cfg = Config(rewrite=False)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    nid = playout(tree, g, cfg, cp=3.0)
    # uniform priors tie-break to the lowest action index
    assert tree.nodes[0].children[0] == nid
    assert tree.nodes[nid].parent == 0


def test_proved_leaf_backpropagates_reward_one():
    m = parse_problem(TWO_CHOICE)
    cfg = Config(rewrite=False)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    while tree.proved_node is None:
        playout(tree, g, cfg, cp=3.0)
    root = tree.nodes[0]
    proved = tree.nodes[tree.proved_node]
    assert proved.state.result == PROVED
    assert proved.reward == 1.0
    assert root.reward >= 1.0


def test_root_visits_count_playouts():
    # unprovable recursive problem: playouts keep expanding without terminals
    m = parse_problem("q(a).\n-q(X) | q(f(X)).\n")
    cfg = Config(rewrite=False, single_action_optim=False)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    for p in range(30):
        playout(tree, g, cfg, cp=3.0)
    assert tree.nodes[0].visits == 31  # root starts at 1


def test_tree_invariants_on_random_problems():
    rng = random.Random(42)
    cfg = Config(rewrite=False, inference_limit=60, bigstep_freq=7, path_limit=50)
    g = DefaultGuidance()
    for _ in range(30):
        m, _ = random_matrix(rng)
        try:
            root = initial_states(m, cfg)
        except Exception:
            continue
        tree = SearchTree(m, g, root)
        replay = RewardReplay(tree)
        for _ in range(25):
            if tree.proved_node is not None or tree.nodes[tree.bigstep_root].dead:
                break
            before = len(tree.nodes)
            nid = playout(tree, g, cfg, cp=3.0)
            assert len(tree.nodes) == before + 1 and nid == before  # one expansion
            check_dead_rule(tree)
            replay.after_playout(tree, nid)
            check_tree_invariants(tree)
            replay.check(tree)
            if tree.playouts % cfg.bigstep_freq == 0:
                bigstep(tree)


def test_bigstep_moves_to_best_mean_child():
    m = parse_problem("q(a).\n-q(X) | q(f(X)).\n-q(X) | q(g(X)).\n")
    cfg = Config(rewrite=False, single_action_optim=False)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    for _ in range(8):
        playout(tree, g, cfg, cp=3.0)
    root = tree.nodes[0]
    assert len(root.children) == 2
    c0 = tree.nodes[root.children[0]]
    c1 = tree.nodes[root.children[1]]
    c0.reward, c0.visits = 3.0, 4  # mean 0.75
    c1.reward, c1.visits = 5.0, 10  # mean 0.5
    assert bigstep(tree) == c0.id
    assert tree.bigstep_nodes[-1] == c0.id
    # tie on mean: larger visit count wins
    tree.bigstep_root = 0
    c0.reward, c0.visits = 2.0, 4
    c1.reward, c1.visits = 5.0, 10
    assert bigstep(tree) == c1.id
    # tie on mean and visits: the lower action index wins, whatever the
    # children's insertion order
    tree.bigstep_root = 0
    c0.reward, c0.visits = 2.0, 4
    c1.reward, c1.visits = 2.0, 4
    descending = sorted(root.children.items(), reverse=True)
    root.children.clear()
    root.children.update(descending)
    assert list(root.children) == [1, 0]
    assert bigstep(tree) == c0.id


def test_search_finds_proof_on_simple_problem():
    m = parse_problem(APP_A)
    res = search_problem(m, DefaultGuidance(), Config(rewrite=False), name="app_a")
    assert res.outcome == "proved"
    assert res.proof is not None
    assert res.stats.proof_len == len(res.proof)
    assert res.stats.line().startswith("app_a\tproved\t")


def test_zero_budget_exhausts_immediately():
    m = parse_problem(TWO_CHOICE)
    res = search_problem(m, DefaultGuidance(), Config(rewrite=False, inference_limit=0))
    assert res.outcome == "exhausted"
    assert res.proof is None


def test_unprovable_problem_exhausts():
    m = parse_problem("p(a).\n-p(b).\n")
    res = search_problem(m, DefaultGuidance(), Config(rewrite=False, inference_limit=50))
    assert res.outcome == "exhausted"


def test_fully_failed_root_stops_early():
    m = parse_problem(TWO_CHOICE.replace("-s.\n", ""))  # both branches dead-end
    cfg = Config(rewrite=False, inference_limit=10_000)
    res = search_problem(m, DefaultGuidance(), cfg)
    assert res.outcome == "exhausted"
    assert res.stats.inferences < 10  # stopped by deadness, not by budget


def test_extraction_failed_search_has_value_rows_no_policy():
    m = parse_problem(TWO_CHOICE)
    cfg = Config(rewrite=False, inference_limit=1)
    res = search_problem(m, DefaultGuidance(), cfg)
    assert res.outcome == "exhausted"
    ex = FeatureExtractor(m, 1000)
    value_rows, policy_rows = extract_training_data(res.tree, cfg, ex)
    assert policy_rows == []
    assert len(value_rows) >= 1
    assert all(t == -3.0 for _, t in value_rows)


def test_extraction_proved_includes_proof_path_nodes():
    m = parse_problem(TWO_CHOICE)
    cfg = Config(rewrite=False)
    res = search_problem(m, DefaultGuidance(), cfg)
    assert res.outcome == "proved"
    ex = FeatureExtractor(m, 1000)
    value_rows, policy_rows = extract_training_data(res.tree, cfg, ex)
    # the proved node was never a bigstep node yet contributes a +3 row
    assert any(t == 3.0 for _, t in value_rows)
    assert all(t > 0 for _, t in value_rows)  # every extracted node leads to the proof
    assert len(policy_rows) == 2  # both root actions were expanded
    # with limited policy off, even the failed search contributes policy rows
    cfg2 = Config(rewrite=False, inference_limit=1, limited_policy=False)
    res2 = search_problem(m, DefaultGuidance(), cfg2)
    _, policy2 = extract_training_data(res2.tree, cfg2, ex)
    assert res2.outcome == "exhausted"
    assert len(policy2) >= 1


def test_all_proofsteps_toggle():
    m = parse_problem(TWO_CHOICE)
    cfg_on = Config(rewrite=False, all_proofsteps=True)
    cfg_off = Config(rewrite=False, all_proofsteps=False)
    ex = FeatureExtractor(m, 1000)
    res = search_problem(m, DefaultGuidance(), cfg_on)
    v_on, _ = extract_training_data(res.tree, cfg_on, ex)
    v_off, _ = extract_training_data(res.tree, cfg_off, ex)
    assert len(v_on) > len(v_off)


def reference_extract_training_data(tree, cfg, extractor):
    """Extraction in two passes over the anchors, value rows first and then
    policy rows, as it was written before the one-pass form."""
    proved = tree.proved_node is not None
    path = mcts._proof_path(tree) if proved else []
    on_path = set(path)
    value_ids = list(tree.bigstep_nodes)
    if proved and cfg.all_proofsteps:
        seen = set(value_ids)
        value_ids.extend(nid for nid in path if nid not in seen)
    value_rows = []
    proof_len = len(tree.nodes[tree.proved_node].state.proof) if proved else 0
    for nid in value_ids:
        node = tree.nodes[nid]
        if not node.state.proof:  # a root before its start step
            continue
        if proved and nid in on_path:
            target = value_target(proof_len - len(node.state.proof), cfg.discount)
        else:
            target = value_target(None, cfg.discount)
        value_rows.append((extractor.state_features(node.state), target))
    policy_rows = []
    if proved or not cfg.limited_policy:
        for nid in value_ids:
            node = tree.nodes[nid]
            if not node.state.proof or not node.children:
                continue
            n_actions = len(node.state.actions)
            for ai in sorted(node.children):
                child = tree.nodes[node.children[ai]]
                target = policy_target(node.visits, child.visits, n_actions)
                key = extractor.action_key(node.state, node.state.actions[ai])
                policy_rows.append((extractor.action_features(node.state, key), target))
    return _dedup(value_rows), _dedup(policy_rows)


def _exact(rows):
    return [(list(entries.items()), target) for entries, target in rows]


def test_one_pass_extraction_equals_the_two_pass_reference(monkeypatch):
    builds = []
    state_features = FeatureExtractor.state_features

    def counted(self, s):
        # a state the last-state memo holds no vector for builds one
        if self._last[0] is not s or self._last[2] is None:
            builds.append(s)
        return state_features(self, s)

    monkeypatch.setattr(FeatureExtractor, "state_features", counted)
    ini = os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini")
    desk = load_config(ini)
    searches = []
    for name in sorted(os.listdir(corpus_dir())):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            m = parse_problem(fh.read())
        searches.append((m, desk))
    rng = random.Random(29)
    for i in range(300):
        m, _ = (random_matrix if i % 2 == 0 else random_eq_matrix)(rng)
        searches.append((m, Config(inference_limit=80, bigstep_freq=5, path_limit=40,
                                   guided_reduction=i % 4 >= 2)))
    proved = 0
    for m, cfg in searches:
        tree = search_problem(m, DefaultGuidance(), cfg).tree
        proved += tree.proved_node is not None
        path, nid = set(), tree.proved_node
        while nid is not None:
            path.add(nid)
            nid = tree.nodes[nid].parent
        for all_proofsteps in (True, False):
            for limited_policy in (True, False):
                c = replace(cfg, all_proofsteps=all_proofsteps, limited_policy=limited_policy)
                expected = reference_extract_training_data(tree, c, FeatureExtractor(m, 1000))
                builds.clear()
                got = extract_training_data(tree, c, FeatureExtractor(m, 1000))
                assert [_exact(rows) for rows in got] == [_exact(rows) for rows in expected]
                anchors = set(tree.bigstep_nodes) | (path if all_proofsteps else set())
                assert len(builds) <= sum(bool(tree.nodes[a].state.proof) for a in anchors)
    assert proved >= 80  # 27 corpus and 66 random searches reach a proof


def test_dedup_keeps_maximum_target():
    fv1 = {1: 1.0}
    fv1b = {1: 1.0}
    fv2 = {2: 2.0}
    rows = [(fv1, -3.0), (fv2, 1.0), (fv1b, 2.5), (fv1, 0.0)]
    out = _dedup(rows)
    assert len(out) == 2
    assert out[0][1] == 2.5
    assert out[1][1] == 1.0


def test_rewrite_is_conservative_on_equality_chains():
    # anything proved with rewriting on stays provable with it off, given a
    # raised inference budget and the equality axioms in the matrix
    from mctab.cli import corpus_dir

    for name in ("eq_chain_2.p", "eq_chain_4.p", "eq_chain_8.p"):
        text = Path(corpus_dir(), name).read_text(encoding="utf-8")
        m = parse_problem(text)
        on = search_problem(
            m, DefaultGuidance(), Config(inference_limit=20000, bigstep_freq=100, path_limit=60)
        )
        assert on.outcome == "proved", name
        off = search_problem(
            m,
            DefaultGuidance(),
            Config(inference_limit=60000, bigstep_freq=100, path_limit=60, rewrite=False),
        )
        assert off.outcome == "proved", name


def test_multiple_start_clauses_become_root_children():
    m = parse_problem("p(a).\np(b).\n-p(X) | r.\n-r | -p(a).\n")
    cfg = Config(rewrite=False, single_action_optim=False)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    root = tree.nodes[0]
    # the root state chooses the start clause
    assert root.state.actions == (StartAction(0), StartAction(1)) and not root.state.goals
    assert len(root.child_priors) == 2
    playout(tree, g, cfg, cp=3.0)
    playout(tree, g, cfg, cp=3.0)
    assert len(root.children) == 2
    for ai, cid in root.children.items():
        assert tree.nodes[cid].state.proof[0] == StartStep(ai, ())


def test_expansion_order_equals_the_max_scan_on_random_priors():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 12)
        # few distinct values, so equal priors are common
        priors = [rng.choice([0.0, 0.05, 0.1, 0.25, 0.5, 1.0 / 3]) for _ in range(n)]
        node = node_with(0.0, rng.randint(1, 5), 1.0)
        node.child_priors = priors
        while len(node.children) < n:
            expected = reference_next_action(node)
            assert _next_action(node) == expected
            node.children[expected] = len(node.children) + 1
            node.visits += 1


def test_expansion_order_on_multi_start_roots(monkeypatch):
    """Every expansion, the root's start choices included, takes the action
    `reference_next_action` picks; a multi-start root expands its start
    choices in order, breadth-first, before any descent."""
    def checked(node):
        expected = reference_next_action(node)
        assert next_action(node) == expected
        picks.append(node.id)
        return expected

    next_action = mcts._next_action
    monkeypatch.setattr(mcts, "_next_action", checked)
    cfg = Config(inference_limit=200, bigstep_freq=5, path_limit=20, single_action_optim=False)
    g = DefaultGuidance()
    for name in ("multi_start.p", "hash_start.p", "mixed_start.p"):
        picks = []
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            m = parse_problem(fh.read())
        tree = SearchTree(m, g, initial_states(m, cfg))
        chooses = not tree.nodes[0].state.proof  # a root before its start step
        assert chooses == (name == "multi_start.p")
        for _ in range(20):
            if tree.proved_node is not None or tree.nodes[0].dead:
                break
            playout(tree, g, cfg, cp=3.0)
        assert picks, name
        if chooses:
            assert picks[:2] == [0, 0] and tree.nodes[0].children == {0: 1, 1: 2}, name


def test_multi_start_trees_keep_the_visit_invariants():
    """A start state, proved or not, is an expansion of the root and is
    backpropagated like any other."""
    cfg = Config(inference_limit=200, bigstep_freq=5, path_limit=20)
    for name in ("multi_start.p", "hash_start.p", "mixed_start.p"):
        with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
            m = parse_problem(fh.read())
        result = search_problem(m, DefaultGuidance(), cfg)
        assert result.outcome == "proved", name
        check_tree_invariants(result.tree)
        check_dead_rule(result.tree)
        # every playout inserted exactly one node beside the root
        assert len(result.tree.nodes) == result.tree.playouts + 1, name


MULTI_START_OPEN = ("p(X).\nq(X).\n-p(a) | r(a).\n-p(b) | s(b).\n-q(a) | s(a).\n"
                    "-q(b) | r(b).\n-r(b).\n-s(c).\n")


def test_playouts_under_a_multi_start_root_keep_the_invariants():
    """Both start states are open, so the search expands them from the
    root and plays out beneath it, one playout at a time."""
    m = parse_problem(MULTI_START_OPEN)
    cfg = Config(inference_limit=200, bigstep_freq=5, path_limit=20)
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, cfg))
    assert len(tree.nodes) == 1 and tree.nodes[0].state.actions == (StartAction(0),
                                                                    StartAction(1))
    replay = RewardReplay(tree)
    while tree.proved_node is None and not tree.nodes[tree.bigstep_root].dead:
        nid = playout(tree, g, cfg, cp=cfg.cp_initial)
        assert len(tree.nodes) == tree.playouts + 1 and nid == tree.playouts
        check_dead_rule(tree)
        replay.after_playout(tree, nid)
        check_tree_invariants(tree)
        replay.check(tree)
        if tree.proved_node is None and tree.playouts % cfg.bigstep_freq == 0:
            bigstep(tree)
    assert (tree.playouts, tree.inferences, len(tree.nodes)) == (6, 7, 7)
    assert tree.nodes[0].children == {0: 1, 1: 2}
    assert [len(tree.nodes[i].state.actions) for i in (1, 2)] == [2, 2]
    stats = search_problem(m, g, cfg).stats
    assert (stats.outcome, stats.playouts, stats.inferences) == ("proved", 6, 7)


def test_a_proved_start_state_is_the_multi_start_roots_first_child():
    with open(os.path.join(corpus_dir(), "multi_start.p"), "r", encoding="utf-8") as fh:
        m = parse_problem(fh.read())
    g = DefaultGuidance()
    tree = SearchTree(m, g, initial_states(m, Config()))
    assert tree.nodes[0].state.result == OPEN and tree.proved_node is None
    playout(tree, g, Config(), cp=3.0)
    assert tree.proved_node == 1 and tree.nodes[0].children == {0: 1}
    assert tree.nodes[0].visits == 2
    assert tree.nodes[0].reward == g.value(tree.nodes[0].state) + 1.0
    check_tree_invariants(tree)


def test_a_proved_start_state_counts_as_an_expanded_start():
    """Choosing a start clause is one inference, and its settle counts the
    forced steps after it; the search stops after the one playout that
    expands a proved start state."""
    with open(os.path.join(corpus_dir(), "multi_start.p"), "r", encoding="utf-8") as fh:
        m = parse_problem(fh.read())
    cfg = Config()
    g = DefaultGuidance()
    root = initial_states(m, cfg)
    assert root.inference_count == 0
    start = mcts.apply_action(m, root, 0, cfg)
    assert start.result == PROVED and start.inference_count == 2  # the choice and one step
    stats = search_problem(m, g, cfg).stats
    assert (stats.inferences, stats.playouts, stats.proof_len) == (2, 1, len(start.proof))


def test_the_one_root_on_random_multi_start_matrices(monkeypatch):
    """Differential battery for the one root state: the first 300 random
    matrices, plain and equational in turn, keep the 134 with several start
    clauses, and `solve_one` searches and checks each, so every emitted proof
    is accepted (a rejection raises).  The tree keeps its invariants after
    every playout, each playout adds to the tree's inferences what its
    expansion's step and settle counted, and the root, which has no start
    step yet, gives no row.
    Each start choice builds the state its clause builds as the lone start
    clause (marked with `#`), at one inference more: one against none when
    no forced step follows."""
    playouts = []
    played = mcts.playout

    def checked(tree, guidance, cfg, cp):
        before = tree.inferences
        nid = played(tree, guidance, cfg, cp)
        # an expansion costs what its step and settle counted
        node = tree.nodes[nid]
        assert tree.inferences - before == (node.state.inference_count
                                            - tree.nodes[node.parent].state.inference_count)
        check_tree_invariants(tree)
        playouts.append(nid)
        return nid

    state_features = FeatureExtractor.state_features

    def stepped(self, s):
        assert s.proof, "a root before its start step gives no row"
        return state_features(self, s)

    monkeypatch.setattr(mcts, "playout", checked)
    monkeypatch.setattr(FeatureExtractor, "state_features", stepped)
    rng = random.Random(20)
    cfg = Config(inference_limit=3000, bigstep_freq=20, path_limit=8)
    unforced = replace(cfg, single_action_optim=False)
    matrices = proved = rows = 0
    for i in range(300):
        m, text = (random_matrix if i % 2 == 0 else random_eq_matrix)(rng)
        if len(m.start_ids) < 2:
            continue
        matrices += 1
        lines = text.splitlines()
        for c in (cfg, unforced):
            root = initial_states(m, c)
            assert (root.goals, root.proof, root.inference_count) == ((), (), 0)
            assert root.actions == tuple(map(StartAction, m.start_ids))
            for ai, action in enumerate(root.actions):
                chosen = mcts.apply_action(m, root, ai, c)
                marked = lines[:]
                marked[action.clause_id] = marked[action.clause_id][:-1] + " | #."
                alone = parse_problem("\n".join(marked) + "\n")
                assert alone.start_ids == [action.clause_id]
                lone = initial_states(alone, c)
                assert chosen.inference_count == lone.inference_count + 1
                assert (chosen.goals, chosen.proof, chosen.result) == (
                    lone.goals, lone.proof, lone.result)
                if c is unforced:
                    assert lone.inference_count == 0
        _, trace, value_rows, policy_rows = solve_one(f"m{i}", text, cfg)
        proved += trace is not None
        rows += len(value_rows) + len(policy_rows)
    assert (matrices, proved, rows) == (134, 41, 719)
    assert len(playouts) > 10_000


def test_rewrite_rules_shorten_the_unguided_eq_chain_16():
    # 2600 inferences when every orientation of an equation was a rule
    ini = os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini")
    with open(os.path.join(corpus_dir(), "eq_chain_16.p"), "r", encoding="utf-8") as fh:
        m = parse_problem(fh.read())
    result = search_problem(m, DefaultGuidance(), load_config(ini))
    assert result.outcome == "proved" and result.stats.inferences <= 1560
