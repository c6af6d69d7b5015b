"""Monte-Carlo tree search over prover states.

Each playout selects a node by descending through the children that maximize
the UCT score, expands the unexpanded action with the largest prior (the
lowest index among equal priors; each node sorts its actions by prior once),
scores the new child with the guidance value, and backpropagates along all
ancestors.  Every `bigstep_freq` playouts the exploration root moves one
level down to the child with the best mean reward; the visited bigstep roots
are the anchor points for training-data extraction.

Fully failed subtrees are marked dead so the search can stop early instead
of replaying known failures forever.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .calculus import OPEN, PROVED, ProverState, apply_action, initial_states
from .config import Config
from .guidance import policy_target, value_target
from .problems import Matrix


@dataclass
class SearchNode:
    id: int
    parent: Optional[int]
    action_index: Optional[int]  # edge label from the parent
    state: Optional[ProverState]  # None only for a virtual multi-start root
    prior: float
    visits: int
    reward: float
    child_priors: list
    children: dict = field(default_factory=dict)  # action index -> node id
    dead: bool = False
    pending: Optional[list] = None  # action indices by ascending prior, see _next_action

    def action_count(self) -> int:
        if self.state is None:
            return len(self.child_priors)
        return len(self.state.actions)

    def is_terminal(self) -> bool:
        return self.state is not None and self.state.result != OPEN


@dataclass
class SearchStats:
    problem: str
    outcome: str
    inferences: int
    playouts: int
    bigsteps: int
    proof_len: int

    def line(self) -> str:
        return "\t".join(
            str(x)
            for x in (
                self.problem,
                self.outcome,
                self.inferences,
                self.playouts,
                self.bigsteps,
                self.proof_len,
            )
        )


class SearchTree:
    def __init__(self, m: Matrix, guidance, start_states):
        self.matrix = m
        self.nodes: list = []
        self.start_states = list(start_states)
        self.playouts = 0
        self.inferences = 0
        self.proved_node: Optional[int] = None
        if len(self.start_states) == 1:
            state = self.start_states[0]
            self._insert(None, None, state, prior=1.0, guidance=guidance)
            self.inferences += state.inference_count
        else:
            # picking the start clause is the first branching of the search
            n = len(self.start_states)
            root = SearchNode(
                id=0,
                parent=None,
                action_index=None,
                state=None,
                prior=1.0,
                visits=1,
                reward=0.5,
                child_priors=[1.0 / n] * n,
            )
            self.nodes.append(root)
        self.root_id = 0
        self.bigstep_root = 0
        self.bigstep_nodes = [0]

    def node(self, nid: int) -> SearchNode:
        return self.nodes[nid]

    def _insert(self, parent_id, action_index, state: ProverState, prior, guidance) -> SearchNode:
        if state.result == PROVED:
            value, priors = 1.0, []
        elif state.result != OPEN:
            value, priors = 0.0, []
        else:
            value = guidance.value(state)
            priors = guidance.priors(state)
        node = SearchNode(
            id=len(self.nodes),
            parent=parent_id,
            action_index=action_index,
            state=state,
            prior=prior,
            visits=1,
            reward=value,
            child_priors=priors,
        )
        self.nodes.append(node)
        if parent_id is not None:
            self.nodes[parent_id].children[action_index] = node.id
        if state.result == PROVED and self.proved_node is None:
            self.proved_node = node.id
        if state.result not in (OPEN, PROVED):
            self._mark_dead(node.id)
        return node

    def _mark_dead(self, nid: int):
        node = self.nodes[nid]
        node.dead = True
        parent = node.parent
        while parent is not None:
            pnode = self.nodes[parent]
            if len(pnode.children) < pnode.action_count():
                break
            if not all(self.nodes[c].dead for c in pnode.children.values()):
                break
            pnode.dead = True
            parent = pnode.parent

    def backpropagate(self, nid: int, reward: float):
        cur: Optional[int] = nid
        while cur is not None:
            node = self.nodes[cur]
            node.visits += 1
            node.reward += reward
            cur = node.parent


def uct_score(node: SearchNode, log_parent_visits: float, cp: float) -> float:
    """UCT of `node`, given the natural log of its parent's visits."""
    return node.reward / node.visits + cp * node.prior * math.sqrt(
        log_parent_visits / node.visits
    )


def _next_action(node: SearchNode) -> int:
    """The unexpanded action with the largest prior, lowest index first: the
    last of the actions sorted once, stably from the highest index down."""
    p = node.child_priors
    if node.pending is None:
        node.pending = sorted(reversed(range(len(p))), key=p.__getitem__)
    while node.pending[-1] in node.children:
        node.pending.pop()
    return node.pending[-1]


def unexplored_score(node: SearchNode, cp: float) -> float:
    """Score of the pool of unexpanded actions: UCT with a zero value term,
    one virtual visit, and the largest unexpanded prior."""
    return (cp * node.child_priors[_next_action(node)] * math.sqrt(math.log(node.visits))
            if node.visits > 1 else 0.0)


def _select_child(tree: SearchTree, node: SearchNode, cp: float):
    best = None
    best_score = -math.inf
    log_visits = math.log(node.visits)
    for ai in sorted(node.children):
        child = tree.node(node.children[ai])
        if child.dead:
            continue
        score = uct_score(child, log_visits, cp)
        if score > best_score:
            best_score = score
            best = child
    return best, best_score


def _expand(tree: SearchTree, node: SearchNode, guidance, cfg: Config) -> SearchNode:
    ai = _next_action(node)
    if node.state is None:
        child_state = tree.start_states[ai]
        tree.inferences += child_state.inference_count + 1
    else:
        child_state = apply_action(tree.matrix, node.state, ai, cfg)
        tree.inferences += child_state.inference_count - node.state.inference_count
    child = tree._insert(node.id, ai, child_state, node.child_priors[ai], guidance)
    tree.backpropagate(node.id, child.reward)
    return child


def playout(tree: SearchTree, guidance, cfg: Config, cp: float) -> int:
    """One select-expand-backpropagate cycle; returns the final node id.

    The descent expands a node's next action when no live child beats the
    pool of unexpanded actions; it ends at a terminal node, or at a node
    whose children are all dead, which is then marked dead.  The bigstep
    root itself is expanded breadth-first before any descent: bigstep
    decisions compare child mean values, so every candidate child must exist
    with real statistics before the root is allowed to move.
    """
    tree.playouts += 1
    node = tree.node(tree.bigstep_root)
    while not node.is_terminal():
        have_unexpanded = len(node.children) < node.action_count()
        if have_unexpanded and node.id == tree.bigstep_root:
            best_child = None
        else:
            best_child, best_score = _select_child(tree, node, cp)
        if have_unexpanded and (best_child is None or unexplored_score(node, cp) > best_score):
            return _expand(tree, node, guidance, cfg).id
        if best_child is None:  # every action expanded and every child dead
            tree._mark_dead(node.id)
            break
        node = best_child
    reward = 1.0 if node.is_terminal() and node.state.result == PROVED else 0.0
    tree.backpropagate(node.id, reward)
    return node.id


def bigstep(tree: SearchTree) -> int:
    """Move the exploration root to the child with the best mean reward.

    Ties prefer the more visited child, then the lower action index.  Dead
    children are skipped; with no live child the root stays put (if the
    subtree is fully failed the search loop stops anyway).
    """
    node = tree.node(tree.bigstep_root)
    best = None
    for ai in sorted(node.children):
        child = tree.node(node.children[ai])
        if child.dead:
            continue
        key = (child.reward / child.visits, child.visits, -ai)
        if best is None or key > best[0]:
            best = (key, child.id)
    if best is None:
        return tree.bigstep_root
    tree.bigstep_root = best[1]
    tree.bigstep_nodes.append(best[1])
    return best[1]


@dataclass
class SearchResult:
    outcome: str  # "proved" or "exhausted"
    proof: Optional[tuple]
    proof_subst: Optional[dict]
    stats: SearchStats
    tree: SearchTree


def search_problem(
    m: Matrix,
    guidance,
    cfg: Config,
    cp: Optional[float] = None,
    name: str = "",
) -> SearchResult:
    """Alternate playouts and bigsteps until proof, dead root, or budgets end."""
    cp = cfg.cp_initial if cp is None else cp
    starts = initial_states(m, cfg)
    tree = SearchTree(m, guidance, starts)
    deadline = time.monotonic() + cfg.time_limit_s
    if len(starts) > 1:
        for i, s in enumerate(starts):
            if s.result == PROVED:
                child = tree._insert(0, i, s, tree.node(0).child_priors[i], guidance)
                tree.backpropagate(0, child.reward)
                break
    while (tree.proved_node is None and tree.inferences < cfg.inference_limit
           and not tree.node(tree.bigstep_root).dead and time.monotonic() <= deadline):
        playout(tree, guidance, cfg, cp)
        if (tree.proved_node is None and cfg.bigstep_freq > 0
                and tree.playouts % cfg.bigstep_freq == 0):
            bigstep(tree)
    outcome, proof, subst = "exhausted", None, None
    if tree.proved_node is not None:
        state = tree.node(tree.proved_node).state
        outcome, proof, subst = "proved", state.proof, state.subst
    stats = SearchStats(name, outcome, tree.inferences, tree.playouts,
                        len(tree.bigstep_nodes) - 1, 0 if proof is None else len(proof))
    return SearchResult(outcome, proof, subst, stats, tree)


# ---------------------------------------------------------------------------
# training-data extraction

def _dedup(rows: list) -> list:
    """Drop rows with identical feature vectors, keeping the maximum target."""
    best: dict = {}
    order: list = []
    for fv, target in rows:
        key = tuple(sorted(fv.entries.items()))
        if key not in best:
            best[key] = (fv, target)
            order.append(key)
        elif target > best[key][1]:
            best[key] = (fv, target)
    return [best[k] for k in order]


def _proof_path(tree: SearchTree) -> list:
    path = []
    cur = tree.proved_node
    while cur is not None:
        path.append(cur)
        cur = tree.node(cur).parent
    path.reverse()
    return path


def extract_training_data(tree: SearchTree, outcome: str, cfg: Config, extractor):
    """Value and policy rows from bigstep nodes (and proof-path nodes).

    Value targets discount by the number of remaining proof steps; failures
    get the clipped bottom target.  Policy rows pair each expanded child's
    visit frequency with the action's features and are only emitted for
    proved searches unless limited_policy is off.  Rows with identical
    feature vectors are filtered keeping the maximum target.
    """
    proved = outcome == "proved" and tree.proved_node is not None
    path = _proof_path(tree) if proved else []
    on_path = set(path)

    value_ids = list(tree.bigstep_nodes)
    if proved and cfg.all_proofsteps:
        seen = set(value_ids)
        value_ids.extend(nid for nid in path if nid not in seen)

    value_rows = []
    proof_len = len(tree.node(tree.proved_node).state.proof) if proved else 0
    for nid in value_ids:
        node = tree.node(nid)
        if node.state is None:
            continue
        if proved and nid in on_path:
            k = proof_len - len(node.state.proof)
            target = value_target(k, cfg.discount)
        else:
            target = value_target(None, cfg.discount)
        value_rows.append((extractor.state_features(node.state), target))

    policy_rows = []
    if proved or not cfg.limited_policy:
        for nid in value_ids:
            node = tree.node(nid)
            if node.state is None or not node.children:
                continue
            n_actions = len(node.state.actions)
            for ai in sorted(node.children):
                child = tree.node(node.children[ai])
                target = policy_target(node.visits, child.visits, n_actions)
                policy_rows.append(
                    (extractor.action_features(node.state, node.state.actions[ai]), target)
                )
    return _dedup(value_rows), _dedup(policy_rows)
