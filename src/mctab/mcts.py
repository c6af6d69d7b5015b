"""Monte-Carlo tree search over prover states.

Each playout descends from the bigstep root in one loop.  At each node it
moves to the live child with the largest UCT score (the lowest action index
among equal scores), unless the pool of the node's unexpanded actions
scores higher; there it expands the unexpanded action with the largest
prior (the lowest index among equal priors; each node sorts its actions by
prior once).  The bigstep root expands breadth-first: all its actions
before any descent.  The new child is scored with the guidance value, and
the value is backpropagated along all ancestors.  Every
`bigstep_freq` playouts the exploration root moves one level down to the
child with the best mean reward; the visited bigstep roots are the anchor
points for training-data extraction.

A node's actions are its priors: a PROVED or FAILED node has none, an OPEN
node one per valid action (`calculus` makes a state OPEN only when it has
one, so the guidance is never asked for none).  Every node holds a state,
the root included: with several start clauses the root's actions are the
start choices, and expanding one costs one inference plus its settle, like
any other step.  That root has no start step yet, so extraction gives it no
row.

A node is dead when it is FAILED, or when all its actions are expanded and
all its children are dead (`_mark_dead`); the search stops once the bigstep
root is dead.  A PROVED node ends the search when it is inserted, so a
playout meets only live OPEN nodes and ends in an expansion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .calculus import OPEN, PROVED, ProverState, apply_action, initial_states
from .config import Config
from .guidance import ModelGuidance, policy_target, value_target
from .problems import Matrix


@dataclass(slots=True)
class SearchNode:
    id: int
    parent: Optional[int]
    state: ProverState
    prior: float
    visits: int
    reward: float
    child_priors: list  # one per action; empty exactly at a PROVED or FAILED node
    children: dict = field(default_factory=dict)  # action index -> node id
    dead: bool = False
    pending: Optional[list] = None  # action indices by ascending prior, see _next_action


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
    def __init__(self, m: Matrix, guidance, root: ProverState):
        self.matrix = m
        self.nodes: list = []
        self.playouts = 0
        self.inferences = 0
        self.proved_node: Optional[int] = None
        self.bigstep_root = 0
        self.bigstep_nodes = [0]
        self._insert(None, None, root, guidance)

    def _insert(self, parent: Optional[SearchNode], ai, state: ProverState,
                guidance) -> SearchNode:
        """Add `state` as the child of `parent` by its action `ai`, or as the
        root when `parent` is None: score it, count its inferences, link it,
        mark it proved or dead, and backpropagate its value."""
        if state.result == PROVED:
            value, priors = 1.0, []
        elif state.result != OPEN:
            value, priors = 0.0, []
        else:
            value = guidance.value(state)
            priors = guidance.priors(state)
        node = SearchNode(len(self.nodes), None, state, 1.0, visits=1, reward=value,
                          child_priors=priors)
        self.nodes.append(node)
        self.inferences += state.inference_count
        if parent is not None:
            node.parent, node.prior = parent.id, parent.child_priors[ai]
            parent.children[ai] = node.id  # before `_mark_dead`, which counts them
            self.inferences -= parent.state.inference_count
        if state.result == PROVED and self.proved_node is None:
            self.proved_node = node.id
        if state.result not in (OPEN, PROVED):
            self._mark_dead(node.id)
        self.backpropagate(node.parent, value)
        return node

    def _mark_dead(self, nid: int):
        node = self.nodes[nid]
        node.dead = True
        parent = node.parent
        while parent is not None:
            pnode = self.nodes[parent]
            if len(pnode.children) < len(pnode.child_priors):
                break
            if not all(self.nodes[c].dead for c in pnode.children.values()):
                break
            pnode.dead = True
            parent = pnode.parent

    def backpropagate(self, nid: Optional[int], reward: float):
        while nid is not None:
            node = self.nodes[nid]
            node.visits += 1
            node.reward += reward
            nid = node.parent


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


def _expand(tree: SearchTree, node: SearchNode, guidance, cfg: Config) -> SearchNode:
    ai = _next_action(node)
    return tree._insert(node, ai, apply_action(tree.matrix, node.state, ai, cfg), guidance)


def playout(tree: SearchTree, guidance, cfg: Config, cp: float) -> int:
    """One select-expand-backpropagate cycle; returns the new node's id.

    The descent is one loop.  At each node it scans the live children as
    inserted for the largest UCT score, the lowest action index among equal
    scores, and expands the node's next action when no live child beats
    the pool of unexpanded actions: UCT with a zero value term, one virtual
    visit and the largest unexpanded prior.  The bigstep root itself is
    expanded breadth-first before any descent: bigstep decisions compare
    child mean values, so every candidate child must exist with real
    statistics before the root is allowed to move.  With a live bigstep root
    and no PROVED node, as `search_problem` keeps them, the descent always
    ends in an expansion.
    """
    tree.playouts += 1
    nodes = tree.nodes
    node = nodes[tree.bigstep_root]
    while True:
        unexpanded = len(node.children) < len(node.child_priors)
        if unexpanded and node.id == tree.bigstep_root:
            return _expand(tree, node, guidance, cfg).id
        best, best_ai, best_score = None, None, -math.inf
        log_visits = math.log(node.visits)
        for ai, cid in node.children.items():
            child = nodes[cid]
            if child.dead:
                continue
            score = uct_score(child, log_visits, cp)
            if score > best_score or (score == best_score and ai < best_ai):
                best, best_ai, best_score = child, ai, score
        if unexpanded and (best is None or cp * node.child_priors[_next_action(node)]
                           * math.sqrt(log_visits) > best_score):
            return _expand(tree, node, guidance, cfg).id
        node = best


def bigstep(tree: SearchTree) -> int:
    """Move the exploration root to the child with the best mean reward.

    Ties prefer the more visited child, then the lower action index, which
    the key's `-ai` decides, so children are scanned as inserted.  Dead
    children are skipped; with no live child the root stays put (if the
    subtree is fully failed the search loop stops anyway).
    """
    node = tree.nodes[tree.bigstep_root]
    best = None
    for ai, cid in node.children.items():
        child = tree.nodes[cid]
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


def search_problem(m: Matrix, guidance, cfg: Config, name: str = "") -> SearchResult:
    """Alternate playouts and bigsteps until proof, dead root, or budgets end.

    The exploration constant is `cfg.cp_later` under learned guidance (a
    `ModelGuidance`) and `cfg.cp_initial` otherwise."""
    cp = cfg.cp_later if isinstance(guidance, ModelGuidance) else cfg.cp_initial
    tree = SearchTree(m, guidance, initial_states(m, cfg))
    deadline = time.monotonic() + cfg.time_limit_s
    while (tree.proved_node is None and tree.inferences < cfg.inference_limit
           and not tree.nodes[tree.bigstep_root].dead and time.monotonic() <= deadline):
        playout(tree, guidance, cfg, cp)
        if (tree.proved_node is None and cfg.bigstep_freq > 0
                and tree.playouts % cfg.bigstep_freq == 0):
            bigstep(tree)
    outcome, proof, subst = "exhausted", None, None
    if tree.proved_node is not None:
        state = tree.nodes[tree.proved_node].state
        outcome, proof, subst = "proved", state.proof, state.subst
    stats = SearchStats(name, outcome, tree.inferences, tree.playouts,
                        len(tree.bigstep_nodes) - 1, 0 if proof is None else len(proof))
    return SearchResult(outcome, proof, subst, stats, tree)


# ---------------------------------------------------------------------------
# training-data extraction

def _dedup(rows: list) -> list:
    """Drop rows with identical feature vectors, keeping the maximum target at
    the vector's first position: a replaced dict value keeps its key's place."""
    best: dict = {}
    for entries, target in rows:
        key = tuple(sorted(entries.items()))
        if key not in best or target > best[key][1]:
            best[key] = (entries, target)
    return list(best.values())


def _proof_path(tree: SearchTree) -> list:
    path = []
    cur = tree.proved_node
    while cur is not None:
        path.append(cur)
        cur = tree.nodes[cur].parent
    path.reverse()
    return path


def extract_training_data(tree: SearchTree, cfg: Config, extractor):
    """Value and policy rows from one pass over the anchors: the bigstep
    nodes, then (with all_proofsteps) the proof-path nodes not among them.

    An anchor on the proof path gets a value target discounted by its
    remaining proof steps, any other anchor the clipped failure target.
    Its policy rows follow its value row, one per expanded child, pairing
    the child's visit frequency with the action's features; they are only
    emitted for proved searches unless limited_policy is off.  Building an
    anchor's rows together builds its state vector once.  Rows with
    identical feature vectors are filtered keeping the maximum target.
    """
    path = _proof_path(tree)
    on_path = set(path)
    proof_len = len(tree.nodes[tree.proved_node].state.proof) if path else 0
    with_policy = bool(path) or not cfg.limited_policy
    value_rows, policy_rows = [], []
    for nid in dict.fromkeys(tree.bigstep_nodes + (path if cfg.all_proofsteps else [])):
        node = tree.nodes[nid]
        s = node.state
        if not s.proof:  # a root before its start step
            continue
        k = proof_len - len(s.proof) if nid in on_path else None
        value_rows.append((extractor.state_features(s), value_target(k, cfg.discount)))
        if with_policy:
            for ai in sorted(node.children):
                target = policy_target(node.visits, tree.nodes[node.children[ai]].visits,
                                       len(s.actions))
                key = extractor.action_key(s, s.actions[ai])
                policy_rows.append((extractor.action_features(s, key), target))
    return _dedup(value_rows), _dedup(policy_rows)
