"""Gradient boosted regression trees over sparse feature vectors.

A vector is a plain dict from feature index to value, a libsvm row in
memory; the learner imports nothing from the prover but `Config` and the
number spellings the ini file shares (`_finite`, `_index`).

Squared-error boosting with exact greedy split search on the sparse columns.
Zero/absent entries are treated as missing and routed by a learned default
direction per split.  Training is deterministic: fixed row order, splits
tie-broken by lowest feature index, lowest threshold, then default-left.
A deterministic 90/10 train/holdout split drives early stopping, and the
minority sign class is up-weighted so the data is sign-balanced.

`train` sorts each feature's column once (XGBoost's column blocks), and a
split hands its children stable subsequences of those columns, both
children's in one pass over the node's.  A column whose values are all
equal has one candidate split, so it is scored as one row set: one sum of
its gradients and one of its hessians.  Each leaf adds its step to the
predictions of the training rows the build routed to it, so only holdout
rows walk the new tree.  Float sums add left to right, so a model is the
same bits on every Python.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain, compress, filterfalse
from operator import add, ne, not_
from typing import List, Optional, Tuple

from .config import Config, _finite, _index


class DatasetError(Exception):
    pass


class ModelFormatError(Exception):
    pass


@dataclass
class Dataset:
    rows: list  # (entries, target); entries maps feature index to value
    dim: int


@dataclass
class _Node:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    default_left: bool = True
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    weight: float = 0.0

    def evaluate(self, entries: dict) -> float:
        node = self
        while node.feature >= 0:
            value = entries.get(node.feature)
            if value is None or value == 0.0:
                node = node.left if node.default_left else node.right
            elif value <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node.weight


@dataclass
class TrainHistory:
    train_rmse: list = field(default_factory=list)
    holdout_rmse: list = field(default_factory=list)
    best_round: int = -1
    best_rmse: float = 0.0  # holdout rmse of the returned model (the base alone at round -1)


@dataclass
class GbtModel:
    dim: int
    eta: float
    base: float
    trees: list = field(default_factory=list)
    history: Optional[TrainHistory] = None  # transient, not serialized

    def predict(self, entries: dict) -> float:
        total = self.base
        for tree in self.trees:
            total += self.eta * tree.evaluate(entries)
        return total


# ---------------------------------------------------------------------------
# training

def left_sum(values) -> float:
    """The float sum added left to right from 0.0.  `sum` did that up to
    Python 3.11; from 3.12 it compensates, which changes the last bits."""
    return reduce(add, values, 0.0)


def _columns(row_ids, entries_of) -> list:
    """One (feature, values, row ids) column per feature present in the rows,
    sorted by (value, row id), features ascending.  A 0.0 or -0.0 entry is
    left out, as missing, the way routing treats it.  A column equal to a
    lower feature's is left out: its gains are the same bits, and ties keep
    the lower feature."""
    cols: dict = {}
    for i in row_ids:
        for f, v in entries_of[i].items():
            if v != 0.0:
                cols.setdefault(f, []).append((v, i))
    out = {}
    for f in sorted(cols):
        vals, ids = zip(*sorted(cols[f]))
        out.setdefault((vals, ids), (f, vals, ids))
    return list(out.values())


def _best_split(cols, n: int, grad, hess, lam: float, g_total: float, h_total: float):
    """Exact greedy search over (feature, threshold, default direction) on the
    node's columns, given its row count and its gradient and hessian totals.

    Present values v go left when v <= threshold; missing rows follow the
    default.  Returns (gain, feature, threshold, default_left) or None.
    """
    parent = g_total * g_total / (h_total + lam)
    best = None
    best_gain = 1e-12
    for f, vals, ids in cols:
        m = len(ids)
        if vals[0] == vals[-1]:
            # one value, one candidate: the present rows go left, the rest
            # go right by default; a column of all the rows has none
            if m != n:
                gl = left_sum(map(grad.__getitem__, ids))
                hl = left_sum(map(hess.__getitem__, ids))
                gr, hr = g_total - gl, h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, vals[0], False)
            continue
        g_left = list(accumulate(map(grad.__getitem__, ids), initial=0.0))
        h_left = list(accumulate(map(hess.__getitem__, ids), initial=0.0))
        g_miss = g_total - g_left[m]
        h_miss = h_total - h_left[m]
        start = 0
        for k in chain(compress(range(1, m), map(ne, vals, vals[1:])), (m,)):
            value = vals[start]
            start = k
            # k >= 1 rows go left; a split needs a row on the right as well.
            # Default left: the missing rows join them, so not after the last value.
            if k != m:
                gl, hl = g_left[k] + g_miss, h_left[k] + h_miss
                gr, hr = g_total - gl, h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, value, True)
            # default right: the k present rows go left alone
            if k != n:
                gl, hl = g_left[k], h_left[k]
                gr, hr = g_total - gl, h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, value, False)
    return best


def _build_tree(row_ids, cols, grad, hess, pred, cfg: Config, depth: int) -> _Node:
    """The tree over the node's rows and columns.  Each leaf adds eta times
    its weight to the predictions of the rows it holds."""
    g_total = left_sum(map(grad.__getitem__, row_ids))
    h_total = left_sum(map(hess.__getitem__, row_ids))
    found = None
    if depth < cfg.max_depth and len(row_ids) >= 2:
        found = _best_split(cols, len(row_ids), grad, hess, cfg.reg_lambda, g_total, h_total)
    if found is None:
        weight = -g_total / (h_total + cfg.reg_lambda)
        for i in row_ids:
            pred[i] += cfg.eta * weight
        return _Node(weight=weight)
    _, feature, threshold, default_left = found
    # the feature's column holds the node's rows with a present value; the
    # rest follow the default
    goes_left = [default_left] * len(grad)
    _, vals, ids = next(col for col in cols if col[0] == feature)
    for value, i in zip(vals, ids):
        goes_left[i] = value <= threshold
    left_ids = list(filter(goes_left.__getitem__, row_ids))
    right_ids = list(filterfalse(goes_left.__getitem__, row_ids))
    n_left, n_right = len(left_ids), len(right_ids)
    # both children's columns in one pass, each in the node's order.  A child
    # of fewer than two rows is a leaf and gets none; a column holding all of
    # a child's rows with one value has no split there or below, so it is
    # left out.
    left_cols, right_cols = [], []
    for f, vals, ids in cols if depth + 1 < cfg.max_depth else ():
        if vals[0] == vals[-1]:
            rows = tuple(filter(goes_left.__getitem__, ids))
            if 0 < len(rows) < n_left:
                left_cols.append((f, vals[:len(rows)], rows))
            rows = tuple(filterfalse(goes_left.__getitem__, ids))
            if 0 < len(rows) < n_right:
                right_cols.append((f, vals[:len(rows)], rows))
            continue
        mask = list(map(goes_left.__getitem__, ids))
        if n_left >= 2:
            kept = tuple(compress(vals, mask))
            if kept and (len(kept) < n_left or kept[0] != kept[-1]):
                left_cols.append((f, kept, tuple(compress(ids, mask))))
        if n_right >= 2:
            mask = list(map(not_, mask))
            kept = tuple(compress(vals, mask))
            if kept and (len(kept) < n_right or kept[0] != kept[-1]):
                right_cols.append((f, kept, tuple(compress(ids, mask))))
    node = _Node(feature=feature, threshold=threshold, default_left=default_left)
    node.left = _build_tree(left_ids, left_cols, grad, hess, pred, cfg, depth + 1)
    node.right = _build_tree(right_ids, right_cols, grad, hess, pred, cfg, depth + 1)
    return node


def _rmse(ids, pred, target, weight) -> float:
    num = 0.0
    den = 0.0
    for i in ids:
        d = pred[i] - target[i]
        num += weight[i] * d * d
        den += weight[i]
    return math.sqrt(num / den) if den > 0 else 0.0


def train(data: Dataset, cfg: Config) -> GbtModel:
    """Boost with the learner settings of `cfg` (eta, max_depth, reg_lambda,
    rounds, patience)."""
    if not data.rows:
        raise DatasetError("cannot train on an empty dataset")
    n = len(data.rows)
    entries_of = [entries for entries, _ in data.rows]
    target = [t for _, t in data.rows]

    # sign balancing: up-weight the minority sign class
    weight = [1.0] * n
    pos = sum(1 for t in target if t > 0)
    neg = n - pos
    if pos and neg and pos != neg:
        factor = max(pos, neg) / min(pos, neg)
        minority_positive = pos < neg
        weight = [factor if ((t > 0) == minority_positive) else 1.0 for t in target]

    holdout = [i for i in range(n) if i % 10 == 9]
    train_ids = [i for i in range(n) if i % 10 != 9]
    watch = holdout if holdout else train_ids

    base_num = left_sum(weight[i] * target[i] for i in train_ids)
    base_den = left_sum(weight[i] for i in train_ids)
    base = base_num / base_den

    cols = _columns(train_ids, entries_of)
    pred = [base] * n
    grad = [0.0] * n
    history = TrainHistory()
    trees: List[_Node] = []
    best = _rmse(watch, pred, target, weight)
    best_round = -1
    for rnd in range(cfg.rounds):
        for i in train_ids:
            grad[i] = weight[i] * (pred[i] - target[i])
        # the hessian of weighted squared error is the row's weight
        tree = _build_tree(train_ids, cols, grad, weight, pred, cfg, 0)
        trees.append(tree)
        for i in holdout:
            pred[i] += cfg.eta * tree.evaluate(entries_of[i])
        history.train_rmse.append(_rmse(train_ids, pred, target, weight))
        score = _rmse(watch, pred, target, weight)
        history.holdout_rmse.append(score)
        if score < best - 1e-12:
            best = score
            best_round = rnd
        if rnd - best_round >= cfg.patience:
            break
    history.best_round = best_round
    history.best_rmse = best
    model = GbtModel(dim=data.dim, eta=cfg.eta, base=base, trees=trees[: best_round + 1])
    model.history = history
    return model


# ---------------------------------------------------------------------------
# model persistence: versioned header, then one preorder line per tree

def _emit(tree: _Node) -> str:
    """One tree's preorder line."""
    parts = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.feature < 0:
            parts.append(f"L {node.weight!r}")
        else:
            side = "L" if node.default_left else "R"
            parts.append(f"N {node.feature} {node.threshold!r} {side}")
            stack.append(node.right)
            stack.append(node.left)
    return " ".join(parts)


def format_model(model: GbtModel) -> str:
    lines = [f"GBT v1 dim={model.dim} eta={model.eta!r} base={model.base!r}"]
    lines.extend(_emit(tree) for tree in model.trees)
    return "\n".join(lines) + "\n"


def save(model: GbtModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_model(model))


def _parse_tree(tokens: list, dim: int) -> Tuple[_Node, int, float]:
    """The tree a preorder line starts with, the number of tokens it took and
    its largest absolute leaf weight."""
    root = None
    open_splits: list = []  # split nodes still missing a child
    pos = 0
    largest = 0.0
    while True:
        if pos >= len(tokens):
            raise ValueError("truncated tree line")
        tok = tokens[pos]
        if tok == "L":
            if pos + 1 >= len(tokens):
                raise ValueError("truncated leaf")
            node = _Node(weight=_finite(tokens[pos + 1]))
            largest = max(largest, abs(node.weight))
            pos += 2
        elif tok == "N":
            if pos + 3 >= len(tokens):
                raise ValueError("truncated split node")
            feature = _index(tokens[pos + 1])
            if feature >= dim:
                raise ValueError(f"feature index {feature} outside dimension {dim}")
            threshold = _finite(tokens[pos + 2])
            default = tokens[pos + 3]
            if default not in ("L", "R"):
                raise ValueError(f"bad default direction {default!r}")
            node = _Node(feature=feature, threshold=threshold, default_left=default == "L")
            pos += 4
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if root is None:
            root = node
        elif open_splits[-1].left is None:
            open_splits[-1].left = node
        else:
            open_splits.pop().right = node
        if node.feature >= 0:
            open_splits.append(node)
        if not open_splits:
            return root, pos, largest


# the header `format_model` writes, each value behind its key
_HEADER = re.compile(r"GBT v1 dim=(\S+) eta=(\S+) base=(\S+)")


def parse_model(text: str) -> GbtModel:
    lines = [(n, l) for n, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines:
        raise ModelFormatError("empty model file")
    lineno, first = lines[0]
    try:
        fields = _HEADER.fullmatch(" ".join(first.split()))
        if fields is None:
            raise ValueError
        dim, eta, base = _index(fields[1]), _finite(fields[2]), _finite(fields[3])
        if dim <= 0:
            raise ValueError
    except ValueError:
        raise ModelFormatError(f"line {lineno}: bad model header: {first!r}") from None
    trees = []
    bound = abs(base)  # plus each tree's largest |eta * leaf|: bounds every prediction
    for lineno, line in lines[1:]:
        tokens = line.split()
        try:
            tree, end, largest = _parse_tree(tokens, dim)
            if end != len(tokens):
                raise ValueError("trailing tokens after tree")
            bound += abs(eta) * largest
            if not math.isfinite(bound):
                raise ValueError("leaf weights scaled by eta overflow")
        except ValueError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None
        trees.append(tree)
    return GbtModel(dim=dim, eta=eta, base=base, trees=trees)


def load(path: str) -> GbtModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# dataset files: `target feat:val feat:val ...`, indices strictly ascending

def format_dataset(data: Dataset) -> str:
    lines = []
    for entries, target in data.rows:
        parts = [repr(target)]
        parts.extend(f"{i}:{v!r}" for i, v in sorted(entries.items()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""


def save_dataset(data: Dataset, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dataset(data))


def parse_dataset(text: str, dim: int) -> Dataset:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            target = _finite(parts[0])
            entries = {}
            last = -1
            for part in parts[1:]:
                idx_s, colon, val_s = part.partition(":")
                if not (idx_s and colon and val_s):
                    raise ValueError(f"malformed entry {part!r}")
                idx = _index(idx_s)
                if idx >= dim:
                    raise ValueError(f"feature index {idx} outside dimension {dim}")
                if idx <= last:
                    raise ValueError("feature indices must be strictly ascending")
                last = idx
                entries[idx] = _finite(val_s)
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        rows.append((entries, target))
    return Dataset(rows, dim)


def load_dataset(path: str, dim: int) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read(), dim)
