"""Gradient boosted regression trees over sparse feature vectors.

Squared-error boosting with exact greedy split search on the sparse columns.
Zero/absent entries are treated as missing and routed by a learned default
direction per split.  Training is deterministic: fixed row order, splits
tie-broken by lowest feature index, lowest threshold, then default-left.
A deterministic 90/10 train/holdout split drives early stopping, and the
minority sign class is up-weighted so the data is sign-balanced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .config import Config
from .features import FeatureVector


class DatasetError(Exception):
    pass


class ModelFormatError(Exception):
    pass


@dataclass
class Dataset:
    rows: list  # (FeatureVector, target)
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

    def predict(self, fv: FeatureVector) -> float:
        if fv.dim != self.dim:
            raise DatasetError(f"feature dimension {fv.dim} does not match model {self.dim}")
        total = self.base
        for tree in self.trees:
            total += self.eta * tree.evaluate(fv.entries)
        return total


# ---------------------------------------------------------------------------
# training

def _best_split(row_ids, grad, hess, entries_of, lam: float, g_total: float, h_total: float):
    """Exact greedy search over (feature, threshold, default direction), given
    the gradient and hessian totals over `row_ids`.

    Present values v go left when v <= threshold; missing rows follow the
    default.  Returns (gain, feature, threshold, default_left) or None.
    """
    n = len(row_ids)
    cols: dict = {}
    for i in row_ids:
        for f, v in entries_of[i].items():
            cols.setdefault(f, []).append((v, i))
    parent = g_total * g_total / (h_total + lam)
    best = None
    best_gain = 1e-12
    for f in sorted(cols):
        col = sorted(cols[f])
        g_present = 0.0
        h_present = 0.0
        for _, i in col:
            g_present += grad[i]
            h_present += hess[i]
        g_miss = g_total - g_present
        h_miss = h_total - h_present
        n_miss = n - len(col)
        g_left = 0.0
        h_left = 0.0
        n_left = 0
        k = 0
        while k < len(col):
            value = col[k][0]
            while k < len(col) and col[k][0] == value:
                g_left += grad[col[k][1]]
                h_left += hess[col[k][1]]
                n_left += 1
                k += 1
            for default_left in (True, False):
                if default_left:
                    gl, hl, nl = g_left + g_miss, h_left + h_miss, n_left + n_miss
                else:
                    gl, hl, nl = g_left, h_left, n_left
                nr = n - nl
                if nl == 0 or nr == 0:
                    continue
                gr = g_total - gl
                hr = h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, value, default_left)
    return best


def _build_tree(row_ids, grad, hess, entries_of, cfg: Config, depth: int) -> _Node:
    g_total = sum(grad[i] for i in row_ids)
    h_total = sum(hess[i] for i in row_ids)
    leaf = _Node(weight=-g_total / (h_total + cfg.reg_lambda))
    if depth >= cfg.max_depth or len(row_ids) < 2:
        return leaf
    found = _best_split(row_ids, grad, hess, entries_of, cfg.reg_lambda, g_total, h_total)
    if found is None:
        return leaf
    _, feature, threshold, default_left = found
    left_ids, right_ids = [], []
    for i in row_ids:
        value = entries_of[i].get(feature)
        if value is None or value == 0.0:
            (left_ids if default_left else right_ids).append(i)
        elif value <= threshold:
            left_ids.append(i)
        else:
            right_ids.append(i)
    node = _Node(feature=feature, threshold=threshold, default_left=default_left)
    node.left = _build_tree(left_ids, grad, hess, entries_of, cfg, depth + 1)
    node.right = _build_tree(right_ids, grad, hess, entries_of, cfg, depth + 1)
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
    entries_of = [fv.entries for fv, _ in data.rows]
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

    base_num = sum(weight[i] * target[i] for i in train_ids)
    base_den = sum(weight[i] for i in train_ids)
    base = base_num / base_den

    pred = [base] * n
    grad = [0.0] * n
    hess = [0.0] * n
    history = TrainHistory()
    trees: List[_Node] = []
    best = _rmse(watch, pred, target, weight)
    best_round = -1
    for rnd in range(cfg.rounds):
        for i in train_ids:
            grad[i] = weight[i] * (pred[i] - target[i])
            hess[i] = weight[i]
        tree = _build_tree(train_ids, grad, hess, entries_of, cfg, 0)
        trees.append(tree)
        for i in range(n):
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


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def _parse_tree(tokens: list, dim: int) -> Tuple[_Node, int]:
    """The tree a preorder line starts with, and the number of tokens it took."""
    root = None
    open_splits: list = []  # split nodes still missing a child
    pos = 0
    while True:
        if pos >= len(tokens):
            raise ValueError("truncated tree line")
        tok = tokens[pos]
        if tok == "L":
            if pos + 1 >= len(tokens):
                raise ValueError("truncated leaf")
            node = _Node(weight=_finite(tokens[pos + 1]))
            pos += 2
        elif tok == "N":
            if pos + 3 >= len(tokens):
                raise ValueError("truncated split node")
            feature = int(tokens[pos + 1])
            if not 0 <= feature < dim:
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
            return root, pos


def parse_model(text: str) -> GbtModel:
    lines = [(n, l) for n, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines:
        raise ModelFormatError("empty model file")
    lineno, first = lines[0]
    header = first.split()
    try:
        if header[:2] != ["GBT", "v1"] or len(header) != 5:
            raise ValueError
        dim = int(header[2].removeprefix("dim="))
        eta = _finite(header[3].removeprefix("eta="))
        base = _finite(header[4].removeprefix("base="))
        if dim <= 0:
            raise ValueError
    except ValueError:
        raise ModelFormatError(f"line {lineno}: bad model header: {first!r}") from None
    trees = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        try:
            tree, end = _parse_tree(tokens, dim)
            if end != len(tokens):
                raise ValueError("trailing tokens after tree")
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
    for fv, target in data.rows:
        parts = [repr(target)]
        parts.extend(f"{i}:{v!r}" for i, v in sorted(fv.entries.items()))
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
            target = float(parts[0])
            entries = {}
            last = -1
            for part in parts[1:]:
                idx_s, _, val_s = part.partition(":")
                idx = int(idx_s)
                if idx <= last:
                    raise ValueError("feature indices must be strictly ascending")
                if idx >= dim:
                    raise ValueError(f"feature index {idx} outside dimension {dim}")
                last = idx
                entries[idx] = float(val_s)
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        rows.append((FeatureVector(entries, dim), target))
    return Dataset(rows, dim)


def load_dataset(path: str, dim: int) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read(), dim)
