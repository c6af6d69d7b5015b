import hashlib
import os
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mctab.cli import corpus_dir
from mctab.config import Config, load_config
from mctab.gbt import (
    Dataset,
    DatasetError,
    ModelFormatError,
    _best_split,
    _columns,
    format_dataset,
    format_model,
    left_sum,
    load_dataset,
    parse_dataset,
    parse_model,
    train,
)
from mctab.loop import run_loop

from helpers import deep_model_text, reference_train


def make_dataset(rows, dim=100):
    return Dataset([(dict(e), t) for e, t in rows], dim)


def test_constant_target_fits_exactly():
    data = make_dataset([({0: 1.0}, 3.7) for _ in range(12)])
    model = train(data, Config(rounds=1))
    assert abs(model.predict({0: 1.0}) - 3.7) < 1e-6


def test_step_function_learned_quickly():
    rows = []
    for i in range(40):
        v = float(i % 10 + 1)
        rows.append(({5: v}, 1.0 if v > 5 else 0.0))
    data = make_dataset(rows)
    model = train(data, Config(rounds=20, patience=50))
    assert model.history.train_rmse[-1] < 0.01
    assert len(model.history.train_rmse) <= 20


def test_training_rmse_non_increasing():
    rng = random.Random(2)
    rows = []
    for _ in range(60):
        entries = {rng.randrange(20): rng.uniform(0.5, 3.0) for _ in range(rng.randint(1, 6))}
        rows.append((entries, rng.uniform(-2, 2)))
    data = make_dataset(rows)
    model = train(data, Config(rounds=30, patience=100))
    rmse = model.history.train_rmse
    assert all(a >= b - 1e-12 for a, b in zip(rmse, rmse[1:]))


def test_huge_lambda_collapses_to_base():
    rng = random.Random(3)
    rows = [({rng.randrange(5): 1.0}, rng.uniform(-1, 1)) for _ in range(30)]
    data = make_dataset(rows)
    model = train(data, Config(rounds=10, reg_lambda=1e12))
    for fvec, _ in data.rows:
        assert abs(model.predict(fvec) - model.base) < 1e-6


def test_empty_dataset_is_error():
    with pytest.raises(DatasetError):
        train(Dataset([], 10), Config())


def test_missing_values_follow_default_direction():
    rows = []
    for i in range(40):
        if i % 2 == 0:
            rows.append(({0: 1.0}, 0.0))
        else:
            rows.append(({1: 1.0}, 1.0))  # feature 0 absent
    data = make_dataset(rows)
    model = train(data, Config(rounds=15, patience=50))
    assert model.predict({0: 1.0}) < 0.1
    assert model.predict({1: 1.0}) > 0.9


def test_sign_balancing_upweights_minority():
    # 18 negative-target rows vs 2 positive: balanced training should pull the
    # positive rows' prediction up close to their target
    rows = [({0: 1.0}, -1.0) for _ in range(20)]
    rows[0] = ({1: 1.0}, 1.0)
    rows[10] = ({1: 1.0}, 1.0)
    data = make_dataset(rows)
    model = train(data, Config(rounds=20, patience=50))
    assert model.predict({1: 1.0}) > 0.5


def brute_best(row_ids, grad, hess, entries, lam):
    feats = sorted({f for i in row_ids for f in entries[i] if entries[i][f] != 0.0})
    g_total = sum(grad[i] for i in row_ids)
    h_total = sum(hess[i] for i in row_ids)
    parent = g_total * g_total / (h_total + lam)
    best = None
    best_gain = 1e-12
    for f in feats:
        values = sorted({entries[i][f] for i in row_ids if entries[i].get(f, 0.0) != 0.0})
        for thr in values:
            for default_left in (True, False):
                gl = hl = 0.0
                nl = 0
                for i in row_ids:
                    v = entries[i].get(f, 0.0)
                    go_left = default_left if v == 0.0 else v <= thr
                    if go_left:
                        gl += grad[i]
                        hl += hess[i]
                        nl += 1
                if nl == 0 or nl == len(row_ids):
                    continue
                gr = g_total - gl
                hr = h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (gain, f, thr, default_left)
    return best


def test_split_choice_matches_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(5, 60)
        entries = []
        for _ in range(n):
            entries.append(
                {rng.randrange(12): float(rng.randint(1, 4)) for _ in range(rng.randint(0, 5))}
            )
        grad = [rng.uniform(-2, 2) for _ in range(n)]
        hess = [rng.uniform(0.5, 2.0) for _ in range(n)]
        lam = 1.5
        ids = list(range(n))
        mine = _best_split(_columns(ids, entries), n, grad, hess, lam, sum(grad), sum(hess))
        ref = brute_best(ids, grad, hess, entries, lam)
        assert (mine is None) == (ref is None)
        if mine is None:
            continue
        assert abs(mine[0] - ref[0]) < 1e-9
        # when the optimum is unique the exact same split must be chosen
        second = brute_second_gain(ids, grad, hess, entries, lam, ref[1:])
        if second is None or ref[0] - second > 1e-9:
            assert mine[1:] == ref[1:]


def test_zero_entries_are_missing_in_the_split_search():
    """Routing sends a present 0.0 or -0.0 the default way, as missing, and
    the split search scores it the same way."""
    cfg = Config(rounds=5, patience=5)
    expected = train(make_dataset([({0: 2.0}, 1.0), ({1: 1.0}, -1.0)] * 10), cfg).history
    assert round(expected.train_rmse[-1], 5) == 0.22626
    for zero in (0.0, -0.0):
        rows = [({0: zero}, 1.0), ({1: 1.0}, -1.0)] * 10
        assert train(make_dataset(rows), cfg).history.train_rmse == expected.train_rmse
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(5, 40)
        entries = [{rng.randrange(8): rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0])
                    for _ in range(rng.randint(0, 4))} for _ in range(n)]
        grad = [rng.uniform(-2, 2) for _ in range(n)]
        hess = [rng.uniform(0.5, 2.0) for _ in range(n)]
        ids = list(range(n))
        mine = _best_split(_columns(ids, entries), n, grad, hess, 1.5, sum(grad), sum(hess))
        ref = brute_best(ids, grad, hess, entries, 1.5)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert abs(mine[0] - ref[0]) < 1e-9


def brute_second_gain(row_ids, grad, hess, entries, lam, exclude):
    feats = sorted({f for i in row_ids for f in entries[i] if entries[i][f] != 0.0})
    g_total = sum(grad[i] for i in row_ids)
    h_total = sum(hess[i] for i in row_ids)
    parent = g_total * g_total / (h_total + lam)
    best = None
    for f in feats:
        values = sorted({entries[i][f] for i in row_ids if entries[i].get(f, 0.0) != 0.0})
        for thr in values:
            for default_left in (True, False):
                if (f, thr, default_left) == exclude:
                    continue
                gl = hl = 0.0
                nl = 0
                for i in row_ids:
                    v = entries[i].get(f, 0.0)
                    go_left = default_left if v == 0.0 else v <= thr
                    if go_left:
                        gl += grad[i]
                        hl += hess[i]
                        nl += 1
                if nl == 0 or nl == len(row_ids):
                    continue
                gr = g_total - gl
                hr = h_total - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
                if best is None or gain > best:
                    best = gain
    return best


def test_early_stopping_contract():
    rng = random.Random(11)
    rows = [({rng.randrange(3): 1.0}, rng.uniform(-1, 1)) for _ in range(50)]
    data = make_dataset(rows)
    cfg = Config(rounds=200, patience=5)
    model = train(data, cfg)
    h = model.history
    ran = len(h.holdout_rmse)
    assert ran == cfg.rounds or (ran - 1) - h.best_round >= cfg.patience
    assert len(model.trees) == h.best_round + 1
    if h.best_round >= 0:
        floor = h.holdout_rmse[h.best_round]
        assert all(floor <= r + 1e-12 for r in h.holdout_rmse[h.best_round :])


def test_model_roundtrip_identical_predictions():
    rng = random.Random(5)
    rows = []
    for _ in range(80):
        entries = {rng.randrange(15): rng.uniform(0.5, 4.0) for _ in range(rng.randint(1, 6))}
        rows.append((entries, rng.uniform(-3, 3)))
    data = make_dataset(rows)
    model = train(data, Config(rounds=10, patience=50))
    text = format_model(model)
    clone = parse_model(text)
    for fvec, _ in data.rows:
        assert model.predict(fvec) == clone.predict(fvec)


def test_empty_model_predicts_base():
    text = "GBT v1 dim=10 eta=0.3 base=1.25\n"
    model = parse_model(text)
    assert model.predict({}) == 1.25


def test_truncated_model_file_errors():
    with pytest.raises(ModelFormatError):
        parse_model("GBT v1 dim=10 eta=0.3 base=0.0\nN 1 0.5 L L 0.2\n")
    with pytest.raises(ModelFormatError):
        parse_model("GBT v2 dim=10 eta=0.3 base=0.0\n")
    with pytest.raises(ModelFormatError):
        parse_model("")


def test_a_model_header_needs_each_key():
    """The header is `GBT v1 dim=<d> eta=<eta> base=<b>`, as `format_model`
    writes it: a value without its key is refused."""
    for header in ("GBT v1 10 eta=0.3 base=0.5", "GBT v1 dim=10 0.3 base=0.5",
                   "GBT v1 dim=10 eta=0.3 0.5", "GBT v1 10 0.3 0.5"):
        with pytest.raises(ModelFormatError,
                           match=f"^line 1: bad model header: {re.escape(repr(header))}$"):
            parse_model(header + "\n")


def test_malformed_model_lines_are_positioned_errors():
    header = "GBT v1 dim=10 eta=0.3 base=0.0\n"
    for tree in ("N x 0.5 L L 0.1 L 0.2", "N -1 0.5 L L 0.1 L 0.2",
                 "N 10 0.5 L L 0.1 L 0.2", "L zz"):
        with pytest.raises(ModelFormatError, match="^line 3: "):
            parse_model(header + "\n" + tree + "\n")
    # one number grammar: ASCII digits, no `_`, as `repr` writes
    for tree, message in (("N 1_0 0.5 L L 0.1 L 0.2", "bad feature index '1_0'"),
                          ("N \u0663 0.5 L L 0.1 L 0.2", "bad feature index '\u0663'"),
                          ("N 3 0_5 L L 0.1 L 0.2", "bad number '0_5'"),
                          ("L \u0663.\u0665", "bad number '\u0663.\u0665'")):
        with pytest.raises(ModelFormatError, match=f"^line 2: {re.escape(message)}$"):
            parse_model(header + tree + "\n")
    for tree in ("N 3 nan L L 0.1 L 0.2", "N 3 inf L L 0.1 L 0.2", "N 3 0.5 L L nan L 0.2",
                 "N 3 0.5 L L 0.1 L -inf", "L inf"):
        with pytest.raises(ModelFormatError, match="^line 3: non-finite number "):
            parse_model(header + "\n" + tree + "\n")
    for field, bad in (("dim=10", "dim=0"), ("dim=10", "dim=-2"), ("dim=10", "dim=x"),
                       ("dim=10", "dim=1_0"), ("dim=10", "dim=\u0661\u0660"),
                       ("eta=0.3", "eta=0_3"), ("base=0.0", "base=\u0660.\u0660"),
                       ("eta=0.3", "eta=nan"), ("eta=0.3", "eta=inf"),
                       ("base=0.0", "base=nan"), ("base=0.0", "base=-inf")):
        with pytest.raises(ModelFormatError, match="^line 1: "):
            parse_model(header.replace(field, bad))
    with pytest.raises(ModelFormatError, match="^line 1: "):
        parse_model("GBT v1 dim=10 eta=nan base=inf\nN 3 nan L L nan L inf\n")
    # finite numbers whose scaled leaves, or their sum with the base, overflow
    for text in ("GBT v1 dim=10 eta=1e300 base=0.0\nL 0.5\nN 3 0.5 L L 0.1 L 1e300\n",
                 "GBT v1 dim=10 eta=1.0 base=1e308\nL 1e307\nL -1e308\n"):
        with pytest.raises(ModelFormatError, match="^line 3: leaf weights scaled by eta overflow"):
            parse_model(text)
    assert parse_model("GBT v1 dim=10 eta=1.0 base=1e308\nL -1e307\n").trees
    good = header + "N 9 0.5 L L 0.1 L 0.2\n"
    assert format_model(parse_model(good)) == good


def test_models_of_any_depth_parse_predict_and_round_trip():
    text = deep_model_text(30000, 10)
    model = parse_model(text)
    assert model.predict({}) == 0.5 * 0.25 + 0.5 * 0.25
    assert model.predict({0: 1.0}) == 0.5 * -1.0 + 0.5 * 0.25
    assert format_model(model) == text


def test_dataset_file_roundtrip():
    rows = [({3: 1.5, 7: 2.0}, 0.5), ({}, -3.0)]
    data = make_dataset(rows, dim=10)
    text = format_dataset(data)
    back = parse_dataset("# comment\n" + text, 10)
    assert back.rows == [
        ({3: 1.5, 7: 2.0}, 0.5),
        ({}, -3.0),
    ]


def test_dataset_file_rejects_bad_rows():
    with pytest.raises(DatasetError):
        parse_dataset("0.5 7:1.0 3:1.0\n", 10)  # not ascending
    with pytest.raises(DatasetError):
        parse_dataset("0.5 12:1.0\n", 10)  # index out of dimension


def test_dataset_file_rejects_non_finite_numbers():
    # NaN has no place in a sorted column; an inf target trains an unloadable base
    for row in ("0.5 3:nan", "0.5 1:1.0 3:-inf", "nan 3:1.0", "inf", "-inf 2:0.5"):
        with pytest.raises(DatasetError, match="^line 2: non-finite number "):
            parse_dataset("0.5 1:1.0\n" + row + "\n", 10)


# ---------------------------------------------------------------------------
# model text properties

# numbers from a small pool (0.0 and -0.0 among them) or any finite one in a range
POOL = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0]

_finite = st.floats(min_value=-1e6, max_value=1e6)
_numbers = st.one_of(st.sampled_from(POOL), _finite)
DIM = 8

_trees = st.recursive(
    _numbers.map(lambda w: f"L {w!r}"),
    lambda inner: st.builds(
        lambda f, t, side, left, right: f"N {f} {t!r} {side} {left} {right}",
        st.integers(0, DIM - 1), _numbers, st.sampled_from("LR"), inner, inner,
    ),
    max_leaves=12,
)

_model_texts = st.builds(
    lambda eta, base, trees: "\n".join(
        [f"GBT v1 dim={DIM} eta={eta!r} base={base!r}", *trees]) + "\n",
    _numbers, _numbers, st.lists(_trees, max_size=5),
)


@settings(max_examples=300)
@given(_model_texts)
def _models_round_trip(text):
    assert format_model(parse_model(text)) == text


def test_model_text_round_trip_property(hypothesis_home):
    _models_round_trip()


# ---------------------------------------------------------------------------
# the trainer against the one it replaced

def test_left_sum_adds_left_to_right():
    # from Python 3.12 `sum` compensates and gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert repr(left_sum([])) == "0.0"


def assert_same_training(mine, ref):
    assert format_model(mine) == format_model(ref)
    h, r = mine.history, ref.history
    assert repr((h.train_rmse, h.holdout_rmse, h.best_round, h.best_rmse)) == repr(
        (r.train_rmse, r.holdout_rmse, r.best_round, r.best_rmse))


@pytest.fixture(scope="module")
def loop_out(tmp_path_factory):
    """The guided benchmark's set-up: 2 iterations of desk.ini at 1000
    inferences.  Returns the output directory and the config."""
    ini = os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini")
    cfg = load_config(ini, ["inference_limit=1000"])
    out = tmp_path_factory.mktemp("loop")
    run_loop(corpus_dir(), 2, str(out), cfg)
    return out, cfg


def test_training_equals_the_reference_on_the_loops_datasets(loop_out):
    out, cfg = loop_out
    for k in (0, 1):
        for kind in ("value", "policy"):
            data = load_dataset(str(out / f"iter{k}" / f"{kind}.data"), cfg.feature_dim)
            # just under the smallest dataset: value and policy rows per
            # iteration are [[96, 104], [175, 216]]
            assert len(data.rows) > 95
            mine = train(data, cfg)
            assert format_model(mine) == (out / f"iter{k}" / f"{kind}.model").read_text()
            assert_same_training(mine, reference_train(data, cfg))


# sha256 of the loop's files above; a declared behaviour change re-records them
LOOP_SHA256 = {
    "iter0/report.tsv": "49778fc68fdcd04a1e02c4ffbd755e1b9a43356305707a3d1b844887845e5718",
    "iter0/value.data": "51e527014737ae413846d8adf2b08776daab01121329f31239c236a46e7b3cb9",
    "iter0/policy.data": "f3aefd889fcac4512e8df613510b60850d152aa475ae5b0e0863ef1f44407eec",
    "iter0/value.model": "ac24b397210bfd03080b52eab2908e8005b23bb5ae5de7021567b3761bb85cac",
    "iter0/policy.model": "58a1ec4f57cd608b6292ecc0fa88ad44184150cdb683b1d3a12f84b847351ab1",
    "iter1/report.tsv": "9b0e14f69571a1082b022a44db1121fe107ff59ed13d31e5cec65c7b082caef9",
    "iter1/value.data": "49dfb1c9b18facaa9a8d786f27642fd7da1d29a0b70d90f088648051fa831e77",
    "iter1/policy.data": "125ee4699c80aec753676c59181650346ec0a747cc9f1f0fc2e0cc77dad9b6ad",
    "iter1/value.model": "1bc69aa84033978396bf7c55ae21d715c86afcf67c7c21bd7126fd267f112d45",
    "iter1/policy.model": "b85a0a9f30667f80ede139fa4975ba54475e111b33173e2edaf595dd197474a2",
}


def test_the_loops_files_are_byte_identical_to_the_recorded_ones(loop_out):
    out, _ = loop_out
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LOOP_SHA256}
    assert found == LOOP_SHA256


# values with repeats, negatives and both zeros (present, yet routed as missing)
VALUES = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]

_rows = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 5), st.sampled_from(VALUES), max_size=5),
        st.one_of(st.sampled_from([-1.0, 0.0, 0.3, 1.0]), st.floats(-3.0, 3.0)),
    ),
    min_size=1, max_size=40,
)


def _with_copies(rows, copies):
    """Feature 6 and 7 copy features `copies` in every row: duplicate columns."""
    out = []
    for entries, target in rows:
        entries = dict(entries)
        for dst, src in zip((6, 7), copies):
            if src in entries:
                entries[dst] = entries[src]
        out.append((entries, target))
    return Dataset(out, 8)


@settings(max_examples=300)
@given(_rows, st.lists(st.integers(0, 5), max_size=2), st.integers(0, 7), st.integers(1, 6),
       st.integers(1, 4), st.sampled_from([0.1, 1.5]))
@example([({0: 1.0}, 0.5)], [0], 3, 1, 1, 1.5)  # one row
@example([({0: -0.0, 1: 2.0}, 1.0), ({0: 0.0}, -1.0), ({1: 2.0}, 0.3)] * 4, [1], 0, 1, 1, 1.5)
# every column at the root holds one value
@example([({0: 1.0}, 1.0), ({1: 2.0}, -1.0), ({0: 1.0, 1: 2.0}, 0.3)] * 4, [], 2, 2, 1, 1.5)
# the root's split leaves a child of one row above the depth limit
@example([({0: 3.0}, 3.0)] + [({0: 1.0, 1: 1.0}, -0.0)] * 10, [], 3, 1, 1, 1.5)
# features 0 and 1 differ at the root and hold the same rows and values in
# the child with feature 2 at 2.0, where the tie keeps feature 0
@example([({0: 1.0, 1: 1.0, 2: 2.0}, 1.0), ({0: 2.0, 1: 2.0, 2: 2.0}, 0.5),
          ({0: 1.0, 2: 1.0}, -1.0), ({1: 2.0, 2: 1.0}, -1.0)] * 3, [], 3, 2, 1, 1.5)
# 3 positive rows against 7 others: weight 7/3, so hessian sums are not whole
@example([({0: 1.0}, 1.0), ({0: 2.0}, -1.0), ({1: 1.0}, -0.5)] * 3 + [({0: 2.0}, -1.0)],
         [], 2, 2, 1, 0.1)
def _training_as_the_reference(rows, copies, max_depth, rounds, patience, lam):
    data = _with_copies(rows, copies)
    cfg = Config(max_depth=max_depth, rounds=rounds, patience=patience, reg_lambda=lam)
    assert_same_training(train(data, cfg), reference_train(data, cfg))


def test_training_property_against_the_reference(hypothesis_home):
    _training_as_the_reference()


_dataset_texts = st.lists(
    st.tuples(_numbers, st.dictionaries(st.integers(0, DIM - 1), _numbers)).map(
        lambda row: " ".join([repr(row[0])] + [f"{i}:{v!r}" for i, v in sorted(row[1].items())])),
).map(lambda lines: "".join(line + "\n" for line in lines))


@settings(max_examples=300)
@given(_dataset_texts)
def _datasets_round_trip(text):
    assert format_dataset(parse_dataset(text, DIM)) == text


def test_dataset_text_round_trip_property(hypothesis_home):
    _datasets_round_trip()
