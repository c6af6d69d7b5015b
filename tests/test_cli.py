import gc
import hashlib
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

import mctab
from mctab import checker, cli, gbt, loop
from mctab.checker import CheckResult
from mctab.cli import corpus_dir, main
from mctab.config import Config, ConfigError, apply_overrides, from_ini, to_ini
from mctab.problems import parse_problem

from helpers import deep_model_text

INI_DIR = Path(mctab.__file__).parent / "ini"

APP_A = "-p(X).\np(Y) | -q(a).\nq(a).\n"

FAST = ["-s", "inference_limit=500", "-s", "bigstep_freq=50", "-s", "path_limit=60",
        "-s", "rounds=10", "-s", "patience=5", "-s", "max_depth=4"]


@pytest.fixture
def problem(tmp_path):
    path = tmp_path / "app_a.p"
    path.write_text(APP_A)
    return str(path)


def test_prove_writes_verified_proof(problem, capsys):
    assert main(["prove", problem, *FAST]) == 0
    out = capsys.readouterr().out
    assert out.startswith("app_a.p\tproved\t")
    assert os.path.exists(problem + ".proof")


def test_prove_exit_one_when_no_proof(tmp_path, capsys):
    path = tmp_path / "bad.p"
    path.write_text("p(a).\n-p(b).\n")
    assert main(["prove", str(path), *FAST]) == 1


def reject_every_proof(monkeypatch):
    monkeypatch.setattr(
        loop, "check_proof_texts", lambda proof, problem: CheckResult(False, "planted rejection")
    )


def test_prove_exits_one_and_writes_no_proof_when_the_checker_rejects(
    problem, monkeypatch, capsys
):
    reject_every_proof(monkeypatch)
    assert main(["prove", problem, *FAST]) == 1
    assert not os.path.exists(problem + ".proof")
    assert "planted rejection" in capsys.readouterr().err


def test_bench_exits_one_when_the_checker_rejects(tmp_path, monkeypatch, capsys):
    d = tmp_path / "probs"
    d.mkdir()
    (d / "one.p").write_text(APP_A)
    reject_every_proof(monkeypatch)
    assert main(["bench", str(d), *FAST]) == 1
    assert "planted rejection" in capsys.readouterr().err


def test_no_check_option_is_gone(problem):
    assert main(["prove", problem, "--no-check", *FAST]) == 2
    assert not os.path.exists(problem + ".proof")


def test_check_accepts_and_rejects(problem, capsys):
    assert main(["prove", problem, *FAST]) == 0
    proof = problem + ".proof"
    assert main(["check", proof, problem]) == 0
    assert "OK" in capsys.readouterr().out
    mutated = proof + ".bad"
    lines = Path(proof).read_text(encoding="utf-8").strip().splitlines()
    with open(mutated, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert main(["check", mutated, problem]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_check_exits_two_on_an_unparsable_problem(problem, tmp_path, capsys):
    assert main(["prove", problem, *FAST]) == 0
    bad = tmp_path / "bad.p"
    bad.write_text("p(a) |\n")
    capsys.readouterr()
    assert main(["check", problem + ".proof", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 2:1: ")
    assert "REJECTED" not in captured.out


def test_check_parses_the_problem_once(problem, monkeypatch, capsys):
    assert main(["prove", problem, *FAST]) == 0
    texts = []

    def counting_parse(text):
        texts.append(text)
        return parse_problem(text)

    monkeypatch.setattr(cli, "parse_problem", counting_parse)
    monkeypatch.setattr(checker, "parse_problem", counting_parse)
    assert main(["check", problem + ".proof", problem]) == 0
    assert texts == [APP_A]


def test_bench_prints_table(tmp_path, capsys):
    d = tmp_path / "probs"
    d.mkdir()
    (d / "one.p").write_text(APP_A)
    (d / "two.p").write_text("p(a).\n-p(b).\n")
    assert main(["bench", str(d), *FAST]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("one.p\tproved\t")
    assert out[1].startswith("two.p\texhausted\t")
    assert out[2].startswith("# proved\t1/2")


def test_loop_and_train_commands(tmp_path, monkeypatch, capsys):
    paused = []  # every training runs in a collector unit
    # compared with the count before, which is not 0 on every interpreter
    # (see test_loop's collector-unit test)
    frozen = gc.get_freeze_count()

    def spy(data, cfg):
        paused.append(not gc.isenabled() and gc.get_freeze_count() > frozen)
        return train(data, cfg)

    train = gbt.train
    monkeypatch.setattr(gbt, "train", spy)
    d = tmp_path / "probs"
    d.mkdir()
    (d / "one.p").write_text(APP_A)
    (d / "two.p").write_text("-s0.\ns0 | -s1.\ns1.\n")
    out = tmp_path / "out"
    assert main(["loop", str(d), "--iterations", "1", "--out", str(out), *FAST]) == 0
    assert (out / "iter0" / "value.model").exists()
    model_out = tmp_path / "v.model"
    code = main(["train", str(out / "iter0" / "value.data"), str(model_out), *FAST])
    assert code == 0
    assert model_out.exists()
    assert paused == [True] * (len(list(out.glob("iter0/*.model"))) + 1)
    assert gc.isenabled() and gc.get_freeze_count() <= frozen


def test_loop_trains_no_model_on_a_dataset_without_rows(tmp_path, capsys):
    # both start clauses fail at once: the root that chooses between them
    # has two dead children and no start step, so no anchor gives a row
    d = tmp_path / "probs"
    d.mkdir()
    (d / "two_starts.p").write_text("p.\nq.\n")
    out = tmp_path / "out"
    assert main(["loop", str(d), "--iterations", "2", "--out", str(out), *FAST]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("rows value=0 policy=0," in line for line in lines)
    for k in (0, 1):
        assert (out / f"iter{k}" / "value.data").read_text() == ""
        assert (out / f"iter{k}" / "policy.data").read_text() == ""
    assert list(out.glob("**/*.model")) == []


def test_train_reports_the_holdout_rmse_of_the_saved_model(tmp_path, capsys):
    # no round improves the one holdout row (the tenth), so the saved model is
    # the sign-balanced base alone: (1 + ... + 8) / (8 + 4 * 1) = 3.0
    data = tmp_path / "d.data"
    data.write_text("".join(f"{i} 0:{i + 1}\n" for i in range(9)) + "-100.0 0:10.0\n")
    model_out = tmp_path / "d.model"
    args = ["-s", "rounds=5", "-s", "patience=5", "-s", "feature_dim=10"]
    assert main(["train", str(data), str(model_out), *args]) == 0
    assert capsys.readouterr().out == "trained 0 trees (best round -1, holdout rmse 103.000000)\n"
    assert "base=3.0" in model_out.read_text()


def test_prove_with_models(problem, tmp_path):
    d = tmp_path / "probs"
    d.mkdir()
    (d / "one.p").write_text(APP_A)
    # a problem with real branching so policy rows (and a model) exist
    (d / "two.p").write_text("p.\n-p | r.\n-p | s.\n-s.\n")
    out = tmp_path / "out"
    assert main(["loop", str(d), "--iterations", "1", "--out", str(out), *FAST]) == 0
    code = main([
        "prove", problem, *FAST,
        "--value-model", str(out / "iter0" / "value.model"),
        "--policy-model", str(out / "iter0" / "policy.model"),
    ])
    assert code == 0


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["prove"]) == 2  # missing argument
    assert main(["frobnicate"]) == 2
    bad = tmp_path / "bad.p"
    bad.write_text("p(a) |\n")
    assert main(["prove", str(bad)]) == 2  # parse error
    assert main(["prove", str(bad), "-s", "no_such_key=1"]) == 2
    # a loop of no iterations, and counts not spelled in ASCII digits
    for i, n in enumerate(("0", "-1", "\u0662", "1_0", "+2")):
        out = tmp_path / f"loop{i}"
        capsys.readouterr()
        assert main(["loop", corpus_dir(), "--iterations", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_a_negated_start_mark_is_a_positioned_parse_error(tmp_path, capsys):
    # `#` marks a clause and is no atom: the prover once started from the
    # `-#` clause and then had its proof rejected (exit 1)
    path = tmp_path / "negated_mark.p"
    path.write_text("p | -#.\n-p.\n")
    assert main(["prove", str(path)]) == 2
    assert capsys.readouterr().err == "error: 1:6: expected atom, found '#'\n"
    assert not os.path.exists(str(path) + ".proof")
    for trace in ("start 0 {}\n", "start 1 {}\next 0 {} -p\n"):
        proof = tmp_path / "any.proof"
        proof.write_text(trace)
        assert main(["check", str(proof), str(path)]) == 2
        assert capsys.readouterr().err == "error: 1:6: expected atom, found '#'\n"


def test_deep_problem_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.p"
    deep.write_text("p(" + "f(" * 30000 + "a" + ")" * 30001 + ".\n-p(X).\n")
    assert main(["prove", str(deep)]) == 2
    assert "nest deeper" in capsys.readouterr().err


def test_directory_and_non_utf8_inputs_exit_two(problem, tmp_path, capsys):
    binary = tmp_path / "latin1.p"
    binary.write_bytes(b"p(caf\xe9).\n")
    proof = tmp_path / "x.proof"
    proof.write_text("start 0 {}\n")
    cases = [
        ["prove", str(tmp_path)],
        ["prove", str(binary)],
        ["check", str(binary), problem],
        ["check", str(proof), str(binary)],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_desk_ini_sets_every_option_once():
    text = (INI_DIR / "desk.ini").read_text(encoding="utf-8")
    keys = [line.partition("=")[0].strip() for line in text.splitlines() if "=" in line]
    assert sorted(keys) == sorted(f.name for f in fields(Config))


def test_removed_options_are_refused():
    with pytest.raises(ConfigError):
        from_ini("seed = 0\n")
    with pytest.raises(ConfigError):
        from_ini("eager_reduction = auto\n")
    assert main(["config", "-s", "seed=0"]) == 2


def test_out_of_range_values_are_refused(problem, capsys):
    bad = [
        "feature_dim=0", "feature_dim=-3", "path_limit=-5", "rounds=-1",
        "time_limit_s=nan", "time_limit_s=inf", "eta=-inf", "discount=nan",
        "time_limit_s=0", "temperature=0", "temperature=-2.0",
        # only the spellings `mctab config` prints
        "inference_limit=1_000", "inference_limit=\u0663", "feature_dim=+5",
        "rewrite=yes", "rewrite=TRUE", "eta=1_0.5", "eta=\u0660.5",
    ]
    for pair in bad:
        with pytest.raises(ConfigError):
            apply_overrides(Config(), [pair])
        capsys.readouterr()
        assert main(["prove", problem, "-s", pair]) == 2, pair
        assert capsys.readouterr().err.startswith("error: "), pair
    cfg = apply_overrides(Config(), ["inference_limit=0", "bigstep_freq=0", "discount=0"])
    assert (cfg.inference_limit, cfg.bigstep_freq, cfg.discount) == (0, 0, 0.0)


def test_max_depth_is_bounded_above(problem, capsys):
    """A tree is built one recursive call per level, so its depth has a
    ceiling below the interpreter's recursion limit."""
    assert apply_overrides(Config(), ["max_depth=64"]).max_depth == 64
    assert main(["prove", problem, "-s", "max_depth=65"]) == 2
    assert capsys.readouterr().err == "error: out-of-range value for max_depth: '65'\n"
    assert main(["prove", problem, "-s", f"max_depth={10**30}"]) == 2
    assert capsys.readouterr().err == f"error: out-of-range value for max_depth: '{10**30}'\n"


def test_a_discount_above_one_is_refused(tmp_path, capsys):
    """A discount factor lies in [0, 1]; a larger one would overflow
    `discount**k` in the value target of an extracted row."""
    assert apply_overrides(Config(), ["discount=1"]).discount == 1.0
    chain = tmp_path / "eq_chain_4.p"
    chain.write_bytes((Path(corpus_dir()) / "eq_chain_4.p").read_bytes())
    chain = str(chain)
    for argv in (["prove", chain], ["bench", *FAST]):
        assert main([*argv, "-s", "discount=1e200"]) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: out-of-range value for discount: '1e200'\n", argv
    ini = tmp_path / "f.ini"
    ini.write_text("[mctab]\ndiscount = 1.5\n", encoding="utf-8")
    assert main(["prove", chain, "--config", str(ini)]) == 2
    assert capsys.readouterr().err == "error: line 2: out-of-range value for discount: '1.5'\n"


def test_malformed_model_file_exits_two(problem, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("GBT v1 dim=10 eta=0.3 base=0.0\nN x 0.5 L L 0.1 L 0.2\n")
    assert main(["prove", problem, "--value-model", str(bad), *FAST]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    bad.write_text("GBT v1 dim=10 eta=0.3 base=0.0\nN 3 0.5 L L nan L 0.2\n")
    assert main(["prove", problem, "--policy-model", str(bad), *FAST]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: non-finite number ")
    # finite numbers, yet eta times a leaf overflows: every prior would be NaN
    bad.write_text("GBT v1 dim=10000 eta=1e300 base=0.0\nN 3 0.5 L L 0.1 L 1e300\n")
    assert main(["prove", problem, "--policy-model", str(bad), *FAST]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: leaf weights scaled by eta ")


DESK = ["--config", str(INI_DIR / "desk.ini")]


@pytest.fixture
def model_dim10(tmp_path):
    """A valid model whose dimension is not desk.ini's feature_dim of 10000."""
    path = tmp_path / "dim10.model"
    path.write_text("GBT v1 dim=10 eta=0.3 base=0.0\nN 3 0.5 L L 0.1 L 0.2\n")
    return str(path)


def test_prove_refuses_a_model_of_another_dimension_before_searching(
    model_dim10, tmp_path, capsys
):
    problem = tmp_path / "chain2.p"
    problem.write_text((Path(corpus_dir()) / "chain2.p").read_text())
    assert main(["prove", str(problem), "--value-model", model_dim10, *DESK]) == 2
    assert capsys.readouterr() == (
        "", "error: feature dimension 10000 does not match model 10\n")
    assert not os.path.exists(str(problem) + ".proof")


def test_prove_refuses_a_model_header_without_its_keys_before_searching(
    tmp_path, monkeypatch, capsys
):
    problem = tmp_path / "chain2.p"
    problem.write_text((Path(corpus_dir()) / "chain2.p").read_text())
    keyless = tmp_path / "keyless.model"
    keyless.write_text("GBT v1 10000 0.3 0.5\n")
    monkeypatch.setattr(loop, "search_problem", lambda *args, **kw: pytest.fail("searched"))
    assert main(["prove", str(problem), "--value-model", str(keyless), *DESK]) == 2
    assert capsys.readouterr() == (
        "", "error: line 1: bad model header: 'GBT v1 10000 0.3 0.5'\n")
    assert not os.path.exists(str(problem) + ".proof")


def test_bench_refuses_a_model_of_another_dimension_before_any_result(model_dim10, capsys):
    assert main(["bench", "--policy-model", model_dim10, *DESK]) == 2
    assert capsys.readouterr() == (
        "", "error: feature dimension 10000 does not match model 10\n")


def test_a_rerun_into_one_out_directory_equals_a_fresh_run(tmp_path):
    problems = tmp_path / "probs"
    problems.mkdir()
    for name in ("app_a.p", "chain2.p", "twopath_03.p", "unsat_quick.p"):
        (problems / name).write_text((Path(corpus_dir()) / name).read_text())
    starved = ["-s", "inference_limit=1", "-s", "single_action_optim=off"]

    def loop_into(out, *args):
        assert main(["loop", str(problems), "--out", str(out), *DESK, *args]) == 0
        return {str(f.relative_to(out)): f.read_bytes() if f.is_file() else None
                for f in sorted(out.rglob("*"))}

    first = loop_into(tmp_path / "rerun")
    assert "iter0/proofs/chain2.p.proof" in first and "iter0/policy.model" in first
    assert loop_into(tmp_path / "rerun", *starved) == loop_into(tmp_path / "fresh", *starved)

    # fewer iterations, a problem gone, and a file no loop writes, which stays
    assert "iter1/report.tsv" in first and "iter0/proofs/app_a.p.proof" in first
    assert loop_into(tmp_path / "rerun") == first
    (problems / "app_a.p").unlink()
    (tmp_path / "rerun" / "iter1" / "notes.txt").write_text("kept\n")
    rerun = loop_into(tmp_path / "rerun", "--iterations", "1")
    fresh = loop_into(tmp_path / "fresh1", "--iterations", "1")
    assert rerun == {**fresh, "iter1": None, "iter1/notes.txt": b"kept\n"}


def test_bench_at_desk_settings_prints_the_recorded_bytes(capsys):
    # a declared behaviour change re-records the hash
    assert main(["bench", *DESK]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "# proved\t27/35\tinferences\t4139\tplayouts\t3505\tbigsteps\t30"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f63b1bfcc9319c6358e202c4f5339e711bfe145e7b8412f808b916955f143fce")


def test_train_names_the_faulty_dataset_entry(tmp_path, capsys):
    data = tmp_path / "d.data"
    model_out = tmp_path / "d.model"
    for row, message in (("0.5 -1:0.5", "bad feature index '-1'"),
                         ("1.0 5", "malformed entry '5'"),
                         # one number grammar: ASCII digits, no `_`, as `repr` writes
                         ("0.5 1_0:1.0", "bad feature index '1_0'"),
                         ("0.5 \u0663\u0663:2.0", "bad feature index '\u0663\u0663'"),
                         ("1.0 a:1.0", "bad feature index 'a'"),
                         ("\u0663.\u0665 1:1.0", "bad number '\u0663.\u0665'"),
                         ("0.5 1:1_0.5", "bad number '1_0.5'"),
                         ("0.5 3:1.0:2", "bad number '1.0:2'")):
        data.write_text(row + "\n")
        assert main(["train", str(data), str(model_out), "-s", "feature_dim=10"]) == 2
        assert capsys.readouterr().err == f"error: line 1: {message}\n"
        assert not model_out.exists()


def test_train_refuses_a_non_finite_target(tmp_path, capsys):
    # an inf target would train a model with base=inf, which no one could load
    data = tmp_path / "d.data"
    data.write_text("0.5 0:1.0\ninf 0:2.0\n-0.5 1:1.0\n")
    model_out = tmp_path / "d.model"
    assert main(["train", str(data), str(model_out), "-s", "feature_dim=10"]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: non-finite number 'inf'")
    assert not model_out.exists()


def test_prove_under_a_deeply_nested_model(problem, tmp_path):
    deep = tmp_path / "deep.model"
    deep.write_text(deep_model_text(30000, Config().feature_dim))
    assert main(["prove", problem, "--value-model", str(deep), *FAST]) == 0


def test_config_roundtrip_and_unknown_keys():
    cfg = Config(inference_limit=123, rewrite=False, guided_reduction=True)
    text = to_ini(cfg)
    back = from_ini(text)
    assert back == cfg
    with pytest.raises(ConfigError):
        from_ini("definitely_not_a_key = 1\n")
    with pytest.raises(ConfigError):
        from_ini("inference_limit = soon\n")


def test_ini_skips_blank_lines_comments_and_section_headers():
    settings = "inference_limit = 77\nrewrite = off\neta = 0.5\n"
    noisy = ("[mctab]\ninference_limit = 77\n\n# eta = 0.1\nrewrite = off\n"
             "   ; rounds = 3\n% patience = 4\n\t\neta = 0.5\n")
    assert from_ini(noisy) == from_ini(settings) != Config()


def test_ini_value_errors_name_their_line(tmp_path, capsys):
    cases = [
        ("rewrite = maybe\n", "line 1: bad boolean for rewrite: 'maybe'"),
        ("[mctab]\neta = 0.3\nrounds = x\n", "line 3: bad value for rounds: 'x'"),
        ("eta = -1\n", "line 1: out-of-range value for eta: '-1'"),
        ("inference_limit = 1_000\n", "line 1: bad value for inference_limit: '1_000'"),
        ("inference_limit = \u0663\n", "line 1: bad value for inference_limit: '\u0663'"),
        ("feature_dim = +5\n", "line 1: bad value for feature_dim: '+5'"),
        ("rewrite = yes\n", "line 1: bad boolean for rewrite: 'yes'"),
        ("rewrite = TRUE\n", "line 1: bad boolean for rewrite: 'TRUE'"),
        ("inference_limit = 10\n[mctab]\n inference_limit = 20\n",
         "line 3: inference_limit is already set on line 1"),
    ]
    ini = tmp_path / "f.ini"
    for text, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            from_ini(text)
        ini.write_text(text, encoding="utf-8")
        assert main(["config", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_config_subcommand_prints_ini(capsys):
    assert main(["config", "-s", "inference_limit=7"]) == 0
    out = capsys.readouterr().out
    assert "inference_limit = 7" in out
    assert from_ini(out).inference_limit == 7


def test_prove_deterministic_output(problem, tmp_path, capsys):
    first = tmp_path / "first.proof"
    second = tmp_path / "second.proof"
    assert main(["prove", problem, "--proof-out", str(first), *FAST]) == 0
    out1 = capsys.readouterr().out
    assert main(["prove", problem, "--proof-out", str(second), *FAST]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert first.read_bytes() == second.read_bytes()


def test_bundled_corpus_present():
    names = sorted(os.listdir(corpus_dir()))
    assert len([n for n in names if n.endswith(".p")]) >= 20
    for required in ("eq_chain_2.p", "eq_chain_4.p", "eq_chain_8.p", "eq_chain_16.p"):
        assert required in names


def test_config_defaults_match_reference_hyperparameters():
    cfg = Config()
    assert cfg.inference_limit == 200000
    assert cfg.time_limit_s == 200.0
    assert cfg.bigstep_freq == 2000
    assert cfg.cp_initial == 3.0
    assert cfg.cp_later == 2.0
    assert cfg.feature_dim == 10000
    assert cfg.path_limit == 1000
    assert cfg.discount == 0.99
    assert cfg.temperature == 2.0
    assert cfg.eta == 0.3
    assert cfg.max_depth == 9
    assert cfg.reg_lambda == 1.5
    assert cfg.rounds == 400
    assert cfg.patience == 50
    assert cfg.single_action_optim and cfg.limited_policy and cfg.all_proofsteps


def test_a_setting_without_an_equals_sign_is_refused(capsys):
    with pytest.raises(ConfigError, match="^line 2: expected key = value, got 'rewrite'$"):
        from_ini("[mctab]\nrewrite\n")
    assert main(["config", "-s", "rewrite"]) == 2
    assert capsys.readouterr().err == "error: override must look like key=value: 'rewrite'\n"
