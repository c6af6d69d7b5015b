import functools
import gc
import itertools
import os
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mctab import gbt
from mctab.calculus import format_proof
from mctab.checker import (
    CheckResult,
    GroundClauseSet,
    Rew,
    TraceError,
    check_proof_texts,
    check_unsat,
    expand_rewrite,
    parse_trace,
)
from mctab.cli import corpus_dir
from mctab.config import Config, load_config
from mctab.guidance import DefaultGuidance
from mctab.loop import read_problems, run_loop, solve_one
from mctab.mcts import search_problem
from mctab.problems import MAX_TERM_DEPTH, parse_problem
from mctab.terms import App, Literal, Var

from helpers import (
    default_recursion_limit,
    random_eq_matrix,
    random_matrix,
    reference_dpll,
    reference_parse_trace,
)

APP_A = "-p(X).\np(Y) | -q(a).\nq(a).\n"
DESK_INI = os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini")


def prove(text, **cfg_kw):
    cfg_kw.setdefault("rewrite", False)
    cfg_kw.setdefault("path_limit", 50)
    cfg = Config(**cfg_kw)
    m = parse_problem(text)
    res = search_problem(m, DefaultGuidance(), cfg)
    assert res.outcome == "proved", text
    return format_proof(res.proof, res.proof_subst)


def lit(positive, pred, *args):
    return Literal(positive, pred, tuple(args))


# ---------------------------------------------------------------------------
# check_unsat / DPLL

def test_canonical_unsat_set():
    # {P}, {-P, Q}, {-Q} is unsatisfiable, and unsatisfiability is invariant
    # under the polarity swap applied during translation
    g = GroundClauseSet()
    g.add_clause([lit(True, "p")])
    g.add_clause([lit(False, "p"), lit(True, "q")])
    g.add_clause([lit(False, "q")])
    unsat, _ = check_unsat(g)
    assert unsat
    g2 = GroundClauseSet()
    g2.add_clause([lit(False, "p")])
    g2.add_clause([lit(True, "p"), lit(False, "q")])
    g2.add_clause([lit(True, "q")])
    unsat2, _ = check_unsat(g2)
    assert unsat2


def test_single_clause_satisfiable_with_witness():
    g = GroundClauseSet()
    g.add_clause([lit(False, "p")])  # swapped: {p}
    unsat, witness = check_unsat(g)
    assert not unsat
    assert witness == {"p": True}


def test_empty_clause_unsatisfiable():
    g = GroundClauseSet()
    g.add_clause([])
    unsat, _ = check_unsat(g)
    assert unsat


def truth_table_unsat(clauses, nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        ok = True
        for clause in clauses:
            if not any((l > 0) == bits[abs(l) - 1] for l in clause):
                ok = False
                break
        if ok:
            return False
    return True


def random_cnf(rng, max_vars=8):
    nvars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, 2 * nvars)):
        width = rng.randint(1, min(4, nvars))
        vs = rng.sample(range(1, nvars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses, nvars


def test_dpll_agrees_with_truth_table():
    from mctab.checker import _dpll

    rng = random.Random(9)
    for _ in range(300):
        clauses, nvars = random_cnf(rng)
        model = _dpll([list(c) for c in clauses], {})
        assert (model is None) == truth_table_unsat(clauses, nvars)
        # a witness may leave variables out; its assigned ones alone must make
        # a literal of every clause true, so that any completion is a model
        if model is not None:
            for clause in clauses:
                assert any(model.get(abs(l)) == (l > 0) for l in clause)
        # the same through `check_unsat`, whose witness names the atoms
        g = GroundClauseSet()
        for clause in clauses:
            g.add_clause([lit(l < 0, f"x{abs(l)}") for l in clause])  # swapped
        unsat, witness = check_unsat(g)
        assert unsat == (model is None)
        if witness is not None:
            for clause in clauses:
                assert any(witness.get(f"x{abs(l)}") == (l > 0) for l in clause)


def test_dpll_finds_the_recursive_search_model():
    from mctab.checker import _dpll

    rng = random.Random(10)
    for _ in range(500):
        clauses, _ = random_cnf(rng, max_vars=12)
        model = _dpll([list(c) for c in clauses], {})
        expected = reference_dpll([list(c) for c in clauses], {})
        assert model == expected and list(model or ()) == list(expected or ())


def frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_dpll_depth_is_not_bounded_by_the_recursion_limit():
    """400 pairs (x_i or y_i), (not x_i or not y_i) need 400 nested
    decisions; the search gets 200 frames above the caller's depth."""
    g = GroundClauseSet()
    for i in range(400):
        g.add_clause([lit(False, f"x{i}"), lit(False, f"y{i}")])  # swapped: x_i | y_i
        g.add_clause([lit(True, f"x{i}"), lit(True, f"y{i}")])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 200)
    try:
        unsat, witness = check_unsat(g)
    finally:
        sys.setrecursionlimit(limit)
    assert not unsat and len(witness) == 800
    assert all(witness[f"x{i}"] != witness[f"y{i}"] for i in range(400))


# ---------------------------------------------------------------------------
# full proofs

def test_three_clause_proof_accepted():
    trace = prove(APP_A)
    res = check_proof_texts(trace, APP_A)
    assert res.ok, res.message


def test_mutation_battery_rejected():
    trace = prove(APP_A)
    lines = trace.strip().splitlines()
    ext_idx = next(i for i, l in enumerate(lines) if l.startswith("ext"))

    def reject(mutated_lines, why):
        res = check_proof_texts("\n".join(mutated_lines) + "\n", APP_A)
        assert not res.ok, why

    # polarity flip on the extension goal literal
    fields = lines[ext_idx].split()
    fields[-1] = fields[-1][1:] if fields[-1].startswith("-") else "-" + fields[-1]
    reject(lines[:ext_idx] + [" ".join(fields)] + lines[ext_idx + 1 :], "polarity flip")

    # clause id swap
    fields = lines[ext_idx].split()
    fields[1] = "0" if fields[1] != "0" else "2"
    reject(lines[:ext_idx] + [" ".join(fields)] + lines[ext_idx + 1 :], "clause id swap")

    # substitution corruption: rebind every variable to a junk constant
    corrupted = []
    for line in lines:
        out = line
        if "{" in line and "{}" not in line:
            head, _, rest = line.partition("{")
            body, _, tail = rest.partition("}")
            names = [b.partition("=")[0] for b in body.split(",")]
            out = head + "{" + ",".join(f"{n}=zzz" for n in names) + "}" + tail
        corrupted.append(out)
    assert corrupted != lines
    reject(corrupted, "substitution corruption")

    # dropped proof clause breaking unsatisfiability
    reject(lines[:ext_idx] + lines[ext_idx + 1 :], "dropped clause")


def test_rewrite_proof_accepted():
    text = "p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n"
    trace = prove(text, rewrite=True)
    assert any(line.startswith("rew") for line in trace.splitlines())
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_checking_a_rewrite_proof_leaves_no_reference_cycle():
    text = "p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n"
    trace = prove(text, rewrite=True)
    gc.collect()
    gc.disable()
    try:
        assert check_proof_texts(trace, text).ok
        assert gc.collect() == 0  # reference counting freed everything the check made
    finally:
        gc.enable()


def no_cycle_after(call, *args):
    """`call(*args)` with the collector disabled, so a collector unit inside
    it does nothing; reference counting must then free all that it drops.
    What exists before the call is frozen, so the collection after it
    scans, and counts, only what the call made."""
    gc.disable()
    gc.freeze()
    try:
        call(*args)
        assert gc.collect() == 0, f"{call.__name__}{args[:1]} made a reference cycle"
    finally:
        gc.unfreeze()
        gc.enable()


@pytest.fixture(scope="module")
def one_iteration(tmp_path_factory):
    """A 1-iteration desk.ini loop at 1000 inferences: its directory and config."""
    cfg = load_config(DESK_INI, ["inference_limit=1000"])
    out = tmp_path_factory.mktemp("loop")
    run_loop(corpus_dir(), 1, str(out), cfg)
    return out / "iter0", cfg


def test_searching_the_corpus_leaves_no_reference_cycle(one_iteration):
    """The premise of `loop.collector_unit`: the prover makes no reference
    cycles, so pausing the cyclic collector over a search loses nothing."""
    out, cfg = one_iteration
    models = [gbt.load(str(out / f"{kind}.model")) for kind in ("value", "policy")]
    desk = load_config(DESK_INI)
    for name, text in read_problems(corpus_dir()).items():
        no_cycle_after(solve_one, name, text, desk)
        no_cycle_after(solve_one, name, text, cfg, *models)


def test_seeded_random_searches_leave_no_reference_cycle():
    def search(make, rng, cfg):
        return solve_one("random.p", make(rng)[1], cfg)

    for make, rewrite in ((random_matrix, False), (random_eq_matrix, True)):
        rng = random.Random(3)
        cfg = Config(rewrite=rewrite, inference_limit=150, bigstep_freq=10, path_limit=50)
        for _ in range(50):
            no_cycle_after(search, make, rng, cfg)


def test_training_leaves_no_reference_cycle(one_iteration):
    out, cfg = one_iteration
    for kind in ("value", "policy"):
        data = gbt.load_dataset(str(out / f"{kind}.data"), cfg.feature_dim)
        no_cycle_after(gbt.train, data, cfg)


def test_rewrite_rl_direction_accepted():
    # the rule is stored as h(Z)=g(Z), so rewriting g(a) needs direction RL
    text = "p(g(a)).\nh(Z)!=g(Z) | -q(Z).\n-p(h(a)).\nq(a).\n"
    trace = prove(text, rewrite=True)
    assert any(" RL " in line for line in trace.splitlines())
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_variable_source_rewrite_accepted():
    # X -> f(X) is no rewrite rule, so the search never offers this step,
    # but the step is sound and the checker accepts it
    text = "p(a).\nf(X)!=X.\n-p(f(a)).\n"
    assert parse_problem(text).rewrite_rules == [(1, 0, "LR", App("f", (Var(0),)), Var(0))]
    trace = "start 0 {}\nrew 1 {X=a} f(a)!=a RL p(a) p(f(a))\next 2 {} p(f(a))\n"
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_nested_rewrite_position_accepted():
    # rewrite two levels deep: k(f(g(a))) with a=b
    text = "k(f(g(a))).\na!=b.\n-k(f(g(b))).\n"
    trace = prove(text, rewrite=True)
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_rewrite_side_literal_obligation():
    # corrupting the side literal of a conditional rewrite must be caught
    text = "p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n"
    trace = prove(text, rewrite=True)
    lines = trace.strip().splitlines()
    rew_idx = next(i for i, l in enumerate(lines) if l.startswith("rew"))
    fields = lines[rew_idx].split()
    fields[-1] = "-q(b)"  # obligation no longer matches the instance
    mutated = "\n".join(lines[:rew_idx] + [" ".join(fields)] + lines[rew_idx + 1 :]) + "\n"
    res = check_proof_texts(mutated, text)
    assert not res.ok


def test_a_rewrite_three_levels_below_its_argument_root_is_one_instance():
    # b is rewritten to a right to left inside h(f(g(.))), and the step
    # stands for the one replacement instance a=b -> (p(..b..) -> p(..a..))
    text = "p(h(f(g(b)))).\na!=b.\n-p(h(f(g(a)))).\n"
    trace = prove(text, rewrite=True)
    assert "rew 1 {} a!=b RL p(h(f(g(b)))) p(h(f(g(a))))" in trace.splitlines()
    assert check_proof_texts(trace, text).ok
    (step,) = [s for s in parse_trace(trace)[0] if isinstance(s, Rew)]
    a, b = App("a"), App("b")
    h_f_g = [App("h", (App("f", (App("g", (t,)),)),)) for t in (a, b)]
    assert expand_rewrite(step, [lit(False, "=", a, b)]) == [
        lit(True, "=", a, b), lit(True, "p", h_f_g[0]), lit(False, "p", h_f_g[1])]


def test_a_refutation_through_a_congruence_atom_no_step_reaches_is_rejected():
    """The rewrite's instance a=b -> (p(f(a)) -> p(f(b))) leaves this set
    satisfiable: only the chain of congruences it resolves from holds the
    atom f(a)=f(b) of the start clause, and no step closes the rewritten
    goal p(f(b))."""
    res = check_proof_texts("start 0 {}\nrew 1 {} a!=b LR p(f(a)) p(f(b))\n",
                            "f(a)=f(b).\na!=b.\n")
    assert (res.ok, res.message, res.step) == (
        False, "instance set is propositionally satisfiable", None)


def test_each_rejection_names_its_step():
    text = "p(g(a)).\ng(Z)!=h(Z) | -q(Z).\n-p(h(a)).\nq(a).\n"
    trace = "start 0 {}\nrew 1 {Z=a} %s\next 2 {} p(h(a))\next 3 {} -q(a)\n"
    assert check_proof_texts(trace % "g(a)!=h(a) LR p(g(a)) p(h(a)) -q(a)", text).ok
    for fields, why in (
        ("g(a)!=h(a) UD p(g(a)) p(h(a)) -q(a)", "bad rewrite direction 'UD'"),
        ("g(a)=h(a) LR p(g(a)) p(h(a)) -q(a)",
         "rewrite equation must be a negative equality literal"),
        ("g(b)!=h(b) LR p(g(b)) p(h(b)) -q(b)",
         "rewrite equation does not occur in the clause instance"),
        ("g(a)!=h(a) LR p(g(a)) p(h(a)) -q(a) -q(a)",  # sides are a multiset
         "rewrite side literals do not match the clause instance"),
        ("g(a)!=h(a) LR p(g(a)) -p(h(a)) -q(a)", "rewrite changes the goal's predicate or polarity"),
        ("g(a)!=h(a) RL p(g(a)) p(h(a)) -q(a)",
         "no position turns the goal before into the goal after"),
    ):
        assert check_proof_texts(trace % fields, text) == CheckResult(
            False, f"malformed rewrite step: {why}", 1), fields
    assert check_proof_texts("start 4 {}\n", text) == CheckResult(
        False, "clause reference out of range", 0)
    proof = "start 2 {}\next 1 {Y=_1} q(a)\next 0 {X=_1} p(_1)\n"
    assert check_proof_texts(proof + "red -p(a) -p(a)\n", APP_A) == CheckResult(
        False, "reduction literals are not complementary", 3)
    assert check_proof_texts(proof + "lem q(b)\n", APP_A) == CheckResult(
        False, "lemma literal was never solved before", 3)


def test_start_marker_proof_accepted():
    text = "# | -q(a).\nq(a).\n"
    trace = prove(text)
    res = check_proof_texts(trace, text)
    assert res.ok, res.message
    for name, proof in (("hash_start.p", "start 0 {}\next 1 {} -q(a)\n"),
                        ("mixed_start.p", "start 0 {}\next 1 {} -p(a)\next 2 {} q(b)\n")):
        assert corpus_proof(name)[0] == proof
        assert check_proof_texts(proof, corpus_text(name)).ok, name
    # a witness names the atoms of the clauses' literals, and the mark is none
    assert check_proof_texts("start 0 {}\n", text) == CheckResult(
        False, "instance set is propositionally satisfiable", None, {"q(a)": True})


def test_reduction_proof_accepted():
    text = "-a | -b.\na | -r.\nb | -r.\nr.\n"
    trace = prove(text)
    assert any(line.startswith("red") for line in trace.splitlines())
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_lemma_proof_accepted():
    text = "-a.\na | a | -c.\nc.\n"
    trace = prove(text)
    res = check_proof_texts(trace, text)
    assert res.ok, res.message


def test_prover_emitted_proofs_always_accepted_on_random_matrices():
    """Every proof the search emits on seeded random matrices is accepted;
    a search that raises fails the test."""
    for make, count, rewrite in ((random_matrix, 60, False), (random_eq_matrix, 200, True)):
        rng = random.Random(20)
        cfg = Config(rewrite=rewrite, inference_limit=150, bigstep_freq=10, path_limit=50)
        traces = []
        for _ in range(count):
            m, text = make(rng)
            res = search_problem(m, DefaultGuidance(), cfg)
            if res.outcome != "proved":
                continue
            trace = format_proof(res.proof, res.proof_subst)
            check = check_proof_texts(trace, text)
            assert check.ok, (text, trace, check.message)
            traces.append(trace)
        # the battery must actually exercise proofs, and rewrite steps with rewriting on
        assert len(traces) >= 5
        assert rewrite == any(l.startswith("rew ") for t in traces for l in t.splitlines())


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def _emitted_proofs_are_accepted(seed, rewrite):
    m, text = (random_eq_matrix if rewrite else random_matrix)(random.Random(seed))
    cfg = Config(rewrite=rewrite, inference_limit=150, bigstep_freq=10, path_limit=50)
    res = search_problem(m, DefaultGuidance(), cfg)
    if res.outcome == "proved":
        trace = format_proof(res.proof, res.proof_subst)
        check = check_proof_texts(trace, text)
        assert check.ok, (text, trace, check.message)


def test_emitted_proofs_are_accepted(hypothesis_home):
    _emitted_proofs_are_accepted()


def nested(symbol: str, depth: int, inner: str) -> str:
    return f"{symbol}(" * depth + inner + ")" * depth


def test_a_literal_at_the_depth_bound_is_parsed_proved_and_checked():
    """A literal exactly MAX_TERM_DEPTH deep, the deepest the parser takes
    and the prover keeps, goes through the one path from problem text to
    checked proof under the interpreter's default recursion limit."""
    deepest = nested("f", MAX_TERM_DEPTH - 2, "a")
    text = f"p({deepest}).\n-p(X) | q(X).\n-q({deepest}).\n"
    cfg = load_config(os.path.join(os.path.dirname(corpus_dir()), "ini", "desk.ini"))
    with default_recursion_limit():
        stats, proof, _, _ = solve_one("deepest", text, cfg)
    assert stats.outcome == "proved"
    assert f"{{X={deepest}}}" in proof


def test_an_instance_twice_the_depth_bound_gets_a_verdict():
    """A clause variable MAX_TERM_DEPTH - 1 deep bound to a term
    MAX_TERM_DEPTH deep: the checker's instances nest about twice the bound,
    and every walk over them fits the default recursion limit."""
    text = f"p({nested('f', MAX_TERM_DEPTH - 2, 'X')}).\n-p({nested('f', MAX_TERM_DEPTH - 2, 'Y')}).\n"
    deep = nested("g", MAX_TERM_DEPTH - 1, "a")
    with default_recursion_limit():
        satisfiable = check_proof_texts(f"start 0 {{X={deep}}}\n", text)
        unconnected = check_proof_texts(f"start 0 {{X={deep}}}\next 1 {{Y={deep}}} q\n", text)
    assert satisfiable.message == "instance set is propositionally satisfiable"
    assert unconnected.message == "extension goal is not connected to the clause instance"


def test_trace_parse_errors():
    import pytest

    with pytest.raises(TraceError):
        parse_trace("")
    with pytest.raises(TraceError):
        parse_trace("bogus 1 {}\n")
    with pytest.raises(TraceError):
        parse_trace("ext 1 {X=} q(a)\n")
    # a substitution is `{}` or `{Name=term,...}`, with no trailing comma
    for theta in ("{X=a,}", "{,X=a}", "{X=a=b}", "{X!=a}", "{=a}"):
        with pytest.raises(TraceError, match="line 2: "):
            parse_trace(f"start 2 {{}}\next 0 {theta} p(a)\n")
    # a clause id is ASCII decimal digits
    for cid in ("1_0", "\u0663", "+3"):
        with pytest.raises(TraceError, match=re.escape(f"line 1: bad clause id '{cid}'")):
            parse_trace(f"start {cid} {{}}\n")
    # a literal field has the one spelling `format_literal` writes
    res = check_proof_texts("start 2 {}\next 1 {Y=_1} -(a=b)\n", APP_A)
    assert not res.ok and res.message.startswith("trace parse error: line 2: 1:2:")
    # the start mark is no atom; a `red` step adds no clause, so this one
    # was once accepted
    res = check_proof_texts("start 0 {}\next 1 {} -q(a)\nred # -#\n", "# | -q(a).\nq(a).\n")
    assert res == CheckResult(False, "trace parse error: line 3: 1:1: expected atom, found '#'")


def test_a_trace_has_no_comment_lines():
    """A trace line that starts with `#` is no step, so it is refused like
    any other; only blank lines are skipped."""
    problem = "q.\n-q.\n"
    assert check_proof_texts("start 0 {}\n\next 1 {} q\n", problem).ok
    for parse in (parse_trace, reference_parse_trace):
        with pytest.raises(TraceError, match=re.escape("line 2: unrecognized step '# note'")):
            parse("start 0 {}\n# note\n")
    res = check_proof_texts("start 0 {}\n# note\n", problem)
    assert res == CheckResult(False, "trace parse error: line 2: unrecognized step '# note'")


# ---------------------------------------------------------------------------
# trace contract: bindings and frozen constants

def test_deep_problem_is_a_verdict():
    trace = prove(APP_A)
    deep = APP_A + "r(" + "f(" * 30000 + "a" + ")" * 30001 + ".\n"
    res = check_proof_texts(trace, deep)
    assert not res.ok
    assert res.message.startswith("problem parse error: 4:") and "nest deeper" in res.message


def test_deep_trace_binding_is_a_verdict():
    deep = "f(" * 30000 + "a" + ")" * 30000
    trace = "start 2 {}\next 1 {Y=_1} q(a)\next 0 {X=" + deep + "} p(_1)\n"
    res = check_proof_texts(trace, APP_A)
    assert not res.ok
    assert res.message.startswith("trace parse error: line 3: 1:") and "nest deeper" in res.message


def test_binding_a_name_the_clause_lacks_is_rejected():
    trace = "start 2 {}\next 1 {Y=_1} q(a)\next 0 {Q=zzz,X=_1} p(_1)\n"
    assert check_proof_texts(trace.replace("Q=zzz,", ""), APP_A).ok
    res = check_proof_texts(trace, APP_A)
    assert not res.ok
    assert res.step == 2
    assert "Q" in res.message


def test_binding_a_name_twice_is_a_positioned_trace_error():
    import pytest
    from mctab.checker import TraceError

    trace = "start 2 {}\next 1 {Y=_1} q(a)\next 0 {X=zzz,X=_1} p(_1)\n"
    with pytest.raises(TraceError, match="line 3: X is bound twice"):
        parse_trace(trace)
    res = check_proof_texts(trace, APP_A)
    assert not res.ok and "line 3" in res.message


def test_witness_numbers_trace_variables_by_first_occurrence():
    text = "-p(X) | q(Y).\np(Z).\n"
    trace = "start 0 {X=_B,Y=_A}\next 1 {Z=_B} -p(_B)\n"
    res = check_proof_texts(trace, text)
    assert not res.ok
    assert res.witness == {"p(_sk0)": False, "q(_sk1)": False}


def test_left_out_clause_variable_gets_a_fresh_constant():
    text = "-p(X) | q(Y).\np(Z).\n"
    # Y is left out: its constant continues the count after _V's _sk0
    trace = "start 0 {X=_V}\next 1 {Z=_V} -p(_V)\n"
    res = check_proof_texts(trace, text)
    assert res.message == "instance set is propositionally satisfiable"
    assert res.witness == {"p(_sk0)": False, "q(_sk1)": False}
    proof = "start 2 {}\next 1 {Y=_1} q(a)\next 0 {X=_1} p(_1)\n"
    # a fresh constant is none of the trace's, so it cannot close a goal
    res = check_proof_texts(proof.replace("{X=_1}", "{}"), APP_A)
    assert (res.ok, res.step) == (False, 2)
    # a step the refutation does not need may leave its variables out
    assert check_proof_texts(proof + "ext 1 {} q(a)\n", APP_A).ok


def test_a_trace_describes_one_tableau_from_its_first_step():
    """Each trace below is a sound refutation of its instances, yet no
    tableau: one `start` step, the first, roots a tableau."""
    text = "p(f(X)).\n-p(f(Y)).\n"
    for trace, step, message in (
        ("start 0 {X=t}\nstart 1 {Y=t}\n", 1, "a second start step"),
        ("ext 0 {X=t} -p(f(t))\nstart 1 {Y=t}\n", 0, "the first step is not a start step"),
    ):
        assert check_proof_texts(trace, text) == CheckResult(False, message, step)
    assert check_proof_texts("start 0 {X=t}\next 1 {Y=t} p(f(t))\n", text).ok


# ---------------------------------------------------------------------------
# mutated traces

# their proofs hold every kind of step: start, ext, red, lem and rew
MUTATED = ("deep_fn.p", "eq_chain_4.p", "ground_red.p", "lemma_use.p", "or_case.p", "twopath_05.p")


@functools.lru_cache(maxsize=None)
def corpus_text(name: str) -> str:
    with open(os.path.join(corpus_dir(), name), "r", encoding="utf-8") as fh:
        return fh.read()


@functools.lru_cache(maxsize=None)
def corpus_proof(name: str) -> tuple:
    """(proof text, problem text) of a corpus problem at the desk settings."""
    cfg = load_config(os.path.join(corpus_dir(), os.pardir, "ini", "desk.ini"))
    text = corpus_text(name)
    trace = solve_one(name, text, cfg)[1]
    assert trace is not None, name
    return trace, text


_edits = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "duplicate")),
        st.integers(0, 500),
        st.integers(1, 12),
        st.text(st.sampled_from(" \n\t(),.!=|-#_{}:abpqXY0129\x00\u00e9"), max_size=12),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300)
@given(st.sampled_from(MUTATED), _edits)
def _mutated_traces_get_a_verdict(name, edits):
    trace, text = corpus_proof(name)
    for kind, at, size, inserted in edits:
        at %= len(trace) + 1
        if kind == "delete":
            trace = trace[:at] + trace[at + size:]
        elif kind == "insert":
            trace = trace[:at] + inserted + trace[at:]
        else:
            trace = trace[:at + size] + trace[at:]
    assert isinstance(check_proof_texts(trace, text), CheckResult)


def test_mutated_traces_get_a_verdict(hypothesis_home):
    _mutated_traces_get_a_verdict()


# ---------------------------------------------------------------------------
# arbitrary trace text

# each step keyword takes its fields in slots: a clause id, a substitution,
# a literal or a direction, each slot drawn well-typed or as free text over
# the trace alphabet, then up to 9 fields in all with free ones appended
_SLOTS = {"start": "it", "ext": "itl", "red": "ll", "lem": "l", "rew": "itldll",
          "bogus": "ll", "": ""}
_free = st.text(st.sampled_from("{}(),=!-_#%abpqfgXYZ0129LR \t\u00e9"), max_size=12)
_typed = {
    "i": st.sampled_from(("0", "1", "2", "3", "-1")),
    "t": st.sampled_from(("{}", "{X=a}", "{Y=_1}", "{X=_1,Y=f(_1)}", "{Z=b}", "{X=a,}")),
    "l": st.sampled_from(("p(a)", "-p(_1)", "q(a)", "-q(a)", "p(_1)", "a=b", "b!=a",
                          "f(a)!=a", "#")),
    "d": st.sampled_from(("LR", "RL")),
}


def _step_line(kind: str):
    slots = [st.one_of(_typed[slot], _free) for slot in _SLOTS[kind]]
    extra = st.lists(_free, max_size=9 - len(slots))
    return st.tuples(*slots, extra).map(lambda f: " ".join((kind, *f[:-1], *f[-1])))


_trace_lines = st.one_of(st.sampled_from(sorted(_SLOTS)).flatmap(_step_line), st.text(max_size=30))


@settings(max_examples=300)
@given(st.lists(_trace_lines, max_size=8).map("\n".join))
def _arbitrary_traces_get_a_verdict(trace):
    for name in ("app_a.p", "eq_chain_4.p"):
        assert isinstance(check_proof_texts(trace, corpus_text(name)), CheckResult)


def test_arbitrary_traces_get_a_verdict(hypothesis_home):
    _arbitrary_traces_get_a_verdict()


def _parsed(parse, trace):
    """The steps and three fresh constants, or the error message."""
    try:
        steps, fresh = parse(trace)
    except TraceError as exc:
        return str(exc)
    return steps, [fresh() for _ in range(3)]


@settings(max_examples=300)
@given(st.lists(_trace_lines, max_size=8).map("\n".join))
def _trace_as_the_reference(trace):
    mine = _parsed(parse_trace, trace)
    ref = _parsed(reference_parse_trace, trace)
    bad_id = re.match(r"line (\d+): bad clause id ", mine) if isinstance(mine, str) else None
    if bad_id is None:
        assert mine == ref
        return
    # the one change: a clause id that is not ASCII digits is refused where
    # `int` read it or refused it with its own message
    lineno = int(bad_id[1])
    cid = trace.splitlines()[lineno - 1].split()[1]
    assert mine == f"line {lineno}: bad clause id {cid!r}"
    assert not (cid.isascii() and cid.isdigit())
    assert not isinstance(ref, str) or int(ref.split(":")[0].split()[1]) >= lineno


def test_trace_as_the_reference(hypothesis_home):
    _trace_as_the_reference()
