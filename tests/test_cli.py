import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schurkit.partitions import Partition, all_partitions
from schurkit.positivity import enumerate_candidates, sxp_upper_bound
from schurkit.verification import ORACLE_TABLE_BUDGET, run_scope

PKG_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, cli_env, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "schurkit", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=cli_env,
        cwd=PKG_ROOT,
        timeout=120,
    )


def payload(result):
    doc = json.loads(result.stdout)
    return doc["output"]


def strip_elapsed(text):
    return re.sub(r'"elapsed_ms": ?[-+0-9.eE]+', '"elapsed_ms": 0', text)


def run_in_process(args):
    import schurkit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = schurkit.cli.main(args)
    return code, out.getvalue(), err.getvalue()


# every flag a kind cannot run without, and argparse's line for it
MISSING_ARGUMENTS = [
    pytest.param(["expand", "product", "-m", "1"],
                 "the following arguments are required: -v/--nu", id="expand-product"),
    pytest.param(["expand", "sxp", "-n", "2"],
                 "the following arguments are required: -l/--lam", id="expand-sxp"),
    pytest.param(["expand", "plethysm", "-v", "1"],
                 "the following arguments are required: -m/--mu", id="expand-plethysm"),
    pytest.param(["filter", "lr"],
                 "the following arguments are required: -m/--mu", id="filter-lr"),
    pytest.param(["filter", "sxp", "-l", "2"],
                 "the following arguments are required: -n", id="filter-sxp"),
    pytest.param(["filter", "plethysm"],
                 "the following arguments are required: -v/--nu", id="filter-plethysm"),
]

# each kind with a flag that only another kind takes
FOREIGN_FLAGS = [
    pytest.param(["expand", "product", "-m", "2", "-v", "1"], ["-n", "3", "-l", "2"],
                 id="expand-product"),
    pytest.param(["expand", "sxp", "-n", "2", "-l", "1"], ["-m", "1"], id="expand-sxp"),
    pytest.param(["expand", "plethysm", "-m", "1", "-v", "1"], ["--candidates"],
                 id="expand-plethysm"),
    pytest.param(["filter", "lr", "-m", "1"], ["--candidates", "-n", "4", "-l", "9"],
                 id="filter-lr"),
    pytest.param(["filter", "sxp", "-n", "2", "-l", "1"], ["-v", "1"], id="filter-sxp"),
    pytest.param(["filter", "plethysm", "-v", "1"], ["-m", "1"], id="filter-plethysm"),
]


def test_import_leaves_out_dataclasses_and_inspect(cli_env):
    # -S: a site .pth file may import either module on its own
    code = ("import sys, schurkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                       text=True, env=cli_env, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


class TestExpand:
    def test_sxp_twelve_terms(self, cli_env):
        r = run_cli(["expand", "sxp", "-n", "2", "-l", "3,2"], cli_env)
        assert r.returncode == 0
        out = payload(r)
        assert out["degree"] == 10
        assert len(out["terms"]) == 12
        assert out["terms"][0] == {"partition": [6, 4], "coeff": "1"}
        assert out["terms"][-1] == {"partition": [3, 3, 2, 2], "coeff": "-1"}
        assert all(t["coeff"] in ("1", "-1") for t in out["terms"])

    def test_product_with_empty_factor(self, cli_env):
        r = run_cli(["expand", "product", "-m", "", "-v", "3,2"], cli_env)
        assert r.returncode == 0
        assert payload(r)["terms"] == [{"partition": [3, 2], "coeff": "1"}]

    def test_plethysm_40_terms(self, cli_env):
        r = run_cli(["expand", "plethysm", "-m", "1,1", "-v", "4,2,2"], cli_env)
        assert r.returncode == 0
        assert len(payload(r)["terms"]) == 40

    def test_parse_error_exit_2(self, cli_env):
        r = run_cli(["expand", "sxp", "-n", "2", "-l", "2,3"], cli_env)
        assert r.returncode == 2

    @pytest.mark.parametrize("args, message", MISSING_ARGUMENTS)
    def test_missing_argument_exit_2(self, cli_env, args, message):
        # --pretty before the subcommand is a root flag and changes nothing here
        r = run_cli(["--pretty", *args], cli_env)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("args, foreign", FOREIGN_FLAGS)
    def test_foreign_flag_exit_2(self, cli_env, args, foreign):
        assert run_cli(args, cli_env, stdin="").returncode == 0
        r = run_cli([*args, *foreign], cli_env, stdin="")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: unrecognized arguments: {' '.join(foreign)}\n"

    @pytest.mark.parametrize("args", [
        pytest.param(["expand", "sxp", "-n", "2", "-l", "2,3"], id="bad-literal"),
        pytest.param(["expand", "sxp", "-n", "two", "-l", "2"], id="bad-int"),
        pytest.param(["expand", "power", "-m", "1", "-v", "1"], id="unknown-kind"),
        pytest.param(["filter"], id="missing-kind"),
        pytest.param([], id="missing-subcommand"),
        pytest.param(["verify", "--scope", "everything"], id="unknown-scope"),
    ])
    def test_usage_error_is_one_line(self, cli_env, args):
        # argparse's own errors leave through main: no usage block
        r = run_cli(args, cli_env)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")
        assert r.stderr.count("\n") == 1 and "usage:" not in r.stderr

    @pytest.mark.parametrize("command, extra, output", [
        ("expand", [], '{"degree":0,"terms":[{"partition":[],"coeff":"1"}]}'),
        ("filter", ["--candidates"],
         '{"xi1":[],"xi2":[],"intersection":[],"candidates":[[]]}'),
    ], ids=["expand", "filter"])
    def test_sxp_of_empty_lambda_any_n(self, command, extra, output):
        # p_n o s_() = s_(): the same bytes for every n, at once
        for n in (1, 2, 3, 4, 5, 6, 1000000):
            started = time.perf_counter()
            code, out, err = run_in_process([command, "sxp", "-n", str(n), "-l", "", *extra])
            assert time.perf_counter() - started < 0.1
            assert (code, err) == (0, "")
            assert strip_elapsed(out) == (
                f'{{"command":"{command}","inputs":{{"kind":"sxp","n":{n},"lam":[]}},'
                f'"output":{output},"elapsed_ms": 0}}\n'
            )

    @pytest.mark.parametrize("command", [
        ["expand", "sxp", "-l", "1"],
        ["filter", "sxp", "-l", "1", "--candidates"],
    ], ids=["expand", "filter"])
    def test_sxp_past_walk_bound_exit_2(self, command):
        from schurkit.quotients import MAX_WALK_N

        for n in (MAX_WALK_N + 1, 1500):
            started = time.perf_counter()
            code, out, err = run_in_process([*command, "-n", str(n)])
            assert time.perf_counter() - started < 0.1
            assert (code, out) == (2, "")
            assert err == f"error: n = {n} is over the quotient walk's bound of {MAX_WALK_N}\n"

    @pytest.mark.parametrize("command", [
        ["expand", "sxp"],
        ["filter", "sxp"],
        ["filter", "sxp", "--candidates"],
    ], ids=["expand", "filter", "filter-candidates"])
    def test_sxp_exponent_below_one_exit_2(self, command):
        for n in (0, -3):
            code, out, err = run_in_process([*command, "-n", str(n), "-l", "1"])
            assert (code, out) == (2, "")
            assert err == "error: plethysm exponent n must be >= 1\n"

    def test_product_too_deep_exit_2(self, cli_env):
        # the LR walk nests a frame per letter, so 990 letters pass the
        # recursion limit; main refuses the input in one line, at once.
        # This pins the `python -m` process: the refusal depends on the
        # caller's stack, and cli.main called in process from a shallow stack
        # returns the 991 terms after about 40 s.  ROADMAP items 9 (the LR
        # walk on an explicit stack) and 11 (tall products walked as their
        # conjugates) own the fix.
        ones = ",".join(["1"] * 990)
        started = time.perf_counter()
        r = run_cli(["expand", "product", "-m", ones, "-v", ones], cli_env)
        assert time.perf_counter() - started < 1
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: the input nests too deep for the walk\n"

    def test_internal_error_exit_1(self, monkeypatch, capsys):
        import schurkit.cli
        import schurkit.schur

        # only the rho = (2) piece of s_2 o s_2 survives, so 1/2 is left on s_2
        def one_piece(rho, nu):
            return {(2,): 1} if rho == (2,) else {}

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", one_piece)
        assert schurkit.cli.main(["expand", "plethysm", "-m", "2", "-v", "2"]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_internal_type_error_is_not_a_usage_error(self, monkeypatch, capsys):
        # only a ValueError is the input's fault; a TypeError is the program's
        import schurkit.cli

        def broken(mus):
            raise TypeError("internal fault")

        monkeypatch.setattr(schurkit.cli, "multi_schur_product", broken)
        with pytest.raises(TypeError, match="internal fault"):
            schurkit.cli.main(["expand", "product", "-m", "2", "-v", "1"])
        assert capsys.readouterr() == ("", "")


class TestFilter:
    def test_lr_theta(self, cli_env):
        r = run_cli(["filter", "lr", "-m", "3,2", "-m", "1,1", "-m", "1,1"], cli_env)
        assert r.returncode == 0
        out = payload(r)
        assert out["theta"] == [5, 4, 2, 2, 1, 1]
        assert out["corner_sum"] == [
            [0, 6], [1, 4], [2, 2], [2, 5], [3, 3], [3, 4], [4, 1], [4, 2], [5, 0],
        ]

    def test_sxp_bounds(self, cli_env):
        r = run_cli(["filter", "sxp", "-n", "2", "-l", "3,2"], cli_env)
        out = payload(r)
        assert out["intersection"] == [8, 5, 3, 2, 1, 1, 1]
        assert out["xi1"] == [8, 5, 3, 2, 2, 1, 1, 1, 1, 1]
        assert out["xi2"] == [10, 5, 3, 2, 1, 1, 1]
        assert "candidates" not in out

    def test_sxp_candidates_flag(self, cli_env):
        r = run_cli(["filter", "sxp", "-n", "2", "-l", "3,2", "--candidates"], cli_env)
        out = payload(r)
        assert len(out["candidates"]) == 22
        assert [6, 4] in out["candidates"]

    def test_sxp_candidates_bytes_match_the_library(self):
        # the CLI prints the candidates from part tuples; its bytes equal the
        # document built from the public bound and Partition candidates
        cases = 0
        for n in range(1, 5):
            for size in range(7):
                for lam in all_partitions(size):
                    literal = ",".join(map(str, lam))
                    argv = ["filter", "sxp", "-n", str(n), "-l", literal, "--candidates"]
                    code, out, err = run_in_process(argv)
                    output = sxp_upper_bound(n, lam).to_json_obj()
                    cands = enumerate_candidates(n, lam)
                    output["candidates"] = [mu.to_list() for mu in cands]
                    inputs = {"kind": "sxp", "n": n, "lam": lam.to_list()}
                    doc = {"command": "filter", "inputs": inputs, "output": output}
                    assert (code, err) == (0, "")
                    got = re.sub(r',"elapsed_ms":[-+0-9.eE]+', "", out)
                    assert got == json.dumps(doc, separators=(",", ":")) + "\n", argv
                    cases += 1
        assert cases == 120

    def test_sxp_empty_lambda(self, cli_env):
        r = run_cli(["filter", "sxp", "-n", "2", "-l", "", "--candidates"], cli_env)
        assert r.returncode == 0
        assert '"candidates":[[]]' in r.stdout
        out = payload(r)
        assert out["intersection"] == []
        assert out["candidates"] == [[]]

    def test_plethysm_stdin_stream(self, cli_env):
        lines = "\n".join(["[4,2,2]", "[16]", "[5,5,3,3]", "[8,4,2,1,1]"]) + "\n"
        r = run_cli(["filter", "plethysm", "-v", "4,2,2"], cli_env, stdin=lines)
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["[4,2,2]", "[5,5,3,3]", "[8,4,2,1,1]"]

    def test_plethysm_stdin_full_degree_16(self, cli_env):
        from schurkit import all_partitions

        lines = "\n".join(json.dumps(p.to_list()) for p in all_partitions(16)) + "\n"
        r = run_cli(["filter", "plethysm", "-v", "4,2,2"], cli_env, stdin=lines)
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 142

    def test_plethysm_bad_line_exit_2(self, cli_env):
        # a line is a JSON array of ints: no floats, strings or bools coerced
        for line in ("[2,3]", "[1.5]", '"21"', "[true]"):
            r = run_cli(["filter", "plethysm", "-v", "1"], cli_env, stdin=line + "\n")
            assert r.returncode == 2, line
            assert r.stdout == "", line
            assert r.stderr.startswith(f"error: bad partition line {line!r}"), line


class TestStats:
    def test_small(self, cli_env):
        r = run_cli(["stats", "2", "2"], cli_env)
        out = payload(r)
        assert out == {"total": "5", "after_filter": "4", "actual_support": "2"}

    def test_single_box(self, cli_env):
        r = run_cli(["stats", "1", "1"], cli_env)
        assert payload(r) == {
            "total": "1",
            "after_filter": "1",
            "actual_support": "1",
        }

    def test_phase_timings_present(self, cli_env):
        r = run_cli(["stats", "2", "1,1"], cli_env)
        doc = json.loads(r.stdout)
        assert set(doc["phase_ms"]) == {"filter", "support"}

    def test_plethysm_computed_once(self, monkeypatch, capsys):
        import schurkit.cli
        import schurkit.verification
        from schurkit.schur import schur_plethysm

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return schur_plethysm(*args, **kwargs)

        monkeypatch.setattr(schurkit.cli, "schur_plethysm", counting)
        monkeypatch.setattr(schurkit.verification, "schur_plethysm", counting)
        assert schurkit.cli.main(["stats", "2", "1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["output"]["actual_support"] == "2"
        assert len(calls) == 1

    def test_empty_outer_support_within_filter(self, cli_env):
        # s_() o s_2 = 1: the constant term passes the filter it is counted by
        r = run_cli(["stats", "", "2"], cli_env)
        assert r.returncode == 0
        assert payload(r) == {
            "total": "1",
            "after_filter": "1",
            "actual_support": "1",
        }

    def test_final_remarks_statistic(self, cli_env):
        r = run_cli(["stats", "1,1", "4,2,2"], cli_env)
        assert payload(r) == {
            "total": "231",
            "after_filter": "142",
            "actual_support": "40",
        }


class TestVerify:
    def test_vacuous_pass(self, cli_env):
        r = run_cli(["verify", "--scope", "lr", "--max", "0"], cli_env)
        assert r.returncode == 0
        assert payload(r)["status"] == "pass"

    def test_negative_max_is_usage_error(self, cli_env):
        r = run_cli(["verify", "--max", "-3"], cli_env)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--max" in r.stderr

    def test_over_budget_fails_fast(self, cli_env):
        # the message names the first degree over the budget, not max itself
        started = time.perf_counter()
        r = run_cli(["verify", "--max", "40"], cli_env)
        assert time.perf_counter() - started < 10
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--max 40" in r.stderr and "p(16) = 231" in r.stderr
        assert str(ORACLE_TABLE_BUDGET) in r.stderr

    def test_far_over_budget_stops_at_first_degree(self, cli_env):
        r = run_cli(["verify", "--max", "50000"], cli_env)
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.encode()) < 300
        assert "p(16) = 231" in r.stderr and str(ORACLE_TABLE_BUDGET) in r.stderr
        started = time.perf_counter()
        with pytest.raises(ValueError):
            run_scope("all", 50000)
        assert time.perf_counter() - started < 0.1

    def test_failed_sweep_exit_1(self, monkeypatch, capsys):
        import schurkit.cli
        import schurkit.verification
        from schurkit.schur import SchurExpansion

        # every product comes back as 0, so the first pair, () * (), mismatches
        monkeypatch.setattr(
            schurkit.verification, "multi_schur_product", lambda factors: SchurExpansion(0, {})
        )
        assert schurkit.cli.main(["verify", "--scope", "lr", "--max", "2"]) == 1
        out = json.loads(capsys.readouterr().out)["output"]
        assert out["status"] == "fail"
        assert out["checks"] == [{"scope": "lr", "cases": 1, "ok": False}]
        bad = out["counterexample"]
        assert bad["kind"] == "oracle mismatch"
        assert (bad["mu"], bad["nu"]) == ([], [])
        assert bad["diff_fast_vs_oracle"] == {"[]": [0, 1]}

    def test_mismatch_lists_fast_terms_then_oracle_extras(self, monkeypatch):
        import schurkit.verification as v
        from schurkit.schur import SchurExpansion

        # s_2 * s_1 = s_3 + s_21; the injected answer has s_21 twice and an
        # s_111 the oracle lacks, and misses s_3
        wrong = SchurExpansion(3, {Partition([2, 1]): 2, Partition([1, 1, 1]): 1})
        fast = v.multi_schur_product
        monkeypatch.setattr(v, "multi_schur_product", lambda factors: wrong if [
            f.parts for f in factors] == [(2,), (1,)] else fast(factors))
        code, out, _ = run_in_process(["verify", "--scope", "lr", "--max", "3"])
        assert code == 1
        bad = json.loads(out)["output"]["counterexample"]
        assert (bad["kind"], bad["mu"], bad["nu"]) == ("oracle mismatch", [2], [1])
        assert list(bad["diff_fast_vs_oracle"].items()) == [
            ("[2, 1]", [2, 1]), ("[1, 1, 1]", [1, 0]), ("[3]", [0, 1]),
        ]

    def test_budget_checked_at_every_degree(self, monkeypatch):
        import schurkit.verification as v

        # p(1)^2 = 1 entry fits a budget of 3, p(2)^2 = 4 does not
        monkeypatch.setattr(v, "ORACLE_TABLE_BUDGET", 3)
        assert [r.ok for r in run_scope("lr", 1)] == [True]
        with pytest.raises(ValueError, match=r"p\(2\) = 2, 4 entries, over the budget of 3"):
            run_scope("lr", 2)

    def test_unknown_scope_raises(self):
        with pytest.raises(ValueError, match="unknown scope 'bogus'"):
            run_scope("bogus", 2)

    def test_case_counts_pinned(self):
        # the cases each sweep counts at --max 0..10, so a sweep loop that
        # drops or double-counts a case shows here
        counts = [[r.cases for r in run_scope("all", d)] for d in range(11)]
        assert counts == [
            [1, 3, 2], [3, 4, 5], [8, 7, 13], [18, 11, 25], [38, 18, 49],
            [74, 25, 77], [139, 41, 133], [249, 56, 193], [434, 83, 301],
            [734, 116, 430], [1215, 165, 626],
        ]

    def test_budget_admits_degree_15(self):
        assert len(all_partitions(15)) ** 2 <= ORACLE_TABLE_BUDGET

    def test_small_all(self, cli_env):
        r = run_cli(["verify", "--scope", "all", "--max", "4"], cli_env)
        assert r.returncode == 0
        out = payload(r)
        assert out["status"] == "pass"
        assert [c["scope"] for c in out["checks"]] == ["lr", "sxp", "plethysm"]


def _inject(monkeypatch, scope, case, bad):
    """Make the fast path and the oracle of one sweep agree on the expansion
    ``bad`` at ``case`` and on the fast path's answer everywhere else, so only
    a support check can fail the sweep."""
    import schurkit.verification as v

    if scope == "lr":
        fast_product = v.multi_schur_product

        def product(factors):
            return bad if tuple(f.parts for f in factors) == case else fast_product(factors)

        monkeypatch.setattr(v, "multi_schur_product", product)
        monkeypatch.setattr(v, "oracle_product", lambda mu, nu: product([mu, nu]))
    elif scope == "sxp":
        fast_power = v.sxp_plethysm

        def power(n, lam):
            return bad if (n, lam.parts) == case else fast_power(n, lam)

        monkeypatch.setattr(v, "sxp_plethysm", power)
        monkeypatch.setattr(v, "oracle_power_plethysm", power)
    else:
        fast_plethysm = v.schur_plethysm

        def plethysm(mu, nu):
            return bad if (mu.parts, nu.parts) == case else fast_plethysm(mu, nu)

        monkeypatch.setattr(v, "schur_plethysm", plethysm)
        monkeypatch.setattr(v, "oracle_plethysm", plethysm)


# (scope, case, degree and terms of the injected expansion, counterexample)
INJECTED = [
    pytest.param("lr", ((2,), (1,)), 3, {(1, 1, 1): 1},
                 {"kind": "dominance bound violated", "lam": [1, 1, 1],
                  "mu": [2], "nu": [1]}, id="dominance"),
    # (2, 2) lies between (3, 1) and (2, 1, 1) but outside the bound (3, 1, 1)
    pytest.param("lr", ((2,), (1, 1)), 4, {(2, 2): 1},
                 {"kind": "minkowski bound violated", "lam": [2, 2],
                  "mu": [2], "nu": [1, 1]}, id="minkowski"),
    pytest.param("sxp", (2, (2,)), 4, {(1, 1, 1, 1): 1},
                 {"kind": "lower bound violated", "mu": [1, 1, 1, 1],
                  "n": 2, "lam": [2]}, id="lower"),
    # every mu of size n|lam| that contains lam is inside the upper bound, so
    # only an expansion of the wrong degree can leave it
    pytest.param("sxp", (2, (2,)), 5, {(5,): 1},
                 {"kind": "upper bound violated", "mu": [5], "n": 2, "lam": [2]},
                 id="upper"),
    pytest.param("sxp", (2, (3,)), 6, {(3, 2, 1): 1},
                 {"kind": "support has non-empty core", "mu": [3, 2, 1],
                  "n": 2, "lam": [3]}, id="core"),
    pytest.param("plethysm", ((1,), (2,)), 2, {(1, 1): 1},
                 {"kind": "containment filter violated", "lam": [1, 1],
                  "mu": [1], "nu": [2]}, id="containment"),
    pytest.param("plethysm", ((1,), (2,)), 2, {(2,): 2},
                 {"kind": "trivial/sign closed form mismatch", "extracted": [2, 0],
                  "closed_form": [1, 0], "mu": [1], "nu": [2]}, id="closed-form"),
    # several terms break the bounds; the sweep names the first in the order
    # the fast path produced them, which for an injected expansion is insertion
    pytest.param("lr", ((2,), (1, 1)), 4, {(2, 2): 1, (1, 1, 1, 1): 1},
                 {"kind": "minkowski bound violated", "lam": [2, 2],
                  "mu": [2], "nu": [1, 1]}, id="two-terms"),
    pytest.param("sxp", (2, (3,)), 6,
                 {(2, 2, 2): 1, (2, 1, 1, 1, 1): 1, (1, 1, 1, 1, 1, 1): 1},
                 {"kind": "lower bound violated", "mu": [2, 2, 2],
                  "n": 2, "lam": [3]}, id="three-terms"),
]


class TestInjectedViolations:
    @pytest.mark.parametrize("scope, case, degree, terms, expected", INJECTED)
    def test_support_check_fires(self, monkeypatch, scope, case, degree, terms, expected):
        from schurkit.schur import SchurExpansion

        bad = SchurExpansion(degree, {Partition(k): c for k, c in terms.items()})
        _inject(monkeypatch, scope, case, bad)
        code, out, _ = run_in_process(["verify", "--scope", scope, "--max", "6"])
        assert code == 1
        doc = json.loads(out)["output"]
        assert doc["status"] == "fail" and doc["checks"][0]["ok"] is False
        assert doc["counterexample"] == expected

    def test_pinned_statistic_fires(self, monkeypatch):
        import schurkit.verification as v

        monkeypatch.setattr(v, "plethysm_stats", lambda mu, nu: (231, 142, 41))
        code, out, _ = run_in_process(["verify", "--scope", "plethysm", "--max", "2"])
        assert code == 1
        assert json.loads(out)["output"]["counterexample"] == {
            "kind": "pinned statistic mismatch",
            "expected": [231, 142, 40],
            "got": [231, 142, 41],
        }


def _refusing(monkeypatch, name, refused):
    """Rebind the filter ``name`` in schurkit.verification so that it refuses
    the candidate (its second argument) ``refused`` and answers as before on
    every other."""
    import schurkit.verification as v

    check = getattr(v, name)
    monkeypatch.setattr(v, name, lambda inner, outer: tuple(outer) != refused
                        and check(inner, outer))


class TestSweepsCallTheFilters:
    """The sweeps and stats run the public filters, not copies of them: a
    fault in the filter shows in verify and in stats."""

    @pytest.mark.parametrize("scope, name, refused, expected", [
        pytest.param("sxp", "sxp_lower_check", (2, 1),
                     {"kind": "lower bound violated", "mu": [2, 1], "n": 1,
                      "lam": [2, 1]}, id="sxp"),
        pytest.param("plethysm", "plethysm_filter_check", (1, 1),
                     {"kind": "containment filter violated", "lam": [1, 1],
                      "mu": [1], "nu": [1, 1]}, id="plethysm"),
    ])
    def test_verify_fails_with_the_filter(self, monkeypatch, scope, name, refused,
                                          expected):
        _refusing(monkeypatch, name, refused)
        code, out, _ = run_in_process(["verify", "--scope", scope, "--max", "6"])
        assert code == 1
        doc = json.loads(out)["output"]
        assert doc["status"] == "fail" and doc["checks"][0]["ok"] is False
        assert doc["counterexample"] == expected

    def test_stats_counts_with_the_filter(self, monkeypatch):
        # (4, 4, 4, 4) contains (4, 2, 2), so refusing it drops one survivor
        _refusing(monkeypatch, "plethysm_filter_check", (4, 4, 4, 4))
        code, out, _ = run_in_process(["stats", "1,1", "4,2,2"])
        assert code == 0
        assert json.loads(out)["output"]["after_filter"] == "141"


@pytest.mark.parametrize("args", [
    ["expand", "product", "-m", "3,2,1", "-v", "2,1"],
    ["expand", "sxp", "-n", "3", "-l", "2,1"],
    ["expand", "plethysm", "-m", "2,1", "-v", "2,1"],
    ["filter", "sxp", "-n", "3", "-l", "2,1", "--candidates"],
    ["verify", "--scope", "all", "--max", "4"],
    ["stats", "2", "2,1"],
    ["expand", "sxp", "-n", "257", "-l", "1"],  # the walk bound's refusal
    ["expand", "product", "-m", "x", "-v", "1"],  # a usage error
], ids=["expand-product", "expand-sxp", "expand-plethysm", "filter-sxp-candidates",
        "verify", "stats", "walk-bound", "usage-error"])
def test_command_leaves_no_cyclic_garbage(args, cyclic_garbage):
    # with the caches cleared every command walks afresh; whatever it made
    # is freed by reference counting once main returns (the import, which
    # builds the parser, is left outside the count)
    import schurkit.cli
    from schurkit.schur import _pair_product, _power_plethysm, sxp_plethysm

    for cached in (_pair_product, _power_plethysm, sxp_plethysm):
        cached.cache_clear()
    assert cyclic_garbage(lambda: run_in_process(args)) == 0


class TestDeterminism:
    def test_identical_payload_across_runs(self, cli_env):
        args = ["expand", "sxp", "-n", "2", "-l", "2,2"]
        a = json.loads(run_cli(args, cli_env).stdout)
        b = json.loads(run_cli(args, cli_env).stdout)
        del a["elapsed_ms"], b["elapsed_ms"]
        assert a == b

    def test_pretty_flag_after_subcommand(self, cli_env):
        r = run_cli(["expand", "product", "-m", "1", "-v", "1", "--pretty"], cli_env)
        assert r.returncode == 0
        assert r.stdout.startswith("{\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["expand", "product", "-m", "3,2,1", "-v", "2,1"],
            ["filter", "sxp", "-n", "2", "-l", "2,1", "--candidates"],
        ],
    )
    def test_json_layout_is_json_dumps(self, cli_env, args):
        # compact and --pretty stdout are json.dumps of the document itself
        out = run_cli(args, cli_env).stdout
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
        out = run_cli([*args, "--pretty"], cli_env).stdout
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_shared_parser_keeps_no_state(self, cli_env):
        # main parses with one parser per process: each call in a row must
        # print what a fresh process prints for it alone
        calls = [
            ["--pretty", "expand", "product", "-m", "1", "-v", "1"],
            ["expand", "product", "-m", "1", "-v", "1"],  # compact again
            ["filter", "lr", "-m", "3,2", "-m", "1,1"],
            ["filter", "lr", "-m", "3,2", "-m", "1,1"],  # -m list does not grow
            ["expand", "sxp", "-n", "2"],  # usage error
            ["expand", "sxp", "-n", "2", "-l", "3,2"],
        ]
        runs = [run_in_process(args) for args in calls]
        assert runs[0][1].startswith("{\n") and runs[1][1].startswith('{"command"')
        for args, (code, out, err) in zip(calls, runs):
            fresh = run_cli(args, cli_env)
            assert (code, strip_elapsed(out), err) == (
                fresh.returncode, strip_elapsed(fresh.stdout), fresh.stderr
            ), args

    def test_partitions_round_trip_through_json(self, cli_env):
        from schurkit import Partition

        r = run_cli(["expand", "sxp", "-n", "3", "-l", "2,1"], cli_env)
        for term in payload(r)["terms"]:
            p = Partition(term["partition"])
            assert p.to_list() == term["partition"]
