import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schurkit.partitions import all_partitions
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


# every flag a subcommand cannot run without, and the line it prints
MISSING_ARGUMENTS = [
    pytest.param(["expand", "product", "-m", "1"], "expand product needs -m and -v",
                 id="expand-product"),
    pytest.param(["expand", "sxp", "-n", "2"], "expand sxp needs -n and -l", id="expand-sxp"),
    pytest.param(["expand", "plethysm", "-v", "1"], "expand plethysm needs -m and -v",
                 id="expand-plethysm"),
    pytest.param(["filter", "lr"], "filter lr needs at least one -m", id="filter-lr"),
    pytest.param(["filter", "sxp", "-l", "2"], "filter sxp needs -n and -l", id="filter-sxp"),
    pytest.param(["filter", "plethysm"], "filter plethysm needs -v", id="filter-plethysm"),
]


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

    def test_internal_error_exit_1(self, monkeypatch, capsys):
        import schurkit.cli
        import schurkit.schur

        # only the rho = (2) piece of s_2 o s_1 survives, so 1/2 is left on s_2
        def one_piece(rho, nu):
            return {(2,): 1} if rho == (2,) else {}

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", one_piece)
        assert schurkit.cli.main(["expand", "plethysm", "-m", "2", "-v", "1"]) == 1
        assert "internal error" in capsys.readouterr().err


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

    def test_budget_admits_degree_15(self):
        assert len(all_partitions(15)) ** 2 <= ORACLE_TABLE_BUDGET

    def test_small_all(self, cli_env):
        r = run_cli(["verify", "--scope", "all", "--max", "4"], cli_env)
        assert r.returncode == 0
        out = payload(r)
        assert out["status"] == "pass"
        assert [c["scope"] for c in out["checks"]] == ["lr", "sxp", "plethysm"]


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
