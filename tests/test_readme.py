"""The README's examples run: the quick tour as a doctest, every command of
its CLI block through ``cli.main`` with empty stdin, and every ``--help``
screen through the parser.  A public name that is renamed or deleted fails
here, not in the README, and so does a help string argparse cannot format
(argparse formats help only when asked)."""

import contextlib
import doctest
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from schurkit.cli import PARSER, main

README = Path(__file__).resolve().parent.parent / "README.md"

HELP_SCREENS = [
    [], ["expand"], ["expand", "product"], ["expand", "sxp"], ["expand", "plethysm"],
    ["filter"], ["filter", "lr"], ["filter", "sxp"], ["filter", "plethysm"],
    ["stats"], ["verify"],
]


def _block(pattern):
    return re.search(pattern, README.read_text(), re.S).group(1)


def test_quick_tour_runs_as_a_doctest():
    tour = _block(r"## Library quick tour\n+```python\n(.*?)```")
    test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", str(README), 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    results = runner.summarize(verbose=False)
    assert results.attempted >= 1 and results.failed == 0, "".join(report)


def test_cli_block_commands_exit_0(monkeypatch):
    ran = 0
    for line in _block(r"## CLI\n+```sh\n(.*?)```").splitlines():
        argv = shlex.split(line.split("#")[0].split("<")[0])
        if not argv:
            continue
        assert argv[0] == "schurkit", line
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv[1:])
        assert (code, err.getvalue()) == (0, ""), line
        ran += 1
    assert ran, "the CLI block holds no command"


@pytest.mark.parametrize("command", HELP_SCREENS, ids=lambda c: " ".join(c) or "schurkit")
def test_help_renders(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        PARSER.parse_args([*command, "--help"])
    assert exit_.value.code == 0
    assert out.getvalue().startswith("usage: schurkit")
