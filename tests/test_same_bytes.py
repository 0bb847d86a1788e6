"""Same bytes: every command of a fixed corpus, run through ``cli.main`` in
process, hashes to the digests pinned here.

Each command feeds its argv, stdin, exit code, stdout with the timings
(``elapsed_ms``, ``phase_ms``) cut out, and stderr into one sha256 for its
kind and one for the whole corpus, so a failure names every kind whose bytes
moved.  The corpus holds no message that argparse words itself, since those
differ between Python versions; the bad literal's refusal is the program's
own text behind argparse's ``argument -m/--mu:`` prefix.

A change that moves output bytes on purpose pins the new digests here and
says so in its change log.
"""

import contextlib
import hashlib
import io
import json
import re
import sys

from schurkit.cli import main
from schurkit.partitions import all_partitions

TIMINGS = re.compile(r',\s*"(?:elapsed_ms|phase_ms)":\s*(?:\{[^}]*\}|[-+0-9.eE]+)')

DIGESTS = {
    "expand product": "d65ecc09e2ebc857",
    "expand plethysm": "2cf54e416d10dcf2",
    "filter lr": "a2f5f513847a8740",
    "expand sxp": "bf26994e76d432bc",
    "filter sxp": "fd495d4c2b8a9309",
    "filter plethysm": "d3de9b3c613efb35",
    "verify": "58d26d287c354657",
    "stats": "a2bd05949ec1ccd0",
    "--pretty": "65a38dc32473c50e",
    "refusal": "24b62979e47c985f",
    "total": "d2b25e74e6cae8c7",
}


def _lit(parts):
    return ",".join(map(str, parts))


def _corpus():
    """(kind, argv, stdin) for every command the digests cover."""
    parts = [[lam.parts for lam in all_partitions(s)] for s in range(19)]

    def pairs(sizes):
        return [(mu, nu) for a, b in sizes for mu in parts[a] for nu in parts[b]]

    cmds = []
    for mu, nu in pairs((a, b) for a in range(9) for b in range(9 - a)):
        cmds.append(("expand product", ["expand", "product", "-m", _lit(mu), "-v", _lit(nu)], ""))
    for mu, nu in pairs((a, b) for a in range(9) for b in range(9) if a * b <= 8):
        cmds.append(("expand plethysm", ["expand", "plethysm", "-m", _lit(mu), "-v", _lit(nu)], ""))
    for mu, nu in pairs((a, b) for a in range(1, 6) for b in range(1, 7 - a)):
        cmds.append(("filter lr", ["filter", "lr", "-m", _lit(mu), "-m", _lit(nu)], ""))
    for n in range(1, 7):
        for size in range(18 // n + 1):
            for lam in parts[size]:
                sxp = ["-n", str(n), "-l", _lit(lam)]
                cmds.append(("expand sxp", ["expand", "sxp", *sxp], ""))
                cmds.append(("filter sxp", ["filter", "sxp", *sxp, "--candidates"], ""))
    lines = "".join(json.dumps(list(lam)) + "\n" for size in range(7) for lam in parts[size])
    for size in range(5):
        for nu in parts[size]:
            cmds.append(("filter plethysm", ["filter", "plethysm", "-v", _lit(nu)], lines))
    for scope in ("all", "lr", "sxp", "plethysm"):
        for degree in range(6):
            cmds.append(("verify", ["verify", "--scope", scope, "--max", str(degree)], ""))
    cmds += [
        ("stats", ["stats", "1,1", "4,2,2"], ""),
        ("--pretty", ["--pretty", "expand", "sxp", "-n", "2", "-l", "3,2"], ""),
        # the identities CI's smoke step greps for: no walk and no rho sum
        ("expand sxp", ["expand", "sxp", "-n", "1000000", "-l", ""], ""),
        ("expand plethysm", ["expand", "plethysm", "-m", "20,10", "-v", "1"], ""),
        ("expand plethysm", ["expand", "plethysm", "-m", "20,10", "-v", ""], ""),
        # refusals in the program's own words, each one line and exit 2
        ("refusal", ["expand", "sxp", "-n", "257", "-l", "1"], ""),
        ("refusal", ["filter", "sxp", "-n", "0", "-l", "1", "--candidates"], ""),
        ("refusal", ["verify", "--max", "-1"], ""),
        ("refusal", ["verify", "--max", "16"], ""),
        ("refusal", ["expand", "product", "-m", "1,2", "-v", "1"], ""),
        ("refusal", ["filter", "plethysm", "-v", "1"], "[2,1]\n[1.5]\n[1]\n"),
    ]
    return cmds


def _digests(monkeypatch):
    """The first 16 hex digits of each kind's sha256 and of the total's."""
    hashes = {"total": hashlib.sha256()}
    for kind, argv, stdin in _corpus():
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = [argv, stdin, code, TIMINGS.sub("", out.getvalue()), err.getvalue()]
        line = json.dumps(record).encode() + b"\n"
        hashes.setdefault(kind, hashlib.sha256()).update(line)
        hashes["total"].update(line)
    return {kind: h.hexdigest()[:16] for kind, h in hashes.items()}


def test_corpus_bytes_match_the_pinned_digests(monkeypatch):
    assert _digests(monkeypatch) == DIGESTS
