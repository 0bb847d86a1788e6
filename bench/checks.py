"""Correctness checks on CLI output, run outside the timed region.

Expansions are checked through principal specialization: the hook-content
formula gives s_lam(1^k) in polynomial time, and each identity below must
hold at every k in ``KS``.

* product:  s_mu(1^k) s_nu(1^k) = sum c_lam s_lam(1^k)
* sxp:      sum c_mu s_mu(1^k) = s_lam(1^k), since (p_n o f)(1^k) = f(1^k)
* plethysm: (s_mu o s_nu)(1^k) = s_mu(1^M) with M = s_nu(1^k)

``filter sxp --candidates`` must list every partition in the support of the
``expand sxp`` that follows it, and ``verify`` must report ``"pass"``.
Every op must also exit 0.  Nothing here imports schurkit.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache
from math import prod

KS = (1, 2, 3, 5, 8, 13, 30)
_ELAPSED = re.compile(r',"elapsed_ms":[-+0-9.eE]+')


def strip_elapsed(text: str) -> str:
    """The document's bytes with the one member that varies run to run cut."""
    return _ELAPSED.sub("", text)


def digest(texts: list[str]) -> str:
    """Hash of a pass's outputs in op order, ``elapsed_ms`` left out."""
    h = hashlib.sha256()
    for text in texts:
        h.update(strip_elapsed(text).encode())
    return h.hexdigest()[:16]


@lru_cache(maxsize=None)
def _contents_and_hooks(parts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    contents = tuple(j - i for i, row in enumerate(parts) for j in range(row))
    hooks = prod(
        (row - j) + (cols[j] - i) - 1 for i, row in enumerate(parts) for j in range(row)
    )
    return contents, hooks


def schur_at_ones(parts: tuple[int, ...], k: int) -> int:
    """s_parts(1^k) by the hook-content formula."""
    contents, hooks = _contents_and_hooks(tuple(parts))
    num = prod(k + c for c in contents)
    if num % hooks:
        raise ArithmeticError(f"hook-content quotient not integral for {parts}")
    return num // hooks


def _expansion_at_ones(output: dict, k: int) -> int:
    return sum(
        int(t["coeff"]) * schur_at_ones(tuple(t["partition"]), k)
        for t in output["terms"]
    )


def _parts(literal: str) -> tuple[int, ...]:
    return tuple(int(p) for p in literal.split(",")) if literal else ()


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_expand(argv: list[str], output: dict) -> bool:
    kind = argv[1]
    if kind == "product":
        mu, nu = _parts(_flag(argv, "-m")), _parts(_flag(argv, "-v"))
        if output["degree"] != sum(mu) + sum(nu):
            return False
        return all(
            _expansion_at_ones(output, k) == schur_at_ones(mu, k) * schur_at_ones(nu, k)
            for k in KS
        )
    if kind == "sxp":
        n, lam = int(_flag(argv, "-n")), _parts(_flag(argv, "-l"))
        if output["degree"] != n * sum(lam):
            return False
        return all(_expansion_at_ones(output, k) == schur_at_ones(lam, k) for k in KS)
    mu, nu = _parts(_flag(argv, "-m")), _parts(_flag(argv, "-v"))
    if output["degree"] != sum(mu) * sum(nu):
        return False
    return all(
        _expansion_at_ones(output, k) == schur_at_ones(mu, schur_at_ones(nu, k))
        for k in KS
    )


def check_pass(ops: list[list[str]], texts: list[str], codes: list) -> list[bool]:
    """Whether each op of one pass exited 0 with a correct result."""
    ok = [code == 0 for code in codes]
    docs = []
    for i, text in enumerate(texts):
        try:
            docs.append(json.loads(text))
        except json.JSONDecodeError:
            docs.append(None)
            ok[i] = False
    for i, (argv, doc) in enumerate(zip(ops, docs)):
        if not ok[i]:
            continue
        try:
            ok[i] = _check_op(argv, doc["output"], ops[i + 1:i + 2], docs[i + 1:i + 2])
        except (KeyError, TypeError, ValueError, ArithmeticError):
            ok[i] = False
    return ok


def _check_op(argv: list[str], out: dict, next_ops: list, next_docs: list) -> bool:
    if argv[0] == "expand":
        return _check_expand(argv, out)
    if argv[0] == "verify":
        return out["status"] == "pass"
    if argv[0] == "filter":
        # the expand sxp on the same input comes next in the op list
        if next_ops != [["expand"] + argv[1:-1]] or next_docs[0] is None:
            return False
        candidates = {tuple(c) for c in out["candidates"]}
        support = {tuple(t["partition"]) for t in next_docs[0]["output"]["terms"]}
        return support <= candidates
    return False
