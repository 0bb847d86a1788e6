"""Seeded op lists for the four workloads.

An op is one ``schurkit`` command line, as the argv list ``schurkit.cli.main``
takes.  Each workload builds a fixed-length list of ops; one pass of the
benchmark runs that list once, in order.

The shape class of every op (sizes, and the first part and length of each
partition) comes from a template drawn with a fixed RNG, so it is the same
for every seed.  The workload seed only picks the partitions inside each
class.  Within a class the cost of an op varies far less than across classes,
so different seeds give op lists of comparable cost and the end-to-end
figures can be compared across seeds.  The program sees only the generated
argv lists.
"""

from __future__ import annotations

import random
from functools import lru_cache

# ops per pass; the tail percentile of a workload is 100 * (1 - 10 / len)
PRODUCT_OPS = 240
PLETHYSM_OPS = 40
SXP_INPUTS = 30  # two ops each: filter sxp --candidates, then expand sxp
# (scope, highest --max); the ladder runs every degree from 0 up to it
VERIFY_LADDER = (("lr", 7), ("sxp", 9), ("plethysm", 7))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, descending lexicographic; independent of schurkit
    so that the inputs do not change when the program does."""
    out: list[tuple[int, ...]] = []

    def rec(rem: int, cap: int, prefix: list[int]) -> None:
        if rem == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, rem), 0, -1):
            prefix.append(part)
            rec(rem - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def _in_class(n: int, first: int, length: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in _partitions(n) if p[0] == first and len(p) == length)


def _shape_class(rng: random.Random, n: int) -> tuple[int, int, int]:
    """(size, first part, length) of a uniformly drawn partition of n."""
    p = rng.choice(_partitions(n))
    return (n, p[0], len(p))


def _draw(rng: random.Random, cls: tuple[int, int, int]) -> tuple[int, ...]:
    return rng.choice(_in_class(*cls))


def _literal(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p))


def product_ops(seed: int) -> list[list[str]]:
    """``expand product`` of one large pair, |mu| + |nu| from 14 to 24."""
    tpl = random.Random("product")
    rng = random.Random(seed)
    ops = []
    for i in range(PRODUCT_OPS):
        total = 14 + 2 * (i % 6)
        a = tpl.randint(total // 2 - 2, total // 2 + 2)
        mu_cls, nu_cls = _shape_class(tpl, a), _shape_class(tpl, total - a)
        mu, nu = _draw(rng, mu_cls), _draw(rng, nu_cls)
        ops.append(["expand", "product", "-m", _literal(mu), "-v", _literal(nu)])
    return ops


# (|mu|, |nu|) classes, cycled: outer degree 2-4, total degree 12-18
_PLETHYSM_SIZES = ((2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6), (4, 3))


def plethysm_ops(seed: int) -> list[list[str]]:
    """``expand plethysm`` s_mu o s_nu with 2-4 outer boxes."""
    tpl = random.Random("plethysm")
    rng = random.Random(seed)
    ops = []
    for i in range(PLETHYSM_OPS):
        m, d = _PLETHYSM_SIZES[i % len(_PLETHYSM_SIZES)]
        mu_cls, nu_cls = _shape_class(tpl, m), _shape_class(tpl, d)
        mu, nu = _draw(rng, mu_cls), _draw(rng, nu_cls)
        ops.append(["expand", "plethysm", "-m", _literal(mu), "-v", _literal(nu)])
    return ops


# (n, |lam|) classes with n|lam| from 12 to 24
_SXP_SIZES = tuple(
    (n, size) for n in range(2, 7) for size in range(1, 13) if 12 <= n * size <= 24
)


def sxp_ops(seed: int) -> list[list[str]]:
    """``filter sxp --candidates`` followed by ``expand sxp`` on one input."""
    tpl = random.Random("sxp")
    rng = random.Random(seed)
    ops = []
    for i in range(SXP_INPUTS):
        n, size = _SXP_SIZES[i % len(_SXP_SIZES)]
        lam = _literal(_draw(rng, _shape_class(tpl, size)))
        ops.append(["filter", "sxp", "-n", str(n), "-l", lam, "--candidates"])
        ops.append(["expand", "sxp", "-n", str(n), "-l", lam])
    return ops


def verify_ops(seed: int) -> list[list[str]]:
    """``verify`` over a fixed degree ladder; the seed does not apply."""
    del seed
    return [
        ["verify", "--scope", scope, "--max", str(d)]
        for scope, top in VERIFY_LADDER
        for d in range(top + 1)
    ]


WORKLOADS = {
    "product": product_ops,
    "plethysm": plethysm_ops,
    "sxp": sxp_ops,
    "verify": verify_ops,
}
