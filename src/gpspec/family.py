"""Search for complementary-equienergetic members of the lifted families.

Equienergy at level ell is decided by ``energy.case_a_equienergetic``, the
criterion of ``energy.corollary_condition``: integer inequalities on the level
pair (a, b) or (c, d), never a q-sized spectrum, so probing ell in the
hundreds stays cheap even though q is astronomically large.

The argument-interval sufficient conditions are likewise exact integer
inequalities (no transcendental function is evaluated for them):

    k=3, s = 0, on the raw pair (x, y):   0 < x < 9y
    k=3, s > 0, on the pair (a, b):       a > 9b > 0
    k=4, on the pair (c, d):              c > 0, d > 0, 4d^2 > 3c^2
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import case_a_equienergetic
from .errors import BadInput
from .lift import levels

#: Default number of levels probed.
ELL_MAX = 100


@dataclass(frozen=True)
class FamilyWitness:
    """One probe of a lifted family member GP(k, p^(3(t*ell+s)) or p^(4*ell))."""

    p: int
    k: int
    t: int
    s: int
    ell: int
    pair: tuple[int, int]
    equienergetic: bool
    interval_hit: bool
    q_digits: int


def interval_test_k3(x: int, y: int, s: int) -> bool:
    """Exact integer form of the k=3 argument-interval condition of offset s:
    on the raw pair (x, y) when s = 0, on the derived pair (a, b) when s > 0."""
    if s == 0:
        return 0 < x < 9 * y
    return y > 0 and x > 9 * y


def interval_test_k4(c: int, d: int) -> bool:
    """Exact integer form of the k=4 argument-interval condition (strict
    first quadrant)."""
    return c > 0 and d > 0 and 4 * d * d > 3 * c * c


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1 without str(), which is quadratic in the
    digit count and refused beyond 4300 digits by default.  math.log10(n)
    is within 1e-6 of the truth below 2^(10^9), so its floor is exact unless
    it is that close to an integer d; then one comparison with 10^d decides.
    """
    x = math.log10(n)
    d = round(x)
    if abs(x - d) < 1e-6:
        return d + (n >= 10 ** d)
    return math.floor(x) + 1


def find_equienergetic_family(p: int, k: int, t: int | None = None, s: int = 0,
                              ell_max: int = ELL_MAX) -> list[FamilyWitness]:
    """Probe levels 1..ell_max of the lifted family, flagging each level with
    the equienergy verdict (sign criterion) and the interval condition.
    For k=3 a given t must be the minimal exponent; k=4 takes t = 1, s = 0.
    """
    if k not in (3, 4):
        raise BadInput(f"k = {k} not in {{3, 4}}")
    witnesses = []
    for lvl in levels(p, k, ell_max, t, s):
        x, y = lvl.pair
        equi = case_a_equienergetic(k, lvl.root, x, y)
        hit = (interval_test_k4(x, y) if k == 4
               else interval_test_k3(*(lvl.raw if s == 0 else lvl.pair), s))
        if hit and not equi:
            raise AssertionError(f"interval hit without equienergy at ell = {lvl.ell}")
        witnesses.append(FamilyWitness(
            p=p, k=k, t=lvl.t, s=s, ell=lvl.ell, pair=lvl.pair,
            equienergetic=equi, interval_hit=hit, q_digits=decimal_digits(lvl.q),
        ))
    return witnesses
