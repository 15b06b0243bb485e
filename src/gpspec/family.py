"""Search for complementary-equienergetic members of the lifted families.

Equienergy at level ell is decided by ``energy.case_a_equienergetic``, the
paper's necessary and sufficient case A criterion: integer inequalities on the
level pair (a, b) or (c, d), never a q-sized spectrum, so probing ell in the
hundreds stays cheap even though q is astronomically large.  The level pairs
come from ``lift.levels``, which checks each one exactly in time linear in its
digits: the norm identity at levels 1 to 3 and the two-term recurrence of the
base after them, which together imply the norm at every level, and
admissibility at every level.

The argument-interval sufficient conditions are exact integer inequalities
(no transcendental function is evaluated for them).  ``interval_condition``
tests them on the level pair of GP(k, r^k); the paper states the s = 0 one on
the power (x, y) = (x0, y0)^ell, whose level pair is (a, b) = (-2x, -2y), and
the k = 4 one by squares, which r^2 = c^2 + 4d^2 turns into 2c < r:

    paper's form                                  on the level pair
    k=3, s = 0, on (x, y):  0 < x < 9y            9b < a < 0
    k=3, s > 0, on (a, b):  a > 9b > 0            a > 9b > 0
    k=4, on (c, d):         c > 0, d > 0,         c > 0, d > 0, 2c < r
                            4d^2 > 3c^2
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import case_a_equienergetic
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


def interval_condition(k: int, s: int, root: int, x: int, y: int) -> bool:
    """The argument-interval condition of offset s on the level pair (x, y) of
    GP(k, root^k), in the level-pair form of the module docstring."""
    if k == 4:
        return x > 0 and y > 0 and 2 * x < root
    return 9 * y < x < 0 if s == 0 else x > 9 * y > 0


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
    witnesses = []
    for lvl in levels(p, k, ell_max, t, s):
        x, y = lvl.pair
        equi = case_a_equienergetic(k, lvl.root, x, y)
        hit = interval_condition(k, s, lvl.root, x, y)
        if hit and not equi:
            raise AssertionError(f"interval hit without equienergy at ell = {lvl.ell}")
        witnesses.append(FamilyWitness(
            p=p, k=k, t=lvl.t, s=s, ell=lvl.ell, pair=lvl.pair,
            equienergetic=equi, interval_hit=hit, q_digits=decimal_digits(lvl.q),
        ))
    return witnesses
