"""Exact integer recursions lifting spectra to field extensions.

All "complex" bookkeeping is carried out as integer pairs under the norm
forms X^2 + 27 Y^2 (k = 3) and X^2 + 4 Y^2 (k = 4):

    (x, y) * (u, v) = (x*u - 27*y*v, x*v + y*u)      norm 27
    (c, d) * (u, v) = (c*u -  4*d*v, c*v + d*u)      norm 4

so no irrational arithmetic ever occurs.  Level indexing: the base pair
(x0, y0) from ``dioph.minimal_t`` has norm p^t, and the pair at level
ell >= 1 is its ell-th power, with norm p^(t*ell).  An off-by-one here is
the likeliest bug, so the helpers below all speak in terms of ell of the
derived graph GP(3, p^(3(t*ell+s))) rather than raw power indices.

The k = 3 coefficient pair is (a, b) = (a0, b0) * (x, y)^ell with
4 p^s = a0^2 + 27 b0^2 ((a0, b0) = (-2, 0) for s = 0); the k = 4 pair is
(c, d) = (c1, d1)^ell with p^2 = c1^2 + 4 d1^2.  ``derived_ab`` and
``derived_cd`` take one pair power, ``levels`` one multiplication a level.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import dioph
from .dioph import mul_pair, pair_pow
from .errors import BadInput
from .spectra import Spectrum, k3_case_a_spectrum, k4_case_a_spectrum


def step_xy(p: int, t: int, xy: tuple[int, int]) -> tuple[int, int]:
    """Advance a norm-p^(t*ell) pair one level by multiplying with the base
    pair of ``dioph.minimal_t(p)`` (whose minimal exponent must be t)."""
    return mul_pair(k3_base_pairs(p, 0, t)[1], xy, 27)


def k3_base_pairs(p: int, s: int, t: int | None = None
                  ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, (x0, y0), (a0, b0)) with 4 p^s = a0^2 + 27 b0^2 and compatible signs.

    A given t must equal the minimal exponent; 0 <= s < t.  One conjugate
    base product can be divisible by p (p = 7, s = 2 gives a1 = 49), which
    would break coprimality at every level; exactly one sign of b0 is safe
    (p dividing both would divide 2*a0*x0), +b0 preferred, and the recursion
    a(l+1) = 2*x0*a(l) - p^t*a(l-1) then keeps every level coprime.
    """
    t0, x0, y0 = dioph.minimal_t(p)
    if t is not None and t != t0:
        raise BadInput(f"minimal exponent of p = {p} is {t0}, not {t}")
    if not 0 <= s < t0:
        raise BadInput(f"s = {s} must satisfy 0 <= s < t = {t0}")
    if s == 0:
        return t0, (x0, y0), (-2, 0)
    rep = dioph.solve_ab(p, s)
    a0, b0 = rep.x, rep.y
    if (a0 * x0 - 27 * b0 * y0) % p == 0:
        b0 = -b0
    return t0, (x0, y0), (a0, b0)


def derived_ab(p: int, t: int, s: int, ell: int) -> tuple[int, int]:
    """Coefficient pair (a, b) of GP(3, p^(3(t*ell+s))) by pure recursion.

    Satisfies a^2 + 27 b^2 = 4 p^(t*ell+s), a = 1 (mod 3), gcd(a, p) = 1.
    For s > 0, ell = 0 returns the base solution of 4 p^s itself.
    """
    if ell < 0 or (s == 0 and ell == 0):
        raise BadInput("level ell must be >= 1 (>= 0 when s > 0)")
    _, base_xy, base_ab = k3_base_pairs(p, s, t)
    a, b = mul_pair(base_ab, pair_pow(base_xy, ell, 27), 27)
    check_k3_invariants(p, t * ell + s, a, b)
    return a, b


def check_k3_invariants(p: int, e: int, a: int, b: int) -> None:
    if a * a + 27 * b * b != 4 * p ** e:
        raise AssertionError(f"norm identity failed at 4*{p}^{e}")
    if a % 3 != 1 or math.gcd(a, p) != 1:
        raise AssertionError(f"congruence/coprimality failed for a = {a}")


def derived_spectrum_k3(p: int, t: int, s: int, ell: int) -> Spectrum:
    """Spec GP(3, p^(3(t*ell+s))) from the base solutions only."""
    if ell < 1:
        raise BadInput("ell must be >= 1")
    a, b = derived_ab(p, t, s, ell)
    return k3_case_a_spectrum(p ** (t * ell + s), a, b)


def derived_cd(p: int, ell: int) -> tuple[int, int]:
    """Coefficient pair (c, d) at level ell for k = 4: the ell-th power of
    the base solution of p^2 = X^2 + 4 Y^2 (exact integer recursion)."""
    if ell < 1:
        raise BadInput("ell must be >= 1")
    rep = dioph.solve_cd(p, 1)
    cd = pair_pow((rep.x, rep.y), ell, 4)
    check_k4_invariants(p, ell, *cd)
    return cd


def check_k4_invariants(p: int, ell: int, c: int, d: int) -> None:
    if c * c + 4 * d * d != p ** (2 * ell):
        raise AssertionError(f"norm identity failed at {p}^{2 * ell}")
    if c % 4 != 1 or math.gcd(c, p) != 1:
        raise AssertionError(f"congruence/coprimality failed for c = {c}")


def derived_spectrum_k4(p: int, ell: int) -> Spectrum:
    """Spec GP(4, p^(4*ell)) from the base solution only."""
    c, d = derived_cd(p, ell)
    return k4_case_a_spectrum(p ** ell, c, d)


@dataclass(frozen=True)
class Level:
    """Level ell of a family: GP(k, q = p^m = root^k), pair from raw = base^ell."""

    ell: int
    t: int
    m: int
    q: int
    root: int
    raw: tuple[int, int]
    pair: tuple[int, int]


def check_k4_offsets(t: int | None, s: int) -> None:
    """A k = 4 family has no (t, s) offsets: only t = 1 (or none) and s = 0."""
    if s != 0 or t not in (None, 1):
        raise BadInput("k=4 families take no (t, s) offsets")


def levels(p: int, k: int, ell_max: int, t: int | None = None, s: int = 0) -> Iterator[Level]:
    """Levels 1..ell_max of the family of GP(k, p), invariants checked; the
    k = 3 base is ``k3_base_pairs(p, s, t)``, and k = 4 takes no offsets."""
    if k == 3:
        t, base, base_ab = k3_base_pairs(p, s, t)
        coeff, check = 27, check_k3_invariants
    else:
        check_k4_offsets(t, s)
        t, s, base, base_ab = 1, 0, derived_cd(p, 1), (1, 0)
        coeff, check = 4, check_k4_invariants
    root, q, raw = p ** s, p ** (k * s), (1, 0)
    for ell in range(1, ell_max + 1):
        raw = mul_pair(base, raw, coeff)
        pair = mul_pair(base_ab, raw, coeff)
        check(p, t * ell + s, *pair)
        root *= p ** t
        q *= p ** (k * t)
        yield Level(ell, t, k * (t * ell + s), q, root, raw, pair)
