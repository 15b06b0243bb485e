"""Exact integer recursions lifting spectra to field extensions.

All "complex" bookkeeping is carried out as integer pairs under the norm
form of k (``dioph``: X^2 + 27 Y^2 for k = 3, X^2 + 4 Y^2 for k = 4), with
``dioph.mul_pair`` as the product, so no irrational arithmetic ever occurs.
Level indexing: the base pair (x0, y0) from ``dioph.minimal_t`` has norm
p^t, and the pair at level ell >= 1 is its ell-th power, with norm p^(t*ell).
An off-by-one here is the likeliest bug, so the helpers below all speak in
terms of ell of the derived graph GP(3, p^(3(t*ell+s))) rather than raw
power indices.

The k = 3 coefficient pair is (a, b) = (a0, b0) * (x, y)^ell with
4 p^s = a0^2 + 27 b0^2 ((a0, b0) = (-2, 0) for s = 0); the k = 4 pair is
(c, d) = (c1, d1)^ell with p^2 = c1^2 + 4 d1^2.  A family's base pairs come
from one base solve (``_family_base``); ``derived_ab`` and ``derived_cd``
take one pair power, ``levels`` one multiplication a level, and every pair
passes ``dioph.check_pair``.  ``level_exponent`` names the graph of a level,
GP(k, p^m) with m = k*(t*ell + s); the CLI takes its spectrum by the closed
formulas, and the tests check ``derived_spectrum_k3``/``_k4`` against those.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import dioph
from .dioph import mul_pair, pair_pow
from .errors import BadInput
from .spectra import Spectrum, k3_case_a_spectrum, k4_case_a_spectrum


def step_xy(p: int, t: int, xy: tuple[int, int]) -> tuple[int, int]:
    """Advance a norm-p^(t*ell) pair one level by multiplying with the base
    pair of ``dioph.minimal_t(p)`` (whose minimal exponent must be t)."""
    return mul_pair(k3_base_pairs(p, 0, t)[1], xy, dioph.form_coeff(3))


def k3_base_pairs(p: int, s: int, t: int | None = None
                  ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, (x0, y0), (a0, b0)) with 4 p^s = a0^2 + 27 b0^2 and compatible signs,
    from one base solve (``dioph._k3_family``, which states the sign rule).
    A given t must equal the minimal exponent; 0 <= s < t."""
    return dioph._k3_family(p, s, t)


def _derive(p: int, k: int, t: int | None, s: int, ell: int) -> tuple[int, int]:
    """The pair of level ell of the family of GP(k, p) by one pair power."""
    t, base, base_ab = _family_base(p, k, t, s)
    coeff = dioph.form_coeff(k)
    pair = mul_pair(base_ab, pair_pow(base, ell, coeff), coeff)
    dioph.check_pair(p, k, t * ell + s, *pair)
    return pair


def derived_ab(p: int, t: int, s: int, ell: int) -> tuple[int, int]:
    """Coefficient pair (a, b) of GP(3, p^(3(t*ell+s))) by pure recursion.

    Satisfies a^2 + 27 b^2 = 4 p^(t*ell+s), a = 1 (mod 3), gcd(a, p) = 1.
    For s > 0, ell = 0 returns the base solution of 4 p^s itself.
    """
    if ell < 0 or (s == 0 and ell == 0):
        raise BadInput("level ell must be >= 1 (>= 0 when s > 0)")
    return _derive(p, 3, t, s, ell)


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
    return _derive(p, 4, None, 0, ell)


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


def _family_base(p: int, k: int, t: int | None, s: int
                 ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, base, base_ab) of the family of GP(k, p), from one base solve: for
    k = 3 the pairs of ``k3_base_pairs(p, s, t)``, for k = 4 (no offsets:
    t = 1 or None, s = 0) the base solution of p^2 = c^2 + 4 d^2 and (1, 0).
    Raises BadP unless p = 1 (mod k) is prime."""
    if k == 3:
        return k3_base_pairs(p, s, t)
    if s != 0 or t not in (None, 1):
        raise BadInput("k=4 families take no (t, s) offsets")
    rep = dioph.solve_cd(p, 1)
    return 1, (rep.x, rep.y), (1, 0)


def level_exponent(p: int, k: int, ell: int, t: int | None = None, s: int = 0) -> int:
    """The exponent m of GP(k, p^m) at level ell >= 1 of the family of p,
    k*(t*ell + s), after the checks of ``levels`` on p, t and s."""
    if ell < 1:
        raise BadInput("ell must be >= 1")
    return k * (_family_base(p, k, t, s)[0] * ell + s)


def levels(p: int, k: int, ell_max: int, t: int | None = None, s: int = 0) -> Iterator[Level]:
    """Levels 1..ell_max of the family of GP(k, p), each pair checked."""
    t, base, base_ab = _family_base(p, k, t, s)
    coeff = dioph.form_coeff(k)
    m, root, q, raw = k * s, p ** s, p ** (k * s), (1, 0)
    for ell in range(1, ell_max + 1):
        raw = mul_pair(base, raw, coeff)
        pair = mul_pair(base_ab, raw, coeff)
        dioph.check_pair(p, k, t * ell + s, *pair)
        m += k * t
        root *= p ** t
        q *= p ** (k * t)
        yield Level(ell, t, m, q, root, raw, pair)
