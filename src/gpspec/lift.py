"""Exact integer recursions lifting spectra to field extensions.

All "complex" bookkeeping is carried out as integer pairs under the norm
form of k (``dioph``: X^2 + 27 Y^2 for k = 3, X^2 + 4 Y^2 for k = 4), with
``dioph.mul_pair`` as the product, so no irrational arithmetic ever occurs.
Level indexing: the base pair (x0, y0) from ``dioph.minimal_t`` has norm
p^t, and the raw pair at level ell >= 1 is its ell-th power, with norm
p^(t*ell).  An off-by-one here is the likeliest bug, so the helpers below
all speak in terms of ell of the derived graph GP(3, p^(3(t*ell+s))) rather
than raw power indices.

The k = 3 coefficient pair is (a, b) = (a0, b0) * (x, y)^ell with
4 p^s = a0^2 + 27 b0^2 ((a0, b0) = (-2, 0) for s = 0); the k = 4 pair is
(c, d) = (c1, d1)^ell with p^2 = c1^2 + 4 d1^2.  A family's base pairs come
from one base solve (``family_base``), and ``levels`` alone makes the level
pairs, one multiplication a level, each passing ``dioph.check_pair``.
``level_exponent`` names the graph of a level, GP(k, p^m) with
m = k*(t*ell + s), whose spectrum the closed formulas give
(``spectra.spectrum_of``).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import dioph
from .dioph import mul_pair
from .errors import BadInput
from .spectra import GraphSpec, Spectrum, spectrum_of


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


def family_base(p: int, k: int, t: int | None, s: int
                ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, base, base_ab) of the family of GP(k, p), from one base solve: for
    k = 3 the minimal exponent t, (x0, y0) and (a0, b0) of ``dioph._k3_family``
    (a given t must be the minimal one, 0 <= s < t); for k = 4 (no offsets:
    t = 1 or None, s = 0) the base solution of p^2 = c^2 + 4 d^2 and (1, 0).
    Raises BadP unless p = 1 (mod k) is prime."""
    if k == 3:
        return dioph._k3_family(p, s, t)
    if s != 0 or t not in (None, 1):
        raise BadInput("k=4 families take no (t, s) offsets")
    rep = dioph.solve_cd(p, 1)
    return 1, (rep.x, rep.y), (1, 0)


def level_exponent(p: int, k: int, ell: int, t: int | None = None, s: int = 0) -> int:
    """The exponent m of GP(k, p^m) at level ell >= 1 of the family of p,
    k*(t*ell + s), after the checks of ``levels`` on p, t and s."""
    if ell < 1:
        raise BadInput("ell must be >= 1")
    return k * (family_base(p, k, t, s)[0] * ell + s)


def levels(p: int, k: int, ell_max: int, t: int | None = None, s: int = 0) -> Iterator[Level]:
    """Levels 1..ell_max of the family of GP(k, p), each pair checked."""
    t, base, base_ab = family_base(p, k, t, s)
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


# bench/tracing.py wraps the names below by "lift:<name>" and
# bench/test_checks.py::test_instrumentation_swaps_and_restores asks that none
# be missing, so they stay as views over ``levels`` and ``family_base`` until
# the benchmark reads in-package spans.  Nothing in the package calls them and
# ``gpspec`` no longer exports them.

def _last_pair(p: int, k: int, ell: int, t: int | None = None, s: int = 0) -> tuple[int, int]:
    if ell < 1:
        raise BadInput("ell must be >= 1")
    for lvl in levels(p, k, ell, t, s):
        pass
    return lvl.pair


def derived_ab(p: int, t: int, s: int, ell: int) -> tuple[int, int]:
    """The pair (a, b) of level ell >= 1 of the family of GP(3, p): the last
    ``Level`` of ``levels(p, 3, ell, t, s)``.  It stays only because the traced
    floor of bench/worker.py calls it and
    bench/test_checks.py::test_instrumentation_swaps_and_restores pins it."""
    return _last_pair(p, 3, ell, t, s)


def derived_cd(p: int, ell: int) -> tuple[int, int]:
    return _last_pair(p, 4, ell)


def derived_spectrum_k3(p: int, t: int, s: int, ell: int) -> Spectrum:
    return spectrum_of(GraphSpec(3, p, level_exponent(p, 3, ell, t, s)))


def derived_spectrum_k4(p: int, ell: int) -> Spectrum:
    return spectrum_of(GraphSpec(4, p, level_exponent(p, 4, ell)))


def k3_base_pairs(p: int, s: int, t: int | None = None):
    return family_base(p, 3, t, s)


def step_xy(p: int, t: int, xy: tuple[int, int]) -> tuple[int, int]:
    return mul_pair(family_base(p, 3, t, 0)[1], xy, dioph.form_coeff(3))
