"""Exact integer recursions lifting spectra to field extensions.

All "complex" bookkeeping is carried out as integer pairs under the norm
form of k (``dioph``: X^2 + 27 Y^2 for k = 3, X^2 + 4 Y^2 for k = 4), with
``dioph.mul_pair`` as the product, so no irrational arithmetic ever occurs.
Level indexing: a family has a base pair (x0, y0) of norm p^t (k = 3, t
from ``dioph.minimal_t``) or p^2 (k = 4, t = 1) and an offset pair base_ab:
(a0, b0) with 4 p^s = a0^2 + 27 b0^2 for k = 3 ((-2, 0) for s = 0), (1, 0)
for k = 4.  The pair of level ell >= 1 is base_ab * (x0, y0)^ell, the (a, b)
of k = 3 or the (c, d) of k = 4, and ``levels`` makes it from the pair of
level ell - 1 by one multiplication by the base.  An off-by-one here is the
likeliest bug, so the helpers below all speak in terms of ell of the derived
graph GP(k, p^m), m = k*(t*ell + s) (``level_exponent``), rather than power
indices; the closed formulas give its spectrum (``spectra.spectrum_of``).
A family's pairs come from one base solve (``family_base``).

Each level pair A_l is checked exactly, at a cost linear in its digits:
levels 1 to 3 pass ``dioph.check_pair`` (norm identity and admissibility),
later levels ``dioph.check_admissible``, and every level from 3 on the
two-term recurrence A_l = 2 x0 A_(l-1) - N A_(l-2) in both components, with
x0 the first component of the base pair and N its norm (``dioph.base_norm``).
These imply the norm identity at every level.  Read a pair (a, b) as
a + b sqrt(-coeff); a sequence obeying the recurrence is
A_l = alpha pi^l + gamma conj(pi)^l with pi = x0 + y0 sqrt(-coeff), whose
norm is (|alpha|^2 + |gamma|^2 + 2 Re(alpha conj(gamma) w^l)) N^l with
w = pi/conj(pi) on the unit circle, while the target is N^l times that of
level 0.  So the exact norm at levels l, l+1, l+2 makes Re(z w^j) equal for
j = 0, 1, 2, z = alpha conj(gamma) w^l; as u_j = Re(z w^j) obeys
u_(j+2) = (w + conj(w)) u_(j+1) - u_j, that forces z = 0 unless w = +-1,
that is unless x0 y0 = 0, which ``dioph.base_norm`` rules out.  Then
alpha conj(gamma) = 0 and the norm is the target at every level
(tests/test_lift.py::TestLevelCheck checks both halves).
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
    """Level ell of a family: GP(k, q = p^m = root^k) and its pair
    base_ab * base^ell (the module docstring names both)."""

    ell: int
    t: int
    m: int
    q: int
    root: int
    pair: tuple[int, int]


def family_base(p: int, k: int, t: int | None, s: int
                ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, base, base_ab) of the family of GP(k, p), from one base solve: for
    k = 3 the minimal exponent t, (x0, y0) and (a0, b0) of ``dioph._k3_family``
    (a given t must be the minimal one, 0 <= s < t); for k = 4 (no offsets:
    t = 1 or None, s = 0) the base solution of p^2 = c^2 + 4 d^2 and (1, 0).
    Raises BadInput for any other k, BadP unless p = 1 (mod k) is prime."""
    if k == 3:
        return dioph._k3_family(p, s, t)
    if k != 4:
        raise BadInput(f"k = {k} not in {{3, 4}}")
    if s != 0 or t not in (None, 1):
        raise BadInput("k=4 families take no (t, s) offsets")
    return 1, dioph.solve_cd(p, 1), (1, 0)


def level_exponent(p: int, k: int, ell: int, t: int | None = None, s: int = 0) -> int:
    """The exponent m of GP(k, p^m) at level ell >= 1 of the family of p,
    k*(t*ell + s), after the checks of ``levels`` on p, t and s."""
    if ell < 1:
        raise BadInput("ell must be >= 1")
    return k * (family_base(p, k, t, s)[0] * ell + s)


def levels(p: int, k: int, ell_max: int, t: int | None = None, s: int = 0) -> Iterator[Level]:
    """Levels 1..ell_max of the family of GP(k, p), each pair checked exactly
    (the module docstring says how) before it is yielded; a pair that fails
    raises AssertionError."""
    t, base, pair = family_base(p, k, t, s)
    coeff = dioph.form_coeff(k)
    trace, norm = 2 * base[0], dioph.base_norm(p, k, t, *base)
    m, root, q = k * s, p ** s, p ** (k * s)
    root_step, q_step = p ** t, p ** (k * t)
    prev = None
    for ell in range(1, ell_max + 1):
        prev2, prev, pair = prev, pair, mul_pair(base, pair, coeff)
        if ell >= 3 and pair != (trace * prev[0] - norm * prev2[0], trace * prev[1] - norm * prev2[1]):
            raise AssertionError(f"recurrence of k = {k} failed at level {ell} of the family of {p}")
        if ell <= 3:
            dioph.check_pair(p, k, t * ell + s, *pair)
        else:
            dioph.check_admissible(p, k, t * ell + s, pair[0])
        m += k * t
        root *= root_step
        q *= q_step
        yield Level(ell, t, m, q, root, pair)


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
