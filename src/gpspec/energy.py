"""Graph energy, exact semiprimitive values, bounds, and the
complementary-equienergy decision.

The energy of a graph is the sum of the absolute values of its adjacency
eigenvalues.  For a connected loopless regular graph whose non-principal
eigenvalues all share the multiplicity n, comparing E(G) with E(G-bar)
reduces to a sign count: the two are equal exactly when exactly one of the
distinct non-principal eigenvalues is positive.  The report below always
computes both the direct comparison and the sign criterion, so their
agreement is itself a checkable fact (it can legitimately fail only in the
semiprimitive case, where the multiplicities are unequal).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import dioph
from .errors import OutOfScope
from .ff import HypothesisCase
from .spectra import Spectrum, _exact_div, case_a_rep, complement_spectrum, require_in_scope


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of the complementary-equienergy decision for one spectrum."""

    energy: int
    complement_energy: int
    positive_nonprincipal_count: int
    equienergetic: bool
    criterion_agrees: bool


def semiprimitive_energy(k: int, p: int, m: int) -> int:
    """Exact energy in the semiprimitive case p = -1 (mod k), n = (q-1)/k:
    2n((k-1)sqrt(q)+1)/k for m = 0 (mod 4), 2(k-1)n(sqrt(q)+1)/k otherwise.

    k=3:  2n(2*sqrt(q)+1)/3  for m = 0 (mod 4),   4n(sqrt(q)+1)/3  otherwise.
    k=4:   n(3*sqrt(q)+1)/2  for m = 0 (mod 4),   3n(sqrt(q)+1)/2  otherwise.
    """
    case = require_in_scope(k, p, m)
    if case is not HypothesisCase.SEMIPRIMITIVE:
        raise OutOfScope(f"(k={k}, p={p}) is not semiprimitive")
    n = (p ** m - 1) // k
    root = p ** (m // 2)
    num = 2 * n * ((k - 1) * root + 1) if m % 4 == 0 else 2 * (k - 1) * n * (root + 1)
    return _exact_div(num, k)


def energy_bounds(k: int, p: int, m: int) -> tuple[Fraction, Fraction]:
    """Exact lower/upper energy bounds in the case p = 1 (mod k).

    k=3:  n(1 + |2a*r + 1|/3)  <=  E  <=  n(1 + (2/3)(|a|r + 1) + 3|b|r)
    k=4:  n(r^2 + 1)           <=  E  <=  n(r^2 + 1 + (|c| + 2|d|) r)

    with r the k-th root of q and (a, b) resp. (c, d) the quadratic-form
    pair of the spectrum formulas (``spectra.case_a_rep``).
    """
    case = require_in_scope(k, p, m)
    if case is not HypothesisCase.CASE_A:
        raise OutOfScope(f"(k={k}, p={p}) has no bound form (semiprimitive case is exact)")
    q = p ** m
    n = (q - 1) // k
    rep = case_a_rep(k, p, m)
    if k == 3:
        r = p ** (m // 3)
        lower = n * (1 + Fraction(abs(2 * rep.x * r + 1), 3))
        upper = n * (1 + Fraction(2, 3) * (abs(rep.x) * r + 1) + 3 * abs(rep.y) * r)
    else:
        r = p ** (m // 4)
        lower = Fraction(n * (r * r + 1))
        upper = Fraction(n * (r * r + 1 + (abs(rep.x) + 2 * abs(rep.y)) * r))
    return lower, upper


def is_complementary_equienergetic(s: Spectrum) -> EnergyReport:
    """Decide E(G) = E(G-bar) both directly and by the sign criterion.

    The sign criterion counts positives among the distinct non-principal
    eigenvalues; the direct route compares exact energies through the
    complement spectrum.  ``criterion_agrees`` records whether the two
    verdicts coincide.
    """
    direct = s.energy()
    comp = complement_spectrum(s).energy()
    values = [v for v, _ in s.nonprincipal()]
    pos = sum(1 for v in values if v > 0)
    neg = sum(1 for v in values if v < 0)
    criterion = pos == 1 and neg == len(values) - 1
    equal = direct == comp
    return EnergyReport(
        energy=direct,
        complement_energy=comp,
        positive_nonprincipal_count=pos,
        equienergetic=equal,
        criterion_agrees=criterion == equal,
    )


def case_a_equienergetic(k: int, root: int, x: int, y: int) -> bool:
    """Whether GP(k, root^k) in case A is complementary equienergetic: the sign
    criterion, read off the pair (x, y) of its closed formulas.

    k=3:  x > 9|y| or -9|y| < x < 0; the eigenvalues have the signs of x, -(x +- 9y).
    k=4:  2|x| < root, i.e. 3x^2 < 4y^2 as root^2 = x^2 + 4y^2; the eigenvalues
          have the signs of root +- 4y and -root +- 2x, and 2|x| < root forces 4|y| > root.
    """
    if k == 3:
        return x > 9 * abs(y) or -9 * abs(y) < x < 0
    return 2 * abs(x) < root


def corollary_condition(k: int, rep: dioph.QFRep, q: int) -> bool:
    """Necessary and sufficient condition in case A for complementary equienergy
    of GP(k, q), from the pair alone: ``case_a_equienergetic`` at root q^(1/k).
    The representation must belong to q (``dioph.belongs``)."""
    if k not in (3, 4):
        raise OutOfScope(f"k = {k} not in {{3, 4}}")
    if not dioph.belongs(rep, k, q):
        raise OutOfScope(f"representation {rep} does not match k={k}, q={q}")
    root = rep.target // 4 if k == 3 else math.isqrt(rep.target)
    return case_a_equienergetic(k, root, rep.x, rep.y)
