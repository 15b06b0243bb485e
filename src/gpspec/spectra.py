"""Closed-form spectra of generalized Paley graphs and their sum graphs.

For k in {3, 4} and an in-scope q = p^m the adjacency spectrum is integral
and expressed through one quadratic-form pair (see ``dioph``).  GP(k, q) and
the complements have at most k + 1 distinct values, the sum graph at odd q
up to 2k + 1 (each non-principal value splits into a +/- pair).  Non-principal
eigenvalues are stored in descending order and merged when numerically equal,
so two Spectrum values are equal exactly when they are equal as multisets.

Each route takes its case from ``ff.require_in_scope``, which never forms q.
Every division is checked exact; a remainder raises NonIntegralEigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import dioph
from .errors import HasLoops, NonIntegralEigenvalue
from .ff import HypothesisCase, require_in_scope


class Variant(Enum):
    GP = "gp"
    GPSUM = "gpsum"
    GP_COMPLEMENT = "comp"
    GPSUM_COMPLEMENT = "gpsum-comp"


@dataclass(frozen=True)
class GraphSpec:
    """One graph: k, prime p, exponent m and which variant of the family.

    Construction is permissive (the brute-force oracle builds graphs the
    closed formulas do not cover, e.g. complete graphs); the closed-form
    routes validate the hypotheses on use.
    """

    k: int
    p: int
    m: int
    variant: Variant = Variant.GP

    @property
    def q(self) -> int:
        return self.p ** self.m


@dataclass(frozen=True)
class Spectrum:
    """Multiset of (eigenvalue, multiplicity) with a designated principal.

    entries are sorted by descending eigenvalue and include the principal;
    order is the vertex count q; loops counts diagonal ones (0 for GP,
    n for the sum graph at odd q).
    """

    entries: tuple[tuple[int, int], ...]
    principal: int
    order: int
    loops: int = 0

    def __post_init__(self):
        vals = [v for v, _ in self.entries]
        if vals != sorted(vals, reverse=True) or len(set(vals)) != len(vals):
            raise ValueError("entries must be strictly descending and merged")
        if any(e <= 0 for _, e in self.entries):
            raise ValueError("multiplicities must be positive")
        if sum(e for _, e in self.entries) != self.order:
            raise ValueError("multiplicities must sum to the order")
        if dict(self.entries).get(self.principal) != 1:
            raise ValueError("principal eigenvalue must have multiplicity 1")
        if sum(v * e for v, e in self.entries) != self.loops:
            raise ValueError("trace must equal the loop count")
        if sum(v * v * e for v, e in self.entries) != self.order * self.principal:
            raise ValueError("second moment must equal order * degree")

    @classmethod
    def from_pairs(cls, pairs, principal: int, order: int, loops: int = 0) -> "Spectrum":
        merged: dict[int, int] = {}
        for v, e in pairs:
            merged[v] = merged.get(v, 0) + e
        entries = tuple(sorted(merged.items(), key=lambda t: -t[0]))
        return cls(entries, principal, order, loops)

    def nonprincipal(self) -> tuple[tuple[int, int], ...]:
        """Entries without the principal eigenvalue."""
        return tuple((v, e) for v, e in self.entries if v != self.principal)

    def energy(self) -> int:
        """E = sum of multiplicity * |eigenvalue| (exact integer)."""
        return sum(e * abs(v) for v, e in self.entries)


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise NonIntegralEigenvalue(f"{num} is not divisible by {den}")
    return quot


def case_a_pair(k: int, p: int, m: int) -> tuple[int, int]:
    """The norm-form pair of the case A formulas for q = p^m: (a, b) with
    4 q^(1/3) = a^2 + 27 b^2 (k = 3), or (c, d) with q^(1/2) = c^2 + 4 d^2
    (k = 4)."""
    return dioph.solve_ab(p, m // 3) if k == 3 else dioph.solve_cd(p, m // 4)


def k3_case_a_eigenvalues(r: int, a: int, b: int) -> tuple[int, int, int]:
    """Non-principal eigenvalues of the k=3, p = 1 (mod 3) branch, in formula
    order, where r = q^(1/3) and 4r = a^2 + 27 b^2."""
    return (
        _exact_div(a * r - 1, 3),
        _exact_div(-_exact_div(a + 9 * b, 2) * r - 1, 3),
        _exact_div(-_exact_div(a - 9 * b, 2) * r - 1, 3),
    )


def k4_case_a_eigenvalues(r: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Non-principal eigenvalues of the k=4, p = 1 (mod 4) branch, in formula
    order, where r = q^(1/4) and r^2 = c^2 + 4 d^2."""
    rr = r * r
    return (
        _exact_div(rr + 4 * d * r - 1, 4),
        _exact_div(rr - 4 * d * r - 1, 4),
        _exact_div(-rr + 2 * c * r - 1, 4),
        _exact_div(-rr - 2 * c * r - 1, 4),
    )


def _case_a_spectrum(k: int, r: int, x: int, y: int) -> Spectrum:
    """Assemble Spec GP(k, r^k) from the pair (x, y) of the case A formulas."""
    q = r ** k
    n = _exact_div(q - 1, k)
    lams = (k3_case_a_eigenvalues if k == 3 else k4_case_a_eigenvalues)(r, x, y)
    return Spectrum.from_pairs([(n, 1)] + [(lam, n) for lam in lams], n, q)


# bench/tracing.py wraps these two by name, and
# bench/test_checks.py::test_instrumentation_swaps_and_restores asks that
# neither be missing; nothing in the package calls them.
def k3_case_a_spectrum(r: int, a: int, b: int) -> Spectrum:
    """Assemble Spec GP(3, r^3) from a representation 4r = a^2 + 27 b^2."""
    return _case_a_spectrum(3, r, a, b)


def k4_case_a_spectrum(r: int, c: int, d: int) -> Spectrum:
    """Assemble Spec GP(4, r^4) from a representation r^2 = c^2 + 4 d^2."""
    return _case_a_spectrum(4, r, c, d)


def gp_spectrum(g: GraphSpec) -> Spectrum:
    """Exact spectrum of GP(k, q) by the closed formulas (case A: ``case_a_pair``)."""
    if g.variant is not Variant.GP:
        raise ValueError("gp_spectrum expects the GP variant")
    case = require_in_scope(g.k, g.p, g.m)
    if case is HypothesisCase.CASE_A:
        return _case_a_spectrum(g.k, g.p ** (g.m // g.k), *case_a_pair(g.k, g.p, g.m))

    # semiprimitive case, strongly regular: with r = p^(m/2), negated unless 4 | m,
    # the eigenvalues are (r-1)/k of multiplicity (k-1)n and (-(k-1)r-1)/k of multiplicity n
    q, k = g.q, g.k
    n = _exact_div(q - 1, k)
    r = g.p ** (g.m // 2) * (1 if g.m % 4 == 0 else -1)
    pairs = [(n, 1), (_exact_div(r - 1, k), (k - 1) * n), (_exact_div(-(k - 1) * r - 1, k), n)]
    return Spectrum.from_pairs(pairs, n, q)


def gpsum_spectrum(g: GraphSpec) -> Spectrum:
    """Spectrum of the sum graph GP+(k, q).

    q even: identical to GP(k, q).  q odd: the principal survives with
    multiplicity 1 and every non-principal eigenvalue splits into a +/-
    pair, each with half the multiplicity; the graph carries n loops.
    """
    if g.variant is not Variant.GPSUM:
        raise ValueError("gpsum_spectrum expects the GPSUM variant")
    base = gp_spectrum(GraphSpec(g.k, g.p, g.m, Variant.GP))
    if g.p == 2:                        # q = 2^m is even
        return base
    n = base.principal
    pairs = [(n, 1)]
    for v, e in base.nonprincipal():
        if e % 2:
            raise NonIntegralEigenvalue(f"multiplicity {e} cannot be halved")
        pairs += [(v, e // 2), (-v, e // 2)]
    return Spectrum.from_pairs(pairs, n, base.order, loops=n)


def complement_spectrum(s: Spectrum) -> Spectrum:
    """Spectrum of the complement of a loopless regular graph.

    The principal n maps to q - 1 - n; every non-principal lambda maps to
    -1 - lambda with the same multiplicity.
    """
    if s.loops != 0:
        raise HasLoops(f"cannot complement a spectrum with {s.loops} loops")
    n_bar = s.order - 1 - s.principal
    pairs = [(n_bar, 1)] + [(-1 - v, e) for v, e in s.nonprincipal()]
    return Spectrum.from_pairs(pairs, n_bar, s.order)


def spectrum_of(g: GraphSpec) -> Spectrum:
    """Closed-form spectrum of any variant (complements via the shift rule)."""
    if g.variant is Variant.GP:
        return gp_spectrum(g)
    if g.variant is Variant.GPSUM:
        return gpsum_spectrum(g)
    if g.variant is Variant.GP_COMPLEMENT:
        return complement_spectrum(gp_spectrum(GraphSpec(g.k, g.p, g.m)))
    return complement_spectrum(gpsum_spectrum(GraphSpec(g.k, g.p, g.m, Variant.GPSUM)))
