"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s` or on
failure) and enforces its runtime budget.  The infinitude statements about
the lifted families are not reproducible by any finite computation; they
are represented here by finite property checks (criteria 8 and 9).
"""
import math
import time

from conftest import in_scope_instances
from gpspec.energy import energy_bounds, is_complementary_equienergetic, semiprimitive_energy
from gpspec.family import find_equienergetic_family
from gpspec.ff import HypothesisCase, theorem_hypotheses
from gpspec.lift import family_base, levels
from gpspec.oracle import build_graph, char_sum_spectrum, dense_spectrum, weight_eigenvalue_check
from gpspec.spectra import (GraphSpec, Variant, gp_spectrum, gpsum_spectrum, k3_case_a_eigenvalues,
                            k4_case_a_eigenvalues)
from referees import is_semiprimitive


class _Budget:
    def __init__(self, criterion, description, seconds):
        self.criterion, self.description, self.seconds = criterion, description, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion} [{status}] {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded {self.seconds}s budget"


def test_criterion_1_worked_examples():
    with _Budget(1, "worked-example reproduction", 2.0):
        t0 = time.perf_counter()
        s3 = gp_spectrum(GraphSpec(3, 7, 3))
        assert s3.entries == ((114, 1), (9, 114), (2, 114), (-12, 114))
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
        s4 = gp_spectrum(GraphSpec(4, 5, 4))
        assert s4.entries == ((156, 1), (16, 156), (1, 156), (-4, 156), (-14, 156))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_table_reproduction():
    table1 = {0: (1, 1, {9, 2, -12}),
              1: (-71, 13, {75231, -18408, -56824}),
              2: (-1763, -83, {344515488, 139453281, -483968770}),
              3: (-10907, -6119, {3106191996420, -1026985846948, -2079206149473}),
              4: (386569, -93911, {12484762621341194, 7406034473827068, -19890797095168263})}
    table2 = {1: (4, -2, {72, 41, -114}),
              2: (46, 8, {14735, 4164, -18900}),
              3: (-308, 30, {2869866, 188676, -3058543}),
              4: (-194, -368, {539644104, -59721025, -479923080}),
              5: (10324, 542, {98522451641, -25985726058, -72536725584})}
    table3 = {1: (-3, 2, {16, -4, -14, 1}),
              2: (-7, -12, {-144, 456, -244, -69}),
              3: (117, 22, {6656, 1156, 3406, -11219}),
              4: (-527, 168, {202656, -7344, -262344, 67031}),
              5: (237, -1558, {-2427344, 7310156, -2071094, -2811719})}
    with _Budget(2, "tables 1-3 from base solutions only", 1.0):
        rows1 = [(0, 7, family_base(7, 3, 3, 1)[2])] + [(lvl.ell, lvl.root, lvl.pair)
                                                      for lvl in levels(7, 3, 4, 3, 1)]
        rows2 = [(lvl.ell, lvl.root, lvl.pair) for lvl in levels(31, 3, 5)]
        rows3 = [(lvl.ell, lvl.root, lvl.pair) for lvl in levels(5, 4, 5)]
        for table, rows, eigenvalues in ((table1, rows1, k3_case_a_eigenvalues),
                                         (table2, rows2, k3_case_a_eigenvalues),
                                         (table3, rows3, k4_case_a_eigenvalues)):
            assert [ell for ell, _, _ in rows] == list(table)
            for ell, root, pair in rows:
                assert pair == table[ell][:2]
                assert set(eigenvalues(root, *pair)) == table[ell][2]


def test_criterion_3_oracle_triple_agreement():
    instances = in_scope_instances(1500)
    qs = {p ** m for (_, p, m) in instances}
    assert {16, 25, 64, 81, 256, 343, 625, 729, 1024} <= qs  # required minimum
    with _Budget(3, f"triple agreement on {len(instances)} instances q <= 1500", 60.0):
        for (k, p, m) in instances:
            g = GraphSpec(k, p, m)
            closed = gp_spectrum(g)
            assert char_sum_spectrum(g) == closed, (k, p, m)
            assert dense_spectrum(build_graph(g)) == closed, (k, p, m)


def test_criterion_4_typo_adjudication():
    with _Budget(4, "oracle adjudication of printed-example typos", 5.0):
        s16 = char_sum_spectrum(GraphSpec(3, 2, 4))
        assert (-3, 5) in s16.entries          # not [-2]^5
        assert all(v != -2 for v, _ in s16.entries)
        assert gp_spectrum(GraphSpec(3, 2, 4)) == s16
        s625 = char_sum_spectrum(GraphSpec(3, 5, 4))
        assert {v for v, _ in s625.nonprincipal()} == {8, -17}   # not {24, -17}
        assert gp_spectrum(GraphSpec(3, 5, 4)) == s625


def test_criterion_5_weight_eigenvalue_correspondence():
    instances = in_scope_instances(10 ** 4)
    with _Budget(5, f"weight-eigenvalue correspondence on {len(instances)} instances q <= 1e4", 120.0):
        for (k, p, m) in instances:
            assert weight_eigenvalue_check(k, p, m), (k, p, m)


def test_criterion_6_equienergy_verdicts():
    with _Budget(6, "equienergy verdicts with criterion agreement", 5.0):
        for (k, p, m), expected in [((3, 7, 6), True), ((4, 5, 8), True),
                                    ((3, 7, 3), False), ((4, 5, 4), False)]:
            report = is_complementary_equienergetic(gp_spectrum(GraphSpec(k, p, m)))
            assert report.equienergetic is expected, (k, p, m)
            assert report.criterion_agrees, (k, p, m)


def test_criterion_7_semiprimitive_law():
    with _Budget(7, "semiprimitive equienergy iff m = 2 (mod 4), exact energies", 10.0):
        for k, ps in ((3, (2, 5)), (4, (3, 7))):
            for p in ps:
                for m in (2, 4, 6, 8):
                    if theorem_hypotheses(k, p, m) is HypothesisCase.OUT_OF_SCOPE:
                        continue  # q = 4 and q = 9 exclusions
                    s = gp_spectrum(GraphSpec(k, p, m))
                    report = is_complementary_equienergetic(s)
                    assert report.equienergetic is (m % 4 == 2), (k, p, m)
                    assert semiprimitive_energy(k, p, m) == s.energy(), (k, p, m)


def test_criterion_8_family_search():
    with _Budget(8, "family hit sets and deep probes to ell = 200", 30.0):
        hits = [w.ell for w in find_equienergetic_family(31, 3, t=1, s=0, ell_max=5)
                if w.equienergetic]
        assert hits == [4, 5]
        hits = [w.ell for w in find_equienergetic_family(7, 3, t=3, s=1, ell_max=4)
                if w.equienergetic]
        assert hits == [1, 3]
        hits = [w.ell for w in find_equienergetic_family(5, 4, ell_max=5) if w.equienergetic]
        assert hits == [2, 5]
        # deep probes: the lift invariants are asserted inside the search
        for p in (7, 13, 31):
            witnesses = find_equienergetic_family(p, 3, ell_max=200)
            assert any(w.equienergetic for w in witnesses), p
        for p in (5, 13, 17):
            witnesses = find_equienergetic_family(p, 4, ell_max=200)
            assert any(w.equienergetic for w in witnesses), p


def test_criterion_9_property_suites():
    with _Budget(9, "spectrum/lift/bounds/interval property checks", 60.0):
        # Spectrum invariants on GP and GP+ spectra
        for (k, p, m) in in_scope_instances(10 ** 5):
            q = p ** m
            n = (q - 1) // k
            for s in (gp_spectrum(GraphSpec(k, p, m)),
                      gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM))):
                assert sum(e for _, e in s.entries) == q
                assert sum(v * e for v, e in s.entries) == s.loops
                assert sum(v * v * e for v, e in s.entries) == q * n
                assert dict(s.entries)[s.principal] == 1
        # lift invariants to level 64
        for (p, t, s) in ((7, 3, 0), (7, 3, 1), (31, 1, 0)):
            for lvl in levels(p, 3, 64, t, s):
                a, b = lvl.pair
                assert a * a + 27 * b * b == 4 * p ** (t * lvl.ell + s)
                assert a % 3 == 1 and math.gcd(a, p) == 1
        for p in (5, 13):
            for lvl in levels(p, 4, 64):
                c, d = lvl.pair
                assert c * c + 4 * d * d == p ** (2 * lvl.ell)
                assert c % 4 == 1 and math.gcd(c, p) == 1
        # bounds sandwich on every case-(a) instance
        for (k, p, m) in in_scope_instances(10 ** 6):
            if is_semiprimitive(k, p):
                continue
            lower, upper = energy_bounds(k, p, m)
            assert lower <= gp_spectrum(GraphSpec(k, p, m)).energy() <= upper, (k, p, m)
        # interval hit implies equienergy on every witness
        for (p, k, s) in ((7, 3, 1), (31, 3, 0), (5, 4, 0), (17, 4, 0)):
            for w in find_equienergetic_family(p, k, s=s, ell_max=200):
                assert not w.interval_hit or w.equienergetic
