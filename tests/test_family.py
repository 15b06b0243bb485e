"""Family search: interval tests, hit sets, and witness invariants."""
import math
import sys

import pytest

from conftest import primes_upto
from gpspec.errors import BadInput, NoSolution
from gpspec.family import decimal_digits, find_equienergetic_family, interval_condition
from gpspec.lift import family_base, levels
from referees import power_components


class TestIntervalK3:
    """``interval_condition`` for k = 3 on the level pair (a, b); k = 3 does
    not read the root."""

    def test_s_zero_formula(self):
        # 0 < x < 9y on the power (x, y) is 9b < a < 0 on (a, b) = (-2x, -2y):
        # the base (10, 3) of p = 7 satisfies 0 < 10 < 27
        assert interval_condition(3, 0, 343, -20, -6) is True
        assert interval_condition(3, 0, 343, 20, -6) is False    # x = -10
        assert interval_condition(3, 0, 1, -56, -6) is False     # x = 28

    def test_s_positive_formula(self):
        # a > 9b > 0 on the level pair: (10, 3) fails (10 < 27), (13, 1) passes
        assert interval_condition(3, 1, 343, 10, 3) is False
        assert interval_condition(3, 1, 1, 13, 1) is True

    def test_boundaries_are_strict(self):
        assert interval_condition(3, 0, 1, -2, 0) is False     # y = 0
        assert interval_condition(3, 1, 1, 1, 0) is False
        assert interval_condition(3, 0, 1, -18, -2) is False   # x = 9y excluded
        assert interval_condition(3, 1, 1, 9, 1) is False


class TestIntervalK4:
    """``interval_condition`` for k = 4: c > 0, d > 0 and 2c < r."""

    def test_sign_adjusted_pair(self):
        # (c, d) = (7, 12), r = 25: 14 < 25, as 3*49 < 4*144
        assert interval_condition(4, 0, 25, 7, 12) is True

    def test_boundary(self):
        assert interval_condition(4, 0, 1, 1, 0) is False      # d = 0
        assert interval_condition(4, 0, 4, 0, 2) is False      # c = 0
        # no integer pair has 2c = r (4d^2 = 3c^2), but the inequality is strict
        assert interval_condition(4, 0, 14, 7, 12) is False

    def test_strict_quadrant(self):
        # c < 0 fails the quadrant test; (3, 2), r = 5, fails 6 < 5 (27 > 16)
        assert interval_condition(4, 0, 5, -3, 2) is False
        assert interval_condition(4, 0, 5, 3, 2) is False


def test_interval_condition_is_the_papers_form():
    # every family with p < 500 (k = 3 at every offset s < t, and k = 4),
    # levels 1 to 60: the level-pair form equals the paper's form, with the
    # s = 0 power (x, y) made by the binomial expansion
    hits = misses = 0
    for p in primes_upto(500):
        for k in (3, 4):
            if p % k != 1:
                continue
            t, (x0, y0), _ = family_base(p, k, None, 0)
            for s in range(t if k == 3 else 1):
                for lvl in levels(p, k, 60, s=s):
                    a, b = lvl.pair
                    if k == 4:
                        paper = a > 0 and b > 0 and 4 * b * b > 3 * a * a
                    elif s == 0:
                        x, y = power_components(x0, y0, lvl.ell, 27)
                        paper = 0 < x < 9 * y
                    else:
                        paper = a > 9 * b > 0
                    assert interval_condition(k, s, lvl.root, a, b) is paper, (p, k, s, lvl.ell)
                    hits += paper
                    misses += not paper
    assert hits and misses


class TestFindFamilyK3:
    def test_hits_p31(self):
        witnesses = find_equienergetic_family(31, 3, t=1, s=0, ell_max=5)
        assert [w.ell for w in witnesses if w.equienergetic] == [4, 5]

    def test_hits_p7_s1(self):
        witnesses = find_equienergetic_family(7, 3, t=3, s=1, ell_max=4)
        assert [w.ell for w in witnesses if w.equienergetic] == [1, 3]

    def test_empty_range(self):
        assert find_equienergetic_family(13, 3, ell_max=0) == []

    def test_rejects_wrong_t(self):
        with pytest.raises(BadInput):
            find_equienergetic_family(31, 3, t=2, s=0, ell_max=3)

    @pytest.mark.parametrize("k", [2, 5])
    def test_rejects_k_outside_3_4_before_any_level(self, k):
        with pytest.raises(BadInput, match=f"k = {k} not in"):
            find_equienergetic_family(13, k, ell_max=0)

    def test_propagates_not_found(self, monkeypatch):
        """No minimal exponent found (no even pair at t <= 3): NoSolution."""
        from gpspec import dioph

        monkeypatch.setattr(dioph, "_k3_pair", lambda p, power: (1, 1))
        with pytest.raises(NoSolution):
            find_equienergetic_family(7, 3, ell_max=3)


class TestFindFamilyK4:
    def test_hits_p5(self):
        witnesses = find_equienergetic_family(5, 4, ell_max=5)
        assert [w.ell for w in witnesses if w.equienergetic] == [2, 5]

    def test_rejects_offsets(self):
        with pytest.raises(BadInput):
            find_equienergetic_family(5, 4, s=1, ell_max=3)


class TestWitnessProperties:
    @pytest.mark.parametrize("p,k,s", [(7, 3, 0), (7, 3, 1), (7, 3, 2), (13, 3, 0),
                                       (31, 3, 0), (5, 4, 0), (13, 4, 0), (17, 4, 0)])
    def test_deep_probe_finds_a_hit_and_interval_implies_equienergy(self, p, k, s):
        witnesses = find_equienergetic_family(p, k, s=s, ell_max=200)
        assert len(witnesses) == 200
        assert any(w.equienergetic for w in witnesses)
        for w in witnesses:
            if w.interval_hit:
                assert w.equienergetic
        # interval hits occur and are strictly rarer than equienergy hits
        assert any(w.interval_hit for w in witnesses)

    def test_witness_pairs_satisfy_norm_identities(self):
        for w in find_equienergetic_family(7, 3, s=1, ell_max=10):
            a, b = w.pair
            assert a * a + 27 * b * b == 4 * 7 ** (w.t * w.ell + w.s)
            assert a % 3 == 1 and math.gcd(a, 7) == 1
        for w in find_equienergetic_family(13, 4, ell_max=10):
            c, d = w.pair
            assert c * c + 4 * d * d == 13 ** (2 * w.ell)
            assert c % 4 == 1 and math.gcd(c, 13) == 1

    def test_q_digits(self):
        w = find_equienergetic_family(31, 3, ell_max=2)[-1]
        assert w.q_digits == len(str(31 ** 6))

    def test_q_digits_past_the_str_limit(self):
        # level 962 of the p = 31 family is where len(str(q)) used to fail
        w = find_equienergetic_family(31, 3, ell_max=1000)[-1]
        assert (w.ell, w.q_digits) == (1000, 4475)

    def test_sign_decision_matches_spectrum_energies(self):
        from gpspec.energy import is_complementary_equienergetic
        from gpspec.lift import level_exponent
        from gpspec.spectra import GraphSpec, spectrum_of

        for p, k, s in ((31, 3, 0), (7, 3, 1), (7, 3, 2), (5, 4, 0), (13, 4, 0), (17, 4, 0)):
            for w in find_equienergetic_family(p, k, s=s, ell_max=4):
                g = GraphSpec(k, p, level_exponent(p, k, w.ell, s=s))
                assert is_complementary_equienergetic(spectrum_of(g)).equienergetic is w.equienergetic


class TestDecimalDigits:
    @pytest.fixture
    def unlimited_str(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)

    def test_matches_str(self, unlimited_str):
        cases = list(range(1, 3000))
        cases += [10 ** e + j for e in range(1, 6000, 61) for j in (-1, 0, 1)]
        cases += [2 ** e + j for e in range(1, 20000, 97) for j in (-1, 0, 1)]
        cases += [p ** e for p in (5, 7, 13, 31) for e in range(1, 6000, 89)]
        for n in cases:
            assert decimal_digits(n) == len(str(n)), n

    def test_family_levels_match_str(self, unlimited_str):
        for w in find_equienergetic_family(5, 4, ell_max=1600)[::37]:
            assert w.q_digits == len(str(5 ** (4 * w.ell)))
