"""Lifting recursions: table rows, norm/congruence invariants, closed forms."""
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpspec.dioph import check_pair, minimal_t
from gpspec.errors import BadInput, BadP
from gpspec.lift import (derived_ab, derived_cd, derived_spectrum_k3, derived_spectrum_k4,
                         family_base, k3_base_pairs, level_exponent, levels, mul_pair, step_xy)
from gpspec.oracle import char_sum_spectrum
from gpspec.spectra import (GraphSpec, gp_spectrum, k3_case_a_eigenvalues, k4_case_a_eigenvalues,
                            spectrum_of)
from referees import power_components

# (ell, a, b, non-principal eigenvalues) rows of the p=7, t=3, s=1 family
TABLE1 = [
    (0, 1, 1, {9, 2, -12}),
    (1, -71, 13, {75231, -18408, -56824}),
    (2, -1763, -83, {344515488, 139453281, -483968770}),
    (3, -10907, -6119, {3106191996420, -1026985846948, -2079206149473}),
    (4, 386569, -93911, {12484762621341194, 7406034473827068, -19890797095168263}),
]

# (ell, a, b, non-principal eigenvalues) rows of the p=31, t=1, s=0 family
TABLE2 = [
    (1, 4, -2, {72, 41, -114}),
    (2, 46, 8, {14735, 4164, -18900}),
    (3, -308, 30, {2869866, 188676, -3058543}),
    (4, -194, -368, {539644104, -59721025, -479923080}),
    (5, 10324, 542, {98522451641, -25985726058, -72536725584}),
]

# (ell, c, d, non-principal eigenvalues) rows of the p=5 family
TABLE3 = [
    (1, -3, 2, {16, -4, -14, 1}),
    (2, -7, -12, {-144, 456, -244, -69}),
    (3, 117, 22, {6656, 1156, 3406, -11219}),
    (4, -527, 168, {202656, -7344, -262344, 67031}),
    (5, 237, -1558, {-2427344, 7310156, -2071094, -2811719}),
]


def level(p, k, ell, t=None, s=0):
    """Level ell of the family of GP(k, p), as ``levels`` makes it."""
    return deque(levels(p, k, ell, t, s), maxlen=1)[0]


def case_a_nonprincipal(k, lvl):
    """The non-principal entries of Spec GP(k, q) from the level pair alone."""
    lams = (k3_case_a_eigenvalues if k == 3 else k4_case_a_eigenvalues)(lvl.root, *lvl.pair)
    n = (lvl.q - 1) // k
    return tuple((lam, n) for lam in sorted(lams, reverse=True))


class TestStepXY:
    """The raw pairs (x0, y0)^ell: one multiplication by the base pair a level."""

    def test_one_step_from_base_7(self):
        assert [lvl.raw for lvl in levels(7, 3, 2)] == [(10, 3), (-143, 60)]
        assert (-143) ** 2 + 27 * 60 ** 2 == 7 ** 6

    def test_one_step_from_base_31(self):
        assert [lvl.raw for lvl in levels(31, 3, 2)] == [(-2, 1), (-23, -4)]

    def test_rejects_wrong_t(self):
        with pytest.raises(BadInput):
            list(levels(7, 3, 1, t=2))

    def test_norm_advances_one_level(self):
        for lvl in levels(7, 3, 11):
            x, y = lvl.raw
            assert x ** 2 + 27 * y ** 2 == 7 ** (3 * lvl.ell)


class TestDerivedAB:
    """The k = 3 level pairs (a, b) of ``levels``."""

    @pytest.mark.parametrize("ell,a,b,_", TABLE1)
    def test_table1_pairs(self, ell, a, b, _):
        pair = family_base(7, 3, 3, 1)[2] if ell == 0 else level(7, 3, ell, 3, 1).pair
        assert pair == (a, b)

    @pytest.mark.parametrize("ell,a,b,_", TABLE2)
    def test_table2_pairs(self, ell, a, b, _):
        assert level(31, 3, ell, 1, 0).pair == (a, b)

    def test_level_zero_only_for_positive_s(self):
        # the offset pair is the graph GP(3, p^(3s)) for s > 0 only
        assert family_base(7, 3, 3, 1)[2] == (1, 1)
        assert family_base(31, 3, 1, 0)[2] == (-2, 0)
        assert list(levels(31, 3, 0)) == []
        for args in ((31, 1, 0, 0), (7, 3, 1, 0)):
            with pytest.raises(BadInput):
                derived_ab(*args)

    def test_rejects_bad_offsets(self):
        with pytest.raises(BadInput):
            list(levels(7, 3, 1, 3, 3))
        with pytest.raises(BadInput):
            list(levels(7, 3, 1, 3, -1))

    @pytest.mark.parametrize("p,t,s", [(7, 3, 0), (7, 3, 1), (7, 3, 2), (31, 1, 0),
                                       (13, 3, 0), (13, 3, 1), (13, 3, 2), (43, 1, 0)])
    def test_invariants_up_to_level_64(self, p, t, s):
        for lvl in levels(p, 3, 64, t, s):
            a, b = lvl.pair
            assert a * a + 27 * b * b == 4 * p ** (t * lvl.ell + s)
            assert a % 3 == 1
            assert math.gcd(a, p) == 1


class TestDerivedSpectrumK3:
    """Spec GP(3, p^m) at the exponent ``level_exponent`` names, and the case A
    eigenvalues of each level pair against the closed form at that m."""

    @pytest.mark.parametrize("ell,a,b,lams", [r for r in TABLE1 if r[0] >= 1])
    def test_table1_eigenvalues(self, ell, a, b, lams):
        s = spectrum_of(GraphSpec(3, 7, level_exponent(7, 3, ell, 3, 1)))
        assert {v for v, _ in s.nonprincipal()} == lams

    @pytest.mark.parametrize("ell,a,b,lams", TABLE2)
    def test_table2_eigenvalues(self, ell, a, b, lams):
        s = spectrum_of(GraphSpec(3, 31, level_exponent(31, 3, ell)))
        assert {v for v, _ in s.nonprincipal()} == lams

    def test_principal_values(self):
        def principal(p, t, s, ell):
            return spectrum_of(GraphSpec(3, p, level_exponent(p, 3, ell, t, s))).principal
        assert principal(7, 3, 1, 1) == 4613762400
        assert principal(7, 3, 1, 2) == (7 ** 21 - 1) // 3
        assert principal(31, 1, 0, 1) == (31 ** 3 - 1) // 3

    @pytest.mark.parametrize("p,t,s,ell", [(7, 3, 1, 1), (7, 3, 0, 1), (31, 1, 0, 1),
                                           (31, 1, 0, 2), (13, 3, 0, 1), (43, 1, 0, 2),
                                           (7, 3, 2, 1), (7, 3, 2, 2), (13, 3, 1, 1),
                                           (13, 3, 2, 1)])
    def test_agrees_with_direct_formula(self, p, t, s, ell):
        # the s = 2 offsets need the conjugate base product: the naive sign
        # gives a1 = 49 for p = 7, divisible by p
        lvl = level(p, 3, ell, t, s)
        assert lvl.m == 3 * (t * ell + s)
        assert case_a_nonprincipal(3, lvl) == gp_spectrum(GraphSpec(3, p, lvl.m)).nonprincipal()

    @pytest.mark.parametrize("p,ell", [(31, 1), (43, 1)])
    def test_agrees_with_character_oracle(self, p, ell):
        # q = p^3 fits the character cap; triple agreement closes here
        lvl = level(p, 3, ell)
        assert case_a_nonprincipal(3, lvl) == char_sum_spectrum(GraphSpec(3, p, 3 * ell)).nonprincipal()


class TestDerivedCD:
    """The k = 4 level pairs (c, d) of ``levels``."""

    @pytest.mark.parametrize("ell,c,d,_", TABLE3)
    def test_table3_pairs(self, ell, c, d, _):
        assert level(5, 4, ell).pair == (c, d)

    def test_base_returned_unchanged(self):
        lvl = level(5, 4, 1)
        assert lvl.pair == lvl.raw == (-3, 2)

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_invariants_up_to_level_64(self, p):
        for lvl in levels(p, 4, 64):
            c, d = lvl.pair
            assert c * c + 4 * d * d == p ** (2 * lvl.ell)
            assert c % 4 == 1
            assert math.gcd(c, p) == 1


class TestDerivedSpectrumK4:
    """As TestDerivedSpectrumK3, for k = 4."""

    @pytest.mark.parametrize("ell,c,d,lams", TABLE3)
    def test_table3_eigenvalues(self, ell, c, d, lams):
        s = spectrum_of(GraphSpec(4, 5, level_exponent(5, 4, ell)))
        assert {v for v, _ in s.nonprincipal()} == lams

    def test_principal_values(self):
        assert spectrum_of(GraphSpec(4, 5, level_exponent(5, 4, 1))).principal == 156
        assert spectrum_of(GraphSpec(4, 5, level_exponent(5, 4, 2))).principal == 97656

    @pytest.mark.parametrize("p,ell", [(5, 1), (5, 2), (13, 1), (17, 1)])
    def test_agrees_with_direct_formula(self, p, ell):
        lvl = level(p, 4, ell)
        assert case_a_nonprincipal(4, lvl) == gp_spectrum(GraphSpec(4, p, 4 * ell)).nonprincipal()

    def test_agrees_with_character_oracle(self):
        for p in (5, 13):
            lvl = level(p, 4, 1)
            assert case_a_nonprincipal(4, lvl) == char_sum_spectrum(GraphSpec(4, p, 4)).nonprincipal()


class TestClosedForm:
    """Binomial-expansion closed forms referee the level recursions."""

    @pytest.mark.parametrize("p", [7, 31, 13])
    def test_xy_powers_match_binomial_expansion(self, p):
        t, x0, y0 = minimal_t(p)
        for lvl in levels(p, 3, 20):
            assert lvl.raw == power_components(x0, y0, lvl.ell, 27)

    @pytest.mark.parametrize("p,t,s", [(7, 3, 0), (7, 3, 1), (7, 3, 2), (31, 1, 0)])
    def test_derived_ab_matches_closed_form(self, p, t, s):
        _, (x0, y0), base_ab = family_base(p, 3, None, s)
        for lvl in levels(p, 3, 20, t, s):
            X, Y = power_components(x0, y0, lvl.ell, 27)
            if s == 0:
                expected = (-2 * X, -2 * Y)
            else:
                expected = mul_pair(base_ab, (X, Y), 27)
            assert lvl.pair == expected

    @pytest.mark.parametrize("p", [5, 13])
    def test_derived_cd_matches_closed_form(self, p):
        from gpspec.dioph import solve_cd

        rep = solve_cd(p, 1)
        for lvl in levels(p, 4, 20):
            assert lvl.pair == power_components(rep.x, rep.y, lvl.ell, 4)

    def test_power_components_norm_identity(self):
        for ell in range(0, 15):
            X, Y = power_components(10, 3, ell, 27)
            assert X * X + 27 * Y * Y == (10 ** 2 + 27 * 3 ** 2) ** ell


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from([7, 13, 31, 43, 61]), ell=st.integers(min_value=1, max_value=40))
def test_xy_norm_identity_random_levels(p, ell):
    t, x0, y0 = minimal_t(p)
    X, Y = power_components(x0, y0, ell, 27)
    assert X * X + 27 * Y * Y == p ** (t * ell)


class TestLevels:
    """The level iterator: exponents, roots and field sizes of each level, and
    the views over it that bench/tracing.py still wraps by name."""

    @pytest.mark.parametrize("p,s", [(7, 0), (7, 1), (7, 2), (31, 0), (13, 1), (43, 0)])
    def test_k3_levels_match_derived_ab(self, p, s):
        t = minimal_t(p)[0]
        got = list(levels(p, 3, 40, s=s))
        assert [lvl.ell for lvl in got] == list(range(1, 41))
        for lvl in got:
            e = t * lvl.ell + s
            assert (lvl.t, lvl.m, lvl.root, lvl.q) == (t, 3 * e, p ** e, p ** (3 * e))
            assert level_exponent(p, 3, lvl.ell, s=s) == level_exponent(p, 3, lvl.ell, t, s) == lvl.m
            assert lvl.raw == power_components(*minimal_t(p)[1:], lvl.ell, 27)
        assert derived_ab(p, t, s, 40) == got[-1].pair

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_k4_levels_match_derived_cd(self, p):
        got = list(levels(p, 4, 40))
        for lvl in got:
            assert lvl.pair == lvl.raw
            assert (lvl.t, lvl.m, lvl.root, lvl.q) == (1, 4 * lvl.ell, p ** lvl.ell, p ** (4 * lvl.ell))
            assert level_exponent(p, 4, lvl.ell) == level_exponent(p, 4, lvl.ell, 1, 0) == lvl.m
        assert derived_cd(p, 40) == got[-1].pair

    def test_bench_views_agree_with_levels(self):
        lvl = level(7, 3, 2, 3, 1)
        assert derived_spectrum_k3(7, 3, 1, 2) == gp_spectrum(GraphSpec(3, 7, lvl.m))
        assert derived_spectrum_k4(5, 2) == gp_spectrum(GraphSpec(4, 5, 8))
        assert k3_base_pairs(7, 1) == family_base(7, 3, None, 1) == (3, (10, 3), (1, 1))
        assert step_xy(7, 3, (10, 3)) == lvl.raw == (-143, 60)

    def test_validates_before_the_first_level(self):
        with pytest.raises(BadInput):
            list(levels(7, 3, 0, t=2))
        with pytest.raises(BadInput):
            list(levels(7, 3, 0, s=3))

    @pytest.mark.parametrize("args,error", [((7, 3, 0), BadInput), ((7, 3, 1, 2), BadInput),
                                            ((7, 3, 1, None, 3), BadInput), ((5, 4, 1, 1, 1), BadInput),
                                            ((5, 3, 1), BadP), ((7, 4, 1), BadP)])
    def test_level_exponent_checks_like_levels(self, args, error):
        with pytest.raises(error):
            level_exponent(*args)

    def test_deep_level_by_pair_power(self):
        # level 3000 of the p = 7 family, against the norm it must have
        a, b = level(7, 3, 3000, 3, 1).pair
        assert a * a + 27 * b * b == 4 * 7 ** 9001


class TestInvariantCheckers:
    """The level pairs' check is ``dioph.check_pair`` (tests/test_dioph.py
    holds its property over the solved pairs)."""

    def test_k3_checker_rejects_bad_pair(self):
        with pytest.raises(AssertionError):
            check_pair(7, 3, 1, 2, 1)  # 4 + 27 != 28 is fine, but 2 != 1 mod 3
        with pytest.raises(AssertionError):
            check_pair(7, 3, 2, 1, 1)  # wrong norm

    def test_k4_checker_rejects_bad_pair(self):
        with pytest.raises(AssertionError):
            check_pair(5, 4, 1, 3, 2)  # 3 != 1 mod 4
