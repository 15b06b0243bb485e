"""Lifting recursions: table rows, norm/congruence invariants, closed forms."""
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import primes_upto
from gpspec import dioph, lift
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
    """The level pairs base_ab * (x0, y0)^ell: one multiplication by the base
    pair a level."""

    def test_one_step_from_base_7(self):
        assert [lvl.pair for lvl in levels(7, 3, 2)] == [mul_pair((-2, 0), xy, 27)
                                                         for xy in ((10, 3), (-143, 60))]
        assert (-143) ** 2 + 27 * 60 ** 2 == 7 ** 6

    def test_one_step_from_base_31(self):
        assert [lvl.pair for lvl in levels(31, 3, 2)] == [mul_pair((-2, 0), xy, 27)
                                                          for xy in ((-2, 1), (-23, -4))]

    def test_rejects_wrong_t(self):
        with pytest.raises(BadInput):
            list(levels(7, 3, 1, t=2))

    def test_norm_advances_one_level(self):
        for lvl in levels(7, 3, 11):
            a, b = lvl.pair
            assert a ** 2 + 27 * b ** 2 == 4 * 7 ** (3 * lvl.ell)


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
        assert level(5, 4, 1).pair == family_base(5, 4, None, 0)[1] == (-3, 2)

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
        base_ab = family_base(p, 3, None, 0)[2]
        for lvl in levels(p, 3, 20):
            assert lvl.pair == mul_pair(base_ab, power_components(x0, y0, lvl.ell, 27), 27)

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

        c, d = solve_cd(p, 1)
        for lvl in levels(p, 4, 20):
            assert lvl.pair == power_components(c, d, lvl.ell, 4)

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
        t, (x0, y0), base_ab = family_base(p, 3, None, s)
        got = list(levels(p, 3, 40, s=s))
        assert [lvl.ell for lvl in got] == list(range(1, 41))
        for lvl in got:
            e = t * lvl.ell + s
            assert (lvl.t, lvl.m, lvl.root, lvl.q) == (t, 3 * e, p ** e, p ** (3 * e))
            assert level_exponent(p, 3, lvl.ell, s=s) == level_exponent(p, 3, lvl.ell, t, s) == lvl.m
            assert lvl.pair == mul_pair(base_ab, power_components(x0, y0, lvl.ell, 27), 27)
        assert derived_ab(p, t, s, 40) == got[-1].pair

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_k4_levels_match_derived_cd(self, p):
        _, (c1, d1), base_ab = family_base(p, 4, None, 0)
        got = list(levels(p, 4, 40))
        for lvl in got:
            assert lvl.pair == mul_pair(base_ab, power_components(c1, d1, lvl.ell, 4), 4)
            assert (lvl.t, lvl.m, lvl.root, lvl.q) == (1, 4 * lvl.ell, p ** lvl.ell, p ** (4 * lvl.ell))
            assert level_exponent(p, 4, lvl.ell) == level_exponent(p, 4, lvl.ell, 1, 0) == lvl.m
        assert derived_cd(p, 40) == got[-1].pair

    def test_bench_views_agree_with_levels(self):
        lvl = level(7, 3, 2, 3, 1)
        assert derived_spectrum_k3(7, 3, 1, 2) == gp_spectrum(GraphSpec(3, 7, lvl.m))
        assert derived_spectrum_k4(5, 2) == gp_spectrum(GraphSpec(4, 5, 8))
        assert k3_base_pairs(7, 1) == family_base(7, 3, None, 1) == (3, (10, 3), (1, 1))
        assert step_xy(7, 3, (10, 3)) == power_components(10, 3, 2, 27) == (-143, 60)
        assert mul_pair((1, 1), (-143, 60), 27) == lvl.pair

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

    @pytest.mark.parametrize("k", [2, 5])
    def test_rejects_k_outside_3_4(self, k):
        for call in (lambda: family_base(13, k, None, 0), lambda: level_exponent(13, k, 1),
                     lambda: list(levels(13, k, 2))):
            with pytest.raises(BadInput, match=f"k = {k} not in"):
                call()

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


def _representations(target, coeff):
    """Every integer pair (x, y) with x^2 + coeff*y^2 = target, all signs."""
    out = set()
    for y in range(math.isqrt(target // coeff) + 1):
        x = math.isqrt(target - coeff * y * y)
        if x * x + coeff * y * y == target:
            out |= {(x, y), (-x, y), (x, -y), (-x, -y)}
    return sorted(out)


def _mixing(base, coeff, a1, a2):
    """|alpha conj(gamma)| of the sequence through A_1 = a1, A_2 = a2 that
    obeys the recurrence of the base pair: A_l = alpha pi^l + gamma conj(pi)^l,
    with a pair (a, b) read as a + b i sqrt(coeff)."""
    root = math.sqrt(coeff)
    pi = complex(base[0], base[1] * root)
    pib = pi.conjugate()
    z1, z2 = (complex(a, b * root) for a, b in (a1, a2))
    # alpha pi + gamma pib = z1 and alpha pi^2 + gamma pib^2 = z2
    det = pi * pib * (pib - pi)
    alpha = (z1 * pib * pib - z2 * pib) / det
    gamma = (z2 * pi - z1 * pi * pi) / det
    return abs(alpha * gamma.conjugate())


class TestLevelCheck:
    """``levels`` checks the exact norm at levels 1 to 3 only, the two-term
    recurrence from level 3 on, and admissibility at every level; the lift
    module docstring argues that these together imply the norm at every level."""

    @pytest.mark.parametrize("p,k,s", [(31, 3, 0), (7, 3, 1), (7, 3, 2), (5, 4, 0), (13, 4, 0)])
    def test_two_levels_do_not_suffice_and_three_do(self, p, k, s):
        # every integer sequence obeying the recurrence whose first two terms
        # have the target norms: some fail at level 3, and those that pass
        # levels 1 to 3 pass every level up to 12
        t, base, _ = family_base(p, k, None, s)
        coeff, n = dioph.form_coeff(k), dioph.base_norm(p, k, t, *base)
        target = [dioph.norm_target(p, k, t * ell + s) for ell in range(13)]
        failed = passed = 0
        for a1 in _representations(target[1], coeff):
            for a2 in _representations(target[2], coeff):
                seq = [None, a1, a2]
                for _ in range(3, 13):
                    seq.append(tuple(2 * base[0] * u - n * v for u, v in zip(seq[-1], seq[-2])))
                norms = [x * x + coeff * y * y for x, y in seq[1:]]
                mixing = _mixing(base, coeff, a1, a2) / target[1]
                if norms[2] != target[3]:
                    failed += 1
                    assert mixing > 1e-9
                else:
                    passed += 1
                    assert mixing < 1e-9
                    assert norms == target[1:]
        assert failed and passed

    def test_every_base_square_is_not_real(self):
        # x0 y0 != 0 for the base of every family with p < 2000
        for p in primes_upto(2000):
            for k in (3, 4):
                if p % k == 1:
                    t, (x0, y0), _ = family_base(p, k, None, 0)
                    assert x0 * y0 != 0
                    assert dioph.base_norm(p, k, t, x0, y0) == x0 * x0 + dioph.form_coeff(k) * y0 * y0

    @pytest.mark.parametrize("args", [(31, 3, 1, -2, 2), (5, 4, 1, 3, 1),     # wrong norm
                                      (7, 3, 2, 7, 0), (5, 4, 1, 5, 0)])      # real square
    def test_base_norm_rejects_wrong_or_real_bases(self, args):
        with pytest.raises(AssertionError, match="does not have norm"):
            dioph.base_norm(*args)

    @pytest.mark.parametrize("p,k,s", [(31, 3, 0), (7, 3, 1), (13, 4, 0)])
    def test_shifted_pair_is_caught_at_its_level(self, p, k, s, monkeypatch):
        # a mul_pair that shifts the pair of level 500 by (k, 0), which keeps
        # it admissible: the recurrence names that level, before it is yielded
        wrong = level(p, k, 500, s=s).pair
        real = lift.mul_pair

        def shifted(u, v, coeff):
            w = real(u, v, coeff)
            return (w[0] + k, w[1]) if w == wrong else w

        monkeypatch.setattr(lift, "mul_pair", shifted)
        seen = []
        with pytest.raises(AssertionError, match="recurrence .* at level 500 "):
            for lvl in levels(p, k, 600, s=s):
                seen.append(lvl.ell)
        assert seen == list(range(1, 500))

    def test_negated_sequence_is_caught_at_level_1(self, monkeypatch):
        # -A_l obeys the recurrence and has the target norm, but x = -1 (mod k);
        # the patch negates the first multiplication, base * (-2, 0)
        real = lift.mul_pair
        monkeypatch.setattr(lift, "mul_pair", lambda u, v, c: tuple(-w for w in real(u, v, c))
                            if v == (-2, 0) else real(u, v, c))
        with pytest.raises(AssertionError, match="congruence"):
            list(levels(31, 3, 1))

    def test_admissibility_is_checked_at_every_level(self, monkeypatch):
        # through check_pair at levels 1 to 3, by check_admissible alone after
        seen = []
        real = dioph.check_admissible
        monkeypatch.setattr(dioph, "check_admissible",
                            lambda p, k, e, x: seen.append(e) or real(p, k, e, x))
        assert len(list(levels(7, 3, 10, s=1))) == 10
        assert seen == [3 * ell + 1 for ell in range(1, 11)]
        with pytest.raises(AssertionError, match="congruence"):
            real(31, 3, 900, -level(31, 3, 900).pair[0])
        with pytest.raises(AssertionError, match="coprimality"):
            real(31, 3, 900, 31)

    def test_every_level_passes_check_pair(self):
        # the exact check of every pair the cheap one passed, p < 500, ell <= 60
        for p in primes_upto(500):
            for k in (3, 4):
                if p % k != 1:
                    continue
                t = family_base(p, k, None, 0)[0]
                for s in range(t if k == 3 else 1):
                    for lvl in levels(p, k, 60, s=s):
                        check_pair(p, k, t * lvl.ell + s, *lvl.pair)

    @pytest.mark.parametrize("p,k,s,ell_max", [(31, 3, 0, 900), (7, 3, 1, 500)])
    def test_norm_is_checked_at_three_levels_only(self, p, k, s, ell_max, monkeypatch):
        # a deterministic cost guard: the squarings and the fresh p**e of the
        # exact norm check run at levels 1 to 3, not at every level
        calls = {"norm_target": 0, "check_pair": 0}
        for name in calls:
            real = getattr(dioph, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(dioph, name, counted)
        assert len(list(levels(p, k, ell_max, s=s))) == ell_max
        assert calls == {"norm_target": 3, "check_pair": 3}

    def test_one_multiplication_a_level(self, monkeypatch):
        # a deterministic cost guard: each level pair is the previous one times
        # the base, with no second pair kept beside it
        calls = 0
        real = lift.mul_pair

        def counted(u, v, coeff):
            nonlocal calls
            calls += 1
            return real(u, v, coeff)

        monkeypatch.setattr(lift, "mul_pair", counted)
        assert len(list(levels(31, 3, 900))) == 900
        assert calls == 900
