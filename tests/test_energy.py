"""Energies, bounds, the sign criterion and the case A condition on the pair."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_scope_instances, primes_upto
from gpspec.dioph import QFRep, solve_ab, solve_cd
from gpspec.energy import (corollary_condition, energy_bounds,
                           is_complementary_equienergetic, semiprimitive_energy)
from gpspec.errors import OutOfScope
from gpspec.ff import HypothesisCase, theorem_hypotheses
from gpspec.spectra import GraphSpec, Spectrum, Variant, case_a_rep, gp_spectrum, gpsum_spectrum
from referees import is_semiprimitive

P_CASE_A = {k: [p for p in primes_upto(2000) if p % k == 1] for k in (3, 4)}


class TestEnergy:
    def test_gp_3_343(self):
        assert gp_spectrum(GraphSpec(3, 7, 3)).energy() == 2736  # 114*(1+9+2+12)

    def test_gp_3_64(self):
        assert gp_spectrum(GraphSpec(3, 2, 6)).energy() == 252  # 21 + 21*5 + 42*3

    def test_all_zero_spectrum(self):
        # the single-vertex graph: the only all-zero spectrum with a
        # multiplicity-1 principal (which the Spectrum type requires)
        assert Spectrum(((0, 1),), 0, 1).energy() == 0


class TestSemiprimitiveEnergy:
    @pytest.mark.parametrize("k,p,m,value", [
        (3, 2, 4, 30),    # 2*5*(2*4+1)/3
        (3, 2, 6, 252),   # 4*21*(8+1)/3
        (4, 3, 4, 280),   # 20*(3*9+1)/2
    ])
    def test_examples(self, k, p, m, value):
        assert semiprimitive_energy(k, p, m) == value

    def test_rejects_nonsemiprimitive(self):
        with pytest.raises(OutOfScope):
            semiprimitive_energy(3, 7, 3)

    def test_matches_direct_energy_everywhere(self):
        for (k, p, m) in in_scope_instances(10 ** 6):
            if is_semiprimitive(k, p):
                assert semiprimitive_energy(k, p, m) == gp_spectrum(GraphSpec(k, p, m)).energy()


class TestEnergyBounds:
    def test_gp_3_343_lower(self):
        lower, upper = energy_bounds(3, 7, 3)
        assert lower == 684  # 114 * (1 + 15/3) with a = 1
        assert lower <= 2736 <= upper

    def test_gp_4_625(self):
        lower, upper = energy_bounds(4, 5, 4)
        assert (lower, upper) == (4056, 9516)  # 156*26 and 156*(26 + (3+4)*5)
        assert lower <= gp_spectrum(GraphSpec(4, 5, 4)).energy() == 5616 <= upper

    def test_gp_3_7_power_6_sandwich(self):
        lower, upper = energy_bounds(3, 7, 6)
        e = gp_spectrum(GraphSpec(3, 7, 6)).energy()
        assert lower <= e <= upper

    def test_rejects_semiprimitive(self):
        with pytest.raises(OutOfScope):
            energy_bounds(3, 2, 4)

    def test_sandwich_on_every_case_a_instance(self):
        for (k, p, m) in in_scope_instances(10 ** 6):
            if theorem_hypotheses(k, p, m) is HypothesisCase.CASE_A:
                lower, upper = energy_bounds(k, p, m)
                e = gp_spectrum(GraphSpec(k, p, m)).energy()
                assert lower <= e <= upper, (k, p, m)

    def test_bounds_are_exact_rationals(self):
        lower, upper = energy_bounds(3, 7, 3)
        assert isinstance(lower, Fraction) and isinstance(upper, Fraction)
        # upper = n*(1 + 2/3*(a*r + 1) + 3*b*r) with n=114, a=b=1, r=7
        assert upper == 114 * (1 + Fraction(2, 3) * 8 + 21)


class TestEquienergeticDecision:
    def test_gp_3_7_power_6_is_equienergetic(self):
        report = is_complementary_equienergetic(gp_spectrum(GraphSpec(3, 7, 6)))
        assert report.equienergetic is True
        assert report.positive_nonprincipal_count == 1
        assert report.criterion_agrees is True

    def test_gp_3_343_is_not(self):
        report = is_complementary_equienergetic(gp_spectrum(GraphSpec(3, 7, 3)))
        assert report.equienergetic is False
        assert report.positive_nonprincipal_count == 2
        assert report.criterion_agrees is True
        assert report.energy == 2736
        assert report.complement_energy == 114 * (2 + 10 + 3 + 11)

    def test_gp_3_31_cubed_is_not(self):
        # non-principal {72, 41, -114}: two positive values
        report = is_complementary_equienergetic(gp_spectrum(GraphSpec(3, 31, 3)))
        assert report.positive_nonprincipal_count == 2
        assert report.equienergetic is False

    def test_gp_4_5_power_8_is_equienergetic(self):
        report = is_complementary_equienergetic(gp_spectrum(GraphSpec(4, 5, 8)))
        assert report.equienergetic is True and report.criterion_agrees is True

    def test_gp_4_625_is_not(self):
        report = is_complementary_equienergetic(gp_spectrum(GraphSpec(4, 5, 4)))
        assert report.equienergetic is False and report.criterion_agrees is True

    def test_criterion_agrees_on_every_nonsemiprimitive_instance(self):
        # the decision theorem itself, as a property
        for (k, p, m) in in_scope_instances(10 ** 6):
            if not is_semiprimitive(k, p):
                report = is_complementary_equienergetic(gp_spectrum(GraphSpec(k, p, m)))
                assert report.criterion_agrees, (k, p, m)

    def test_semiprimitive_law_m_2_mod_4(self):
        # complementary equienergy in the semiprimitive case holds iff m = 2 (mod 4)
        for k, ps in ((3, (2, 5)), (4, (3, 7))):
            for p in ps:
                for m in (2, 4, 6, 8):
                    if theorem_hypotheses(k, p, m) is HypothesisCase.OUT_OF_SCOPE:
                        continue
                    report = is_complementary_equienergetic(gp_spectrum(GraphSpec(k, p, m)))
                    assert report.equienergetic is (m % 4 == 2), (k, p, m)

    def test_gp_and_gpsum_are_equienergetic(self):
        for (k, p, m) in in_scope_instances(10 ** 5):
            e_gp = gp_spectrum(GraphSpec(k, p, m)).energy()
            e_sum = gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM)).energy()
            assert e_gp == e_sum, (k, p, m)


class TestCorollaryCondition:
    def test_k3_true_for_13_1(self):
        rep = solve_ab(7, 2)  # (13, 1) for q = 7^6
        assert corollary_condition(3, rep, 7 ** 6) is True

    def test_k3_false_for_1_1(self):
        rep = solve_ab(7, 1)  # (1, 1): 1 < 9 and a > 0
        assert corollary_condition(3, rep, 7 ** 3) is False

    def test_k4_true_for_minus7_12(self):
        rep = solve_cd(5, 2)  # (-7, 12): 3*49 < 4*144
        assert corollary_condition(4, rep, 5 ** 8) is True

    def test_k4_false_for_minus3_2(self):
        rep = solve_cd(5, 1)  # 27 > 16
        assert corollary_condition(4, rep, 5 ** 4) is False

    def test_rejects_mismatched_q(self):
        with pytest.raises(OutOfScope):
            corollary_condition(3, solve_ab(7, 1), 7 ** 6)
        with pytest.raises(OutOfScope):
            corollary_condition(4, QFRep(3, 28, 1, 1), 7 ** 3)
        with pytest.raises(OutOfScope):  # 5 = 1 + 4 is q^(1/2) for q = 25, not a fourth power
            corollary_condition(4, QFRep(4, 5, 1, 1), 25)
        # the norm target of q, but not admissible: x = 1 (mod k) or gcd(x, q) = 1 fails
        for k, rep, q in ((3, QFRep(3, 28, -1, 1), 7 ** 3),
                          (4, QFRep(4, 25, 5, 0), 5 ** 4),
                          (4, QFRep(4, 25, 3, 2), 5 ** 4)):
            with pytest.raises(OutOfScope):
                corollary_condition(k, rep, q)

    @staticmethod
    def case_a_verdicts():
        """(instance, condition, equienergetic) over the in-scope case-(a) instances."""
        for (k, p, m) in in_scope_instances(10 ** 6):
            if theorem_hypotheses(k, p, m) is HypothesisCase.CASE_A:
                report = is_complementary_equienergetic(gp_spectrum(GraphSpec(k, p, m)))
                yield (k, p, m), corollary_condition(k, case_a_rep(k, p, m), p ** m), report.equienergetic

    def test_sufficiency(self):
        # condition true => equienergetic
        for instance, condition, equienergetic in self.case_a_verdicts():
            assert equienergetic or not condition, instance

    def test_necessity(self):
        # equienergetic => condition true; both verdicts occur
        verdicts = list(self.case_a_verdicts())
        for instance, condition, equienergetic in verdicts:
            assert condition or not equienergetic, instance
        assert len(verdicts) == 17 and {e for *_, e in verdicts} == {True, False}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), k=st.sampled_from([3, 4]), e=st.integers(1, 40))
def test_corollary_condition_is_the_spectrum_verdict(data, k, e):
    """In case A the pair's condition and the spectrum's energies agree, for
    p = 1 (mod k) below 2000 and q = p^(k e)."""
    p = data.draw(st.sampled_from(P_CASE_A[k]))
    m = k * e
    condition = corollary_condition(k, case_a_rep(k, p, m), p ** m)
    report = is_complementary_equienergetic(gp_spectrum(GraphSpec(k, p, m)))
    assert condition is report.equienergetic
