"""Closed spectral formulas: worked examples, invariants, recovery identities."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_scope_instances
from gpspec import spectra
from gpspec.dioph import solve_ab, solve_cd
from gpspec.errors import HasLoops, NonIntegralEigenvalue, OutOfScope
from gpspec.ff import HypothesisCase, theorem_hypotheses
from gpspec.spectra import (GraphSpec, Spectrum, Variant, complement_spectrum, gp_spectrum,
                            gpsum_spectrum, k3_case_a_eigenvalues, k4_case_a_eigenvalues,
                            spectrum_of)


def spec_of(entries, principal, order, loops=0):
    return Spectrum.from_pairs(entries, principal, order, loops)


class TestSpectrumType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum(((1, 10), (5, 1), (-3, 5)), 5, 16)

    def test_rejects_bad_mult_sum(self):
        with pytest.raises(ValueError):
            Spectrum(((5, 1), (1, 9), (-3, 5)), 5, 16)

    def test_rejects_principal_with_multiplicity(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs([(3, 2), (-1, 2)], 3, 4)

    def test_rejects_nonzero_trace_for_loopless(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs([(2, 1), (1, 3)], 2, 4)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            Spectrum(((2, 1), (-1, 0)), 2, 1)

    def test_rejects_wrong_second_moment(self):
        # trace 2 + 0 - 2 = 0, but the squares sum to 4 + 0 + 2 = 6, not 4 * 2
        with pytest.raises(ValueError, match="second moment"):
            Spectrum(((2, 1), (0, 1), (-1, 2)), 2, 4)

    def test_exact_div_rejects_a_remainder(self):
        with pytest.raises(NonIntegralEigenvalue, match="7 is not divisible by 2"):
            spectra._exact_div(7, 2)

    def test_from_pairs_merges_and_sorts(self):
        s = Spectrum.from_pairs([(-1, 2), (3, 1), (-1, 1)], 3, 4)
        assert s.entries == ((3, 1), (-1, 3))
        assert s.energy() == 6

    def test_nonprincipal_view(self):
        s = Spectrum.from_pairs([(3, 1), (-1, 3)], 3, 4)
        assert s.nonprincipal() == ((-1, 3),)


class TestGPk3CaseA:
    def test_gp_3_343(self):
        s = gp_spectrum(GraphSpec(3, 7, 3))
        assert s.entries == ((114, 1), (9, 114), (2, 114), (-12, 114))
        assert s.principal == 114 and s.order == 343 and s.loops == 0

    def test_gp_3_7_power_6(self):
        s = gp_spectrum(GraphSpec(3, 7, 6))
        assert s.entries == ((39216, 1), (212, 39216), (-33, 39216), (-180, 39216))

    def test_formula_order_eigenvalues(self):
        # (a, b) = (1, 1) at r = 7: lambda1 = 2, lambda2 = -12, lambda3 = 9
        assert k3_case_a_eigenvalues(7, 1, 1) == (2, -12, 9)


class TestGPk3CaseB:
    """The strongly regular branch; expected values fixed against the
    character-sum oracle (adjudicating the typo'd printed examples)."""

    @pytest.mark.parametrize("p,m,entries", [
        (2, 4, ((5, 1), (1, 10), (-3, 5))),        # not [-2]^5
        (2, 6, ((21, 1), (5, 21), (-3, 42))),
        (2, 8, ((85, 1), (5, 170), (-11, 85))),    # not [-3]^85
        (5, 2, ((8, 1), (3, 8), (-2, 16))),
        (5, 4, ((208, 1), (8, 416), (-17, 208))),  # not [24]^416
    ])
    def test_examples(self, p, m, entries):
        assert gp_spectrum(GraphSpec(3, p, m)).entries == entries

    def test_exactly_three_distinct_eigenvalues(self):
        for (k, p, m) in in_scope_instances(10 ** 5):
            if theorem_hypotheses(k, p, m) is HypothesisCase.SEMIPRIMITIVE:
                assert len(gp_spectrum(GraphSpec(k, p, m)).entries) == 3


class TestGPk4:
    def test_gp_4_625(self):
        s = gp_spectrum(GraphSpec(4, 5, 4))
        assert s.entries == ((156, 1), (16, 156), (1, 156), (-4, 156), (-14, 156))

    def test_gp_4_5_power_8(self):
        s = gp_spectrum(GraphSpec(4, 5, 8))
        assert s.entries == ((97656, 1), (456, 97656), (-69, 97656), (-144, 97656), (-244, 97656))

    @pytest.mark.parametrize("p,m,entries", [
        (3, 4, ((20, 1), (2, 60), (-7, 20))),
        (3, 6, ((182, 1), (20, 182), (-7, 546))),
        (3, 8, ((1640, 1), (20, 4920), (-61, 1640))),
    ])
    def test_case_b_examples(self, p, m, entries):
        assert gp_spectrum(GraphSpec(4, p, m)).entries == entries

    def test_formula_order_eigenvalues(self):
        assert k4_case_a_eigenvalues(5, -3, 2) == (16, -4, -14, 1)

    def test_case_a_has_five_distinct_eigenvalues(self):
        for (k, p, m) in in_scope_instances(10 ** 6, ks=(4,)):
            if theorem_hypotheses(k, p, m) is HypothesisCase.CASE_A:
                assert len(gp_spectrum(GraphSpec(4, p, m)).entries) == 5


class TestOutOfScope:
    def test_wrong_divisibility(self):
        with pytest.raises(OutOfScope, match="does not divide"):
            gp_spectrum(GraphSpec(3, 7, 2))

    def test_k_not_supported(self):
        with pytest.raises(OutOfScope):
            gp_spectrum(GraphSpec(2, 5, 1))

    def test_wrong_variant_rejected(self):
        with pytest.raises(ValueError):
            gp_spectrum(GraphSpec(3, 7, 3, Variant.GPSUM))


class TestGPSum:
    def test_gpsum_3_343(self):
        s = gpsum_spectrum(GraphSpec(3, 7, 3, Variant.GPSUM))
        assert s.entries == ((114, 1), (12, 57), (9, 57), (2, 57), (-2, 57), (-9, 57), (-12, 57))
        assert s.loops == 114
        assert sum(v * e for v, e in s.entries) == 114  # trace = loop count

    def test_wrong_variant_rejected(self):
        with pytest.raises(ValueError, match="expects the GPSUM variant"):
            gpsum_spectrum(GraphSpec(3, 7, 3))

    def test_gpsum_even_q_equals_gp(self):
        g = GraphSpec(3, 2, 4, Variant.GPSUM)
        assert gpsum_spectrum(g) == gp_spectrum(GraphSpec(3, 2, 4))

    def test_gpsum_4_625(self):
        s = gpsum_spectrum(GraphSpec(4, 5, 4, Variant.GPSUM))
        assert s.entries == ((156, 1), (16, 78), (14, 78), (4, 78), (1, 78),
                             (-1, 78), (-4, 78), (-14, 78), (-16, 78))

    def test_gpsum_case_b_halving(self):
        # multiplicities 2n and n halve into +/- pairs of n and n/2
        s = gpsum_spectrum(GraphSpec(3, 5, 2, Variant.GPSUM))
        assert s.entries == ((8, 1), (3, 4), (2, 8), (-2, 8), (-3, 4))


class TestComplement:
    def test_complement_of_gp_3_343(self):
        s = complement_spectrum(gp_spectrum(GraphSpec(3, 7, 3)))
        assert s.entries == ((228, 1), (11, 114), (-3, 114), (-10, 114))

    def test_involution(self):
        s = gp_spectrum(GraphSpec(3, 7, 3))
        assert complement_spectrum(complement_spectrum(s)) == s

    def test_complement_of_gp_3_64(self):
        s = complement_spectrum(gp_spectrum(GraphSpec(3, 2, 6)))
        assert s.entries == ((42, 1), (2, 42), (-6, 21))

    def test_rejects_loops(self):
        with pytest.raises(HasLoops):
            complement_spectrum(gpsum_spectrum(GraphSpec(3, 7, 3, Variant.GPSUM)))

    def test_spectrum_of_dispatch(self):
        g = GraphSpec(3, 7, 3, Variant.GP_COMPLEMENT)
        assert spectrum_of(g) == complement_spectrum(gp_spectrum(GraphSpec(3, 7, 3)))
        g_even = GraphSpec(3, 2, 6, Variant.GPSUM_COMPLEMENT)
        assert spectrum_of(g_even) == complement_spectrum(gp_spectrum(GraphSpec(3, 2, 6)))
        with pytest.raises(HasLoops):
            spectrum_of(GraphSpec(3, 7, 3, Variant.GPSUM_COMPLEMENT))


class TestInvariants:
    """The four Spectrum invariants over every in-scope instance q <= 1e6.

    Spectrum construction enforces them; this suite recomputes them
    explicitly so a validation regression cannot mask a formula bug.
    """

    @pytest.mark.parametrize("k,p,m", in_scope_instances(10 ** 6))
    def test_gp_invariants(self, k, p, m):
        q = p ** m
        n = (q - 1) // k
        s = gp_spectrum(GraphSpec(k, p, m))
        assert s.principal == n
        assert sum(e for _, e in s.entries) == q
        assert sum(v * e for v, e in s.entries) == 0
        assert sum(v * v * e for v, e in s.entries) == q * n
        assert dict(s.entries)[n] == 1

    @pytest.mark.parametrize("k,p,m", in_scope_instances(10 ** 6))
    def test_gpsum_invariants(self, k, p, m):
        q = p ** m
        n = (q - 1) // k
        s = gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM))
        expected_loops = 0 if q % 2 == 0 else n
        assert s.loops == expected_loops
        assert sum(v * e for v, e in s.entries) == expected_loops
        assert sum(v * v * e for v, e in s.entries) == q * n

    @pytest.mark.parametrize("k,p,m", in_scope_instances(10 ** 6))
    def test_complement_invariants(self, k, p, m):
        q = p ** m
        s = complement_spectrum(gp_spectrum(GraphSpec(k, p, m)))
        assert s.principal == q - 1 - (q - 1) // k
        assert sum(e for _, e in s.entries) == q
        assert sum(v * e for v, e in s.entries) == 0
        assert sum(v * v * e for v, e in s.entries) == q * s.principal


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(in_scope_instances(10 ** 5)))
def test_complement_is_an_involution(instance):
    k, p, m = instance
    s = gp_spectrum(GraphSpec(k, p, m))
    assert complement_spectrum(complement_spectrum(s)) == s


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(in_scope_instances(10 ** 5)))
def test_gpsum_splits_into_symmetric_pairs(instance):
    k, p, m = instance
    s = gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM))
    if p == 2:
        return
    nonprincipal = dict(s.nonprincipal())
    for v, e in nonprincipal.items():
        assert nonprincipal.get(-v) == e


class TestRecoveryIdentities:
    """The quadratic-form pair can be read back off the eigenvalues."""

    @pytest.mark.parametrize("p,t", [(7, 1), (7, 2), (13, 1), (31, 1), (43, 1)])
    def test_k3_recovery(self, p, t):
        a, b = solve_ab(p, t)
        r = p ** t
        lam1, lam2, lam3 = k3_case_a_eigenvalues(r, a, b)
        assert (3 * lam1 + 1) == a * r
        assert (lam3 - lam2) == 3 * b * r

    @pytest.mark.parametrize("p,t", [(5, 1), (5, 2), (13, 1), (17, 1)])
    def test_k4_recovery(self, p, t):
        c, d = solve_cd(p, t)
        r = p ** t
        lam1, lam2, lam3, lam4 = k4_case_a_eigenvalues(r, c, d)
        assert lam3 - lam4 == c * r
        assert lam1 - lam2 == 2 * d * r
