"""Quadratic-form representation solvers and cubic residuosity."""
import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import primes_upto
from gpspec import dioph
from gpspec.dioph import QFRep, minimal_t, solve_ab, solve_cd
from gpspec.errors import BadInput, BadP, NoSolution
from gpspec.ff import is_prime
from gpspec.lift import levels
from gpspec.spectra import GraphSpec, gp_spectrum
from referees import is_cubic_residue, power_components, scan_ab, scan_cd, scan_minimal_t, scan_steps

P1MOD3 = [p for p in primes_upto(100) if p % 3 == 1]
P1MOD4 = [p for p in primes_upto(100) if p % 4 == 1]

# the core's property domain: primes p < 500 with r <= 6 (k = 3) or t <= 4 (k = 4)
CORE_K3 = [(p, r) for p in primes_upto(500) if p % 3 == 1 for r in range(1, 7)]
CORE_K4 = [(p, t) for p in primes_upto(500) if p % 4 == 1 for t in range(1, 5)]
# the scan referee costs sqrt(target) steps, so it only checks the part of the
# domain it can finish; sympy's solution sets check the rest
SCAN_LIMIT = 10 ** 5
SCAN_K3 = [(p, r) for p, r in CORE_K3 if scan_steps(4 * p ** r, 27) <= SCAN_LIMIT]
SCAN_K4 = [(p, t) for p, t in CORE_K4 if scan_steps(p ** (2 * t), 4) <= SCAN_LIMIT]
# the least composite that passes ff.is_prime, with n = 1 (mod 12)
PSEUDOPRIME = 3317044064679887385961981


def _all_representations(target, coeff):
    """Every (x, y) with x >= 0, y >= 0 and x^2 + coeff*y^2 = target."""
    out = []
    for y in range(math.isqrt(target // coeff) + 1):
        x = math.isqrt(target - coeff * y * y)
        if x * x + coeff * y * y == target:
            out.append((x, y))
    return out


class TestSolveAB:
    def test_example_7_1(self):
        rep = solve_ab(7, 1)
        assert (rep.x, rep.y) == (1, 1)

    def test_example_7_2(self):
        rep = solve_ab(7, 2)
        assert (rep.x, rep.y) == (13, 1)

    def test_example_13_1_sign_fixed_by_congruence(self):
        rep = solve_ab(13, 1)
        assert (rep.x, rep.y) == (-5, 1)

    def test_rejects_wrong_residue(self):
        with pytest.raises(BadP):
            solve_ab(5, 1)
        with pytest.raises(BadP):
            solve_ab(21, 1)  # composite

    def test_admissible_solution_is_unique_up_to_sign(self):
        # across the in-scope primes, exactly one |a| passes the side conditions
        for p in P1MOD3:
            rep = solve_ab(p, 1)
            valid = [(x, y) for x, y in _all_representations(4 * p, 27)
                     if x % p != 0 and x % 3 != 0]
            assert len(valid) == 1
            assert (abs(rep.x), rep.y) == valid[0]

    @pytest.mark.parametrize("p", P1MOD3)
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_always_solvable_in_scope(self, p, r):
        rep = solve_ab(p, r)
        assert rep.x * rep.x + 27 * rep.y * rep.y == 4 * p ** r
        assert rep.x % 3 == 1
        assert math.gcd(rep.x, p) == 1
        assert rep.y > 0  # y = 0 would force p | x


class TestSolveCD:
    def test_example_5_1(self):
        rep = solve_cd(5, 1)
        assert (rep.x, rep.y) == (-3, 2)

    def test_example_13_1(self):
        rep = solve_cd(13, 1)
        assert (rep.x, rep.y) == (5, 6)

    def test_example_5_2(self):
        rep = solve_cd(5, 2)
        assert (rep.x, rep.y) == (-7, 12)

    def test_rejects_wrong_residue(self):
        with pytest.raises(BadP):
            solve_cd(3, 1)

    @pytest.mark.parametrize("p", P1MOD4)
    @pytest.mark.parametrize("t", [1, 2])
    def test_always_solvable_in_scope(self, p, t):
        rep = solve_cd(p, t)
        assert rep.x * rep.x + 4 * rep.y * rep.y == p ** (2 * t)
        assert rep.x % 4 == 1
        assert math.gcd(rep.x, p) == 1
        assert rep.y > 0

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_solvable_at_t3(self, p):
        rep = solve_cd(p, 3)
        assert rep.x * rep.x + 4 * rep.y * rep.y == p ** 6


class TestQFRep:
    def test_rejects_wrong_norm(self):
        with pytest.raises(BadInput):
            QFRep(3, 29, 1, 1)

    def test_rejects_negative_y(self):
        with pytest.raises(BadInput):
            QFRep(4, 25, 3, -2)

    def test_accepts_valid(self):
        rep = QFRep(3, 28, 1, 1)
        assert rep.target == 28

    @pytest.mark.parametrize("k", [2, 5])
    def test_rejects_k_outside_3_4(self, k):
        # (1, 1) represents 28 by the form of k = 3, but no form belongs to k = 2 or 5
        with pytest.raises(BadInput, match=f"k = {k} not in"):
            QFRep(k, 28, 1, 1)


class TestMinimalT:
    def test_example_7(self):
        assert minimal_t(7) == (3, 10, 3)

    def test_example_31(self):
        assert minimal_t(31) == (1, -2, 1)

    def test_example_13(self):
        assert minimal_t(13) == (3, -35, 6)

    def test_trivial_solution_excluded(self):
        # 7^2 = 49 = 7^2 + 27*0^2 has gcd(x, p) = 7, so t = 2 is skipped
        t, x, y = minimal_t(7)
        assert t == 3 and y != 0

    def test_no_even_pair_up_to_t3_is_no_solution(self, monkeypatch):
        monkeypatch.setattr(dioph, "_k3_pair", lambda p, power: (1, 1))
        with pytest.raises(NoSolution, match="t <= 3"):
            minimal_t(7)

    def test_rejects_wrong_residue(self):
        with pytest.raises(BadP):
            minimal_t(5)

    def test_minimal_t_is_one_or_three(self):
        for p in (p for p in primes_upto(500) if p % 3 == 1):
            t, x, y = minimal_t(p)
            assert t in (1, 3)
            assert x * x + 27 * y * y == p ** t
            assert x % 3 == 1 and x % p != 0 and y >= 0


P_K = {k: [p for p in primes_upto(500) if p % k == 1] for k in (3, 4)}


def _pair_at(p: int, k: int, e: int) -> tuple[int, int]:
    """The admissible pair of k at exponent e >= 0 by the solves."""
    if e == 0:
        return (-2, 0) if k == 3 else (1, 0)
    rep = solve_ab(p, e) if k == 3 else solve_cd(p, e)
    return rep.x, rep.y


def _solved_pairs(p: int, k: int, source: str, n: int) -> list[tuple[int, int, int]]:
    """(e, x, y) of the pairs one package route gives for p and n."""
    if source == "solve":
        return [(n, *_pair_at(p, k, n))]
    t = minimal_t(p)[0] if k == 3 else 1
    s = n % t
    return [(t * lvl.ell + s, *lvl.pair) for lvl in levels(p, k, 6, s=s)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), k=st.sampled_from([3, 4]),
       source=st.sampled_from(["solve", "levels"]), n=st.integers(1, 8))
def test_check_pair_accepts_solved_pairs_and_rejects_single_faults(data, k, source, n):
    """``dioph.check_pair`` passes every pair of solve_ab, solve_cd and levels
    for p < 500, and rejects one fault at a time: the norm off
    by one, x = -1 (mod k) (the pair (-x, y)), and p | x (p times the pair
    of the exponent whose target is p^2 times smaller)."""
    p = data.draw(st.sampled_from(P_K[k]))
    target = dioph.norm_target
    for e, x, y in _solved_pairs(p, k, source, n):
        dioph.check_pair(p, k, e, x, y)
        for shift in (-1, 1):
            with mock.patch.object(dioph, "norm_target", lambda *a: target(*a) + shift):
                with pytest.raises(AssertionError, match="norm"):
                    dioph.check_pair(p, k, e, x, y)
        with pytest.raises(AssertionError, match="congruence"):
            dioph.check_pair(p, k, e, -x, y)
        step = 2 if k == 3 else 1
        if e >= step:
            x1, y1 = _pair_at(p, k, e - step)
            assert (p * x1) ** 2 + dioph.form_coeff(k) * (p * y1) ** 2 == target(p, k, e)
            with pytest.raises(AssertionError, match="coprimality"):
                dioph.check_pair(p, k, e, p * x1, p * y1)


class TestCubicResidue:
    def test_examples(self):
        assert is_cubic_residue(2, 31) is True   # 2^10 = 1 (mod 31)
        assert is_cubic_residue(2, 43) is True   # 2^14 = 1 (mod 43)
        assert is_cubic_residue(2, 7) is False   # 2^2 = 4 (mod 7)

    def test_rejects_multiple_of_p(self):
        with pytest.raises(BadInput):
            is_cubic_residue(62, 31)

    def test_matches_explicit_cube_search(self):
        for p in primes_upto(60):
            cubes = {pow(x, 3, p) for x in range(1, p)}
            for a in range(1, p):
                assert is_cubic_residue(a, p) is (a in cubes), (a, p)

    def test_two_is_cubic_residue_iff_minimal_t_is_one(self):
        for p in (p for p in primes_upto(500) if p % 3 == 1):
            assert is_cubic_residue(2, p) is (minimal_t(p)[0] == 1)


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from([7, 13, 19, 31]), r=st.integers(min_value=1, max_value=6))
def test_solve_ab_equation_exact(p, r):
    rep = solve_ab(p, r)
    assert rep.x * rep.x + 27 * rep.y * rep.y == 4 * p ** r
    assert rep.x % 3 == 1 and math.gcd(rep.x, p) == 1 and rep.y >= 0


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from([5, 13, 17, 29]), t=st.integers(min_value=1, max_value=3))
def test_solve_cd_equation_exact(p, t):
    rep = solve_cd(p, t)
    assert rep.x * rep.x + 4 * rep.y * rep.y == p ** (2 * t)
    assert rep.x % 4 == 1 and math.gcd(rep.x, p) == 1 and rep.y >= 0


class TestCoreAgainstReferees:
    """The Cornacchia base solve and pair powers against independent routes."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(SCAN_K3))
    def test_solve_ab_matches_scan(self, case):
        p, r = case
        rep = solve_ab(p, r)
        assert (rep.x, rep.y) == scan_ab(p, r)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(SCAN_K4))
    def test_solve_cd_matches_scan(self, case):
        p, t = case
        rep = solve_cd(p, t)
        assert (rep.x, rep.y) == scan_cd(p, t)

    def test_minimal_t_matches_scan(self):
        """t is 1 or 3 (x^2 + 27y^2 has class number 3) for every prime
        p = 1 (mod 3) below 2000, as the y-scan up to t = 64 finds."""
        for p in (p for p in primes_upto(2000) if p % 3 == 1):
            assert minimal_t(p) == scan_minimal_t(p), p
            assert minimal_t(p)[0] in (1, 3)

    def test_beyond_the_scan_solutions_are_the_unique_admissible_ones(self):
        sympy = pytest.importorskip("sympy")
        from sympy.solvers.diophantine.diophantine import diophantine
        x, y = sympy.symbols("x y", integer=True)
        for p, r in set(CORE_K3) - set(SCAN_K3):
            sols = diophantine(x ** 2 + 27 * y ** 2 - 4 * p ** r)
            admissible = {(int(a), int(b)) for a, b in sols if a % 3 == 1 and a % p and b >= 0}
            rep = solve_ab(p, r)
            assert admissible == {(rep.x, rep.y)}, (p, r)
        for p, t in set(CORE_K4) - set(SCAN_K4):
            sols = diophantine(x ** 2 + 4 * y ** 2 - p ** (2 * t))
            admissible = {(int(c), int(d)) for c, d in sols if c % 4 == 1 and c % p and d >= 0}
            rep = solve_cd(p, t)
            assert admissible == {(rep.x, rep.y)}, (p, t)

    def test_base_pairs_match_sympy_cornacchia(self):
        pytest.importorskip("sympy")
        from sympy.solvers.diophantine.diophantine import cornacchia
        for p in primes_upto(500):
            if p % 3 == 1:
                assert {dioph._base(p, 3)} == cornacchia(1, 3, p)
                t, x0, y0 = minimal_t(p)
                if t == 1:
                    assert {(abs(x0), y0)} == cornacchia(1, 27, p)
            if p % 4 == 1:
                assert {tuple(sorted(dioph._base(p, 4)))} == {tuple(sorted(s)) for s in cornacchia(1, 1, p)}

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(-50, 50), y=st.integers(-50, 50), e=st.integers(0, 40),
           coeff=st.sampled_from([1, 3, 4, 27]))
    def test_pair_pow_matches_binomial_expansion(self, x, y, e, coeff):
        assert dioph.pair_pow((x, y), e, coeff) == power_components(x, y, e, coeff)


class TestCoreTerminates:
    """The base solve is bounded and checks itself; a composite modulus ends
    in NoSolution or in a checked representation, never in a loop."""

    @pytest.mark.parametrize("n,k", [(55, 3), (91, 3), (21, 4), (33, 4), (561, 4)])
    def test_composite_without_root_of_unity(self, n, k):
        with pytest.raises(NoSolution, match="root of unity"):
            dioph._base(n, k)

    def test_modulus_not_one_mod_k(self):
        with pytest.raises(NoSolution):
            dioph._base(35, 3)
        with pytest.raises(NoSolution):
            dioph._base(23, 4)

    @pytest.mark.parametrize("k,d", [(3, 3), (4, 1)])
    def test_every_small_composite_fails_or_is_checked(self, k, d):
        primes = set(primes_upto(3000))
        for n in range(9, 3000, 2):
            if n % k != 1 or n in primes:
                continue
            try:
                u, v = dioph._base(n, k)
            except NoSolution:
                continue
            assert u * u + d * v * v == n

    def test_pseudoprime_passing_is_prime(self):
        # is_prime accepts it (ff.is_prime is exact only below it); the k = 3
        # base solve finds no primitive cube root of unity and says so
        with pytest.raises(NoSolution, match="prime"):
            solve_ab(PSEUDOPRIME, 1)
        u, v = dioph._base(PSEUDOPRIME, 4)      # -1 is a square mod both factors
        assert u * u + v * v == PSEUDOPRIME

    def test_large_composite_stops_at_fermat_test(self):
        # an 82-digit composite n = 1 (mod 12): without the test the search
        # would try about 2 ln(n)^2 = 70000 candidates
        n = 12 * (10 ** 40 + 1) * (10 ** 40 + 3) + 1
        assert not is_prime(n)
        start = time.perf_counter()
        for k in (3, 4):
            with pytest.raises(NoSolution):
                dioph._base(n, k)
        assert time.perf_counter() - start < 5.0


class TestFormerHangs:
    """The direct -m route at exponents where the y-scans took over 20 s."""

    @pytest.mark.parametrize("k,p,m", [(3, 13, 48), (3, 31, 36), (4, 5, 48), (4, 17, 32),
                                       (3, 7, 2997), (4, 13, 3000)])
    def test_gp_spectrum_is_immediate(self, k, p, m):
        start = time.perf_counter()
        s = gp_spectrum(GraphSpec(k, p, m))
        assert time.perf_counter() - start < 2.0
        assert s.order == p ** m
