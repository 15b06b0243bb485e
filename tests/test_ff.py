"""Field construction, trace, power residues and the hypothesis cases."""
import itertools
import math
import random

import numpy as np
import pytest

from conftest import in_scope_instances, primes_upto
from gpspec.errors import BadInput, BadK, CapExceeded, NonPrime, OutOfScope
from gpspec.ff import (FIELD_CAP, HypothesisCase, _is_irreducible, _jacobi, _strong_lucas, is_prime,
                       kth_power_residues, make_field, require_in_scope, theorem_hypotheses, trace)
from referees import is_semiprimitive, iterated_exp_table, quotient_scope, scan_generator

#: first terms of OEIS A001262 and A217255
A001262 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581,
           85489, 88357, 90751)
A217255 = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439, 100127,
           113573, 115639, 130139)


def _poly_divides(g, f, p):
    """Remainder check by schoolbook division (test-local oracle)."""
    f = list(f)
    while len(f) >= len(g) and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            break
        lead = f[-1] * pow(g[-1], -1, p) % p
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    return not any(f)


def _irreducible_by_trial_division(f, p):
    d = len(f) - 1
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            if _poly_divides(list(tail) + [1], f, p):
                return False
    return True


def _scan_smallest_irreducible(p, m):
    for v in range(p ** m):
        coeffs, vv = [], v
        for _ in range(m):
            coeffs.append(vv % p)
            vv //= p
        f = coeffs + [1]
        if _irreducible_by_trial_division(f, p):
            return tuple(f)
    raise AssertionError


class TestIsPrime:
    def test_matches_sieve(self):
        primes = set(primes_upto(20000))
        assert [n for n in range(-5, 20001) if is_prime(n)] == sorted(primes)

    def test_rejects_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)

    def test_exact_below_its_stated_bound(self):
        # 399165290221 * 798330580441: the least strong pseudoprime to every
        # prime base up to 37, so the base 41 is what rejects it
        assert not is_prime(318665857834031151167461)

    def test_rejects_the_pseudoprime_to_every_base_to_41(self):
        # 1287836182261 * 2575672364521 (about 3.3e24) passes Miller-Rabin to
        # all thirteen prime bases up to 41; the strong Lucas test rejects it
        assert not is_prime(3317044064679887385961981)

    @pytest.mark.parametrize("bound", [10 ** 5, pytest.param(10 ** 6, marks=pytest.mark.slow)])
    def test_matches_sieve_to(self, bound):
        assert [n for n in range(bound) if is_prime.__wrapped__(n)] == primes_upto(bound - 1)

    def test_rejects_strong_pseudoprimes(self):
        """The first terms of OEIS A001262 (strong pseudoprimes to base 2), which
        the strong Lucas test rejects, and of A217255 (strong Lucas
        pseudoprimes, Selfridge's parameters), which it accepts and the base-2
        test rejects."""
        for n in A001262:
            assert not is_prime(n) and not _strong_lucas(n), n
        for n in A217255:
            assert not is_prime(n) and _strong_lucas(n), n

    def test_accepts_mersenne_primes(self):
        assert is_prime(2 ** 89 - 1) and is_prime(2 ** 521 - 1)
        assert not is_prime(2 ** 89 + 1) and not is_prime(2 ** 67 - 1)

    def test_jacobi_matches_euler_criterion(self):
        """(a/n) against the product of a^((r-1)/2) mod r over the prime
        factors r of n, with multiplicity, for odd n < 200."""
        for n in range(1, 200, 2):
            factors, rest = [], n
            for r in primes_upto(n):
                while rest % r == 0:
                    factors.append(r)
                    rest //= r
            for a in range(-n, 2 * n):
                legendre = [pow(a, (r - 1) // 2, r) for r in factors]
                expected = 0 if 0 in legendre else math.prod(1 if x == 1 else -1 for x in legendre)
                assert _jacobi(a, n) == expected, (a, n)


class TestMakeField:
    def test_f16_modulus_is_x4_x_1(self):
        f = make_field(2, 4)
        assert f.modulus == (1, 1, 0, 0, 1)
        assert f.modulus == _scan_smallest_irreducible(2, 4)

    def test_prime_field_convention(self):
        f = make_field(7, 1)
        assert f.modulus == (0, 1)
        assert f.generator == 3  # smallest primitive root of 7

    def test_f343_modulus_matches_exhaustive_scan(self):
        assert make_field(7, 3).modulus == (2, 0, 0, 1)  # x^3 + 2
        fields = [(p, m) for p, m in _prime_powers_upto(4096) if m >= 2]
        assert len(fields) == 40
        for p, m in fields:
            assert make_field(p, m).modulus == _scan_smallest_irreducible(p, m), (p, m)

    def test_is_irreducible_matches_trial_division(self):
        """Ben-Or's test against trial division on every monic f of small degree."""
        top_degree = {2: 8, 3: 5, 5: 4, 7: 3, 11: 3}
        checked = 0
        for p, top in top_degree.items():
            for m in range(2, top + 1):
                for tail in itertools.product(range(p), repeat=m):
                    f = list(tail) + [1]
                    assert _is_irreducible(f, p) == _irreducible_by_trial_division(f, p), (p, f)
                    checked += 1
        assert checked == 3487

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 4), (5, 2), (7, 3), (13, 2), (2, 10)])
    def test_generator_has_full_order(self, p, m):
        f = make_field(p, m)
        seen = set()
        x = 1
        for _ in range(f.q - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert x == 1 and len(seen) == f.q - 1

    def test_generator_matches_order_scan_to_4096(self):
        fields = [(p, m) for p in primes_upto(4096) for m in range(1, 13) if p ** m <= 4096]
        assert len(fields) == 604
        for p, m in fields:
            f = make_field(p, m)
            assert f.generator == scan_generator(f), (p, m)

    @pytest.mark.parametrize("p,m", [(547, 2), (1021, 2), (2, 18), (3, 12), (7, 6)])
    def test_generator_matches_order_scan(self, p, m):
        f = make_field(p, m)
        assert f.generator == scan_generator(f)

    @pytest.mark.parametrize("p", [7, 13])
    def test_prime_field_is_integer_arithmetic_mod_p(self, p):
        f = make_field(p, 1)
        for a in range(p):
            assert f.neg(a) == -a % p and trace(f, a) == a
            for b in range(p):
                assert f.add(a, b) == (a + b) % p and f.mul(a, b) == a * b % p
            for e in range(0 if a == 0 else -p, 2 * p):
                assert f.pow(a, e) == pow(a, e, p)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (7, 2)])
    def test_pow_matches_repeated_mul(self, p, m):
        f = make_field(p, m)
        for a in range(f.q):
            x = 1
            for e in range(2 * (f.q - 1)):
                assert f.pow(a, e) == x, (a, e)
                x = f.mul(x, a)
            if a:
                for e in range(-(f.q - 1), 0):
                    assert f.mul(f.pow(a, e), f.pow(a, -e)) == 1, (a, e)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)

    def test_rejects_nonprime(self):
        with pytest.raises(NonPrime):
            make_field(6, 1)

    def test_rejects_degree_zero(self):
        with pytest.raises(BadInput, match="m = 0 must be >= 1"):
            make_field(7, 0)

    def test_rejects_over_cap(self):
        with pytest.raises(CapExceeded):
            make_field(2, 21)

    def test_modulus_has_no_roots(self):
        f = make_field(5, 4)
        for x in range(5):
            assert sum(c * x ** i for i, c in enumerate(f.modulus)) % 5 != 0


class TestTrace:
    def test_trace_of_zero_and_one(self):
        f16 = make_field(2, 4)
        assert trace(f16, 0) == 0
        assert trace(f16, 1) == 0  # m copies of 1 over F_2, m even
        f343 = make_field(7, 3)
        assert trace(f343, 1) == 3  # m mod p

    def test_trace_of_generator_by_direct_frobenius_sum(self):
        f = make_field(7, 3)
        g = f.generator
        direct = f.add(f.add(g, f.pow(g, 7)), f.pow(g, 49))
        assert trace(f, g) == direct == 3

    @pytest.mark.parametrize("p,m", [(2, 4), (2, 8), (3, 4), (5, 2), (7, 2)])
    def test_trace_linear_exhaustive(self, p, m):
        f = make_field(p, m)
        tt = f.trace_table
        for a in range(f.q):
            for b in range(f.q):
                assert tt[f.add(a, b)] == (tt[a] + tt[b]) % p

    @pytest.mark.parametrize("p,m", [(2, 10), (7, 3), (13, 2), (3, 6)])
    def test_trace_linear_random(self, p, m):
        f = make_field(p, m)
        rng = random.Random(1234 + p * m)
        for _ in range(2000):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert trace(f, f.add(a, b)) == (trace(f, a) + trace(f, b)) % p

    def test_trace_table_matches_op(self):
        for p, m in [(5, 2), (2, 6), (3, 4), (7, 3), (13, 1), (2, 10), (3, 6)]:
            f = make_field(p, m)
            assert f.trace_table.tolist() == [trace(f, a) for a in range(f.q)], (p, m)

    def test_rejects_foreign_element(self):
        with pytest.raises(BadInput):
            trace(make_field(2, 4), 16)


def _prime_powers_upto(n):
    return [(p, m) for p in primes_upto(n) for m in range(1, n.bit_length()) if p ** m <= n]


class TestExpTable:
    def test_matches_iterated_mul_to_4096(self):
        for p, m in _prime_powers_upto(4096):
            f = make_field(p, m)
            assert f.exp_table.tolist() == iterated_exp_table(f), (p, m)

    @pytest.mark.parametrize("p,m", [(2, 16), (7, 6), (3, 10)])
    def test_matches_iterated_mul_on_large_fields(self, p, m):
        f = make_field(p, m)
        assert f.exp_table.tolist() == iterated_exp_table(f)

    def test_int64_headroom_near_field_cap(self):
        f = make_field(1021, 2)
        exp = f.exp_table
        assert sorted(exp) == list(range(1, f.q))
        rng = random.Random(1021)
        for i in rng.sample(range(f.q - 2), 2000):
            assert exp[i + 1] == f.mul(exp[i], f.generator), i

    def test_float_products_exact_for_the_largest_prime_field(self):
        """m = 1 and p just below FIELD_CAP: partial sums reach (p-1)^2, near 2^40."""
        p = 1048573
        assert is_prime(p) and not any(is_prime(n) for n in range(p + 1, FIELD_CAP))
        f = make_field(p, 1)
        exp = f.exp_table
        rng = random.Random(p)
        for i in rng.sample(range(f.q - 2), 2000):
            assert exp[i + 1] == f.mul(exp[i], f.generator), i
        # codes of F_p are its residues: every step, across every block boundary
        assert np.array_equal(exp[1:], exp[:-1] * f.generator % p)


class TestTableTypes:
    def test_tables_are_read_only_int64_arrays(self):
        f = make_field(3, 4)
        for table in (f.exp_table, f.trace_table):
            assert isinstance(table, np.ndarray) and table.dtype == np.int64
            with pytest.raises(ValueError):
                table[0] = 0
        assert all(type(x) is int for x in kth_power_residues(f, 4))


class TestPowerResidues:
    def test_r1_is_all_nonzero(self):
        f = make_field(5, 1)
        assert kth_power_residues(f, 1) == frozenset({1, 2, 3, 4})

    def test_cubes_mod_7(self):
        assert kth_power_residues(make_field(7, 1), 3) == frozenset({1, 6})

    def test_cubes_in_f16(self):
        r = kth_power_residues(make_field(2, 4), 3)
        assert len(r) == 5
        assert r == frozenset({1, 8, 10, 12, 15})

    def test_rejects_k_not_dividing(self):
        with pytest.raises(BadK):
            kth_power_residues(make_field(7, 1), 4)

    def test_rejects_k_zero(self):
        with pytest.raises(BadInput, match="k = 0 must be positive"):
            kth_power_residues(make_field(7, 1), 0)

    def test_residues_are_actual_kth_powers(self):
        f = make_field(2, 4)
        assert kth_power_residues(f, 3) == {f.pow(x, 3) for x in range(1, f.q)}
        f = make_field(13, 1)
        assert kth_power_residues(f, 3) == {pow(x, 3, 13) for x in range(1, 13)}

    @pytest.mark.parametrize("k,p,m", in_scope_instances(2000))
    def test_size_and_symmetry_in_scope(self, k, p, m):
        f = make_field(p, m)
        r = kth_power_residues(f, k)
        assert len(r) == (f.q - 1) // k
        assert r == frozenset(f.neg(x) for x in r)


class TestSemiprimitive:
    def test_examples(self):
        assert is_semiprimitive(3, 2) is True    # 2 = -1 (mod 3)
        assert is_semiprimitive(3, 7) is False   # powers of 7 are all 1 (mod 3)
        assert is_semiprimitive(4, 3) is True    # 3 = -1 (mod 4)

    def test_rejects_common_factor(self):
        with pytest.raises(BadInput):
            is_semiprimitive(4, 2)

    def test_against_exhaustive_power_scan(self):
        import math

        for k in range(1, 30):
            for p in primes_upto(60):
                if math.gcd(p, k) != 1:
                    continue
                expected = any(pow(p, j, k) == (k - 1) % k for j in range(1, 4 * k + 1))
                assert is_semiprimitive(k, p) is expected, (k, p)


class TestTheoremHypotheses:
    def test_examples(self):
        assert theorem_hypotheses(3, 7, 3) is HypothesisCase.CASE_A
        assert theorem_hypotheses(4, 3, 4) is HypothesisCase.SEMIPRIMITIVE
        # one tag per case, whatever k
        assert theorem_hypotheses(4, 5, 4) is HypothesisCase.CASE_A
        assert theorem_hypotheses(3, 5, 2) is HypothesisCase.SEMIPRIMITIVE
        assert theorem_hypotheses(3, 7, 2) is HypothesisCase.OUT_OF_SCOPE  # 3 does not divide 8

    def test_small_q_exclusions(self):
        assert theorem_hypotheses(3, 2, 2) is HypothesisCase.OUT_OF_SCOPE  # q = 4 < 5
        assert theorem_hypotheses(4, 3, 2) is HypothesisCase.OUT_OF_SCOPE  # q = 9 excluded
        assert theorem_hypotheses(4, 3, 4) is HypothesisCase.SEMIPRIMITIVE

    def test_case_a_characterization(self):
        for p in primes_upto(199):
            for m in range(1, 13):
                got = theorem_hypotheses(3, p, m) is HypothesisCase.CASE_A
                expected = p % 3 == 1 and m % 3 == 0
                assert got is expected, (p, m)

    def test_rules_match_quotient_referee(self):
        """The case and the message of every (k, p, m) with k in 2..5,
        -3 <= p < 2000 and -1 <= m <= 40 against the q-quotient rule; the
        divisibility message gives the quotient mod k."""
        mismatches = []
        for k, p, m in itertools.product(range(2, 6), range(-3, 2000), range(-1, 41)):
            try:
                case, reason = require_in_scope(k, p, m), None
            except OutOfScope as exc:
                case, reason = HypothesisCase.OUT_OF_SCOPE, str(exc)
            want_case, want = quotient_scope(k, p, m)
            prefix = f"{k} does not divide (q-1)/(p-1) = "
            if want is not None and want.startswith(prefix):
                want = f"{prefix}{int(want[len(prefix):]) % k} (mod {k})"
            if (case, reason) != (want_case, want):
                mismatches.append((k, p, m, case, reason, want_case, want))
        assert not mismatches, mismatches[:5]

    def test_huge_m_under_default_int_limit(self, default_int_limit):
        # the old rule formed (q-1)/(p-1) and its 8451 digits for the message
        assert theorem_hypotheses(3, 7, 10 ** 4) is HypothesisCase.OUT_OF_SCOPE
        with pytest.raises(OutOfScope, match=r"^3 does not divide \(q-1\)/\(p-1\) = 1 \(mod 3\)$"):
            require_in_scope(3, 7, 10 ** 4)
        assert require_in_scope(3, 7, 3 * 10 ** 6) is HypothesisCase.CASE_A
        assert require_in_scope(4, 3, 10 ** 6) is HypothesisCase.SEMIPRIMITIVE

    def test_case_tags_agree_with_congruences(self):
        for (k, p, m) in in_scope_instances(10 ** 5):
            case = theorem_hypotheses(k, p, m)
            assert (case is HypothesisCase.CASE_A) is (p % k == 1 and m % k == 0), (k, p, m)
            semiprimitive = is_semiprimitive(k, p) and m % 2 == 0
            assert (case is HypothesisCase.SEMIPRIMITIVE) is semiprimitive, (k, p, m)
