"""Field construction, trace, power residues and the hypothesis cases."""
import itertools
import random

import pytest

from conftest import in_scope_instances, primes_upto
from gpspec.errors import BadInput, BadK, CapExceeded, NonPrime
from gpspec.ff import HypothesisCase, is_prime, kth_power_residues, make_field, theorem_hypotheses, trace
from referees import is_semiprimitive, iterated_exp_table, scan_generator


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

    def test_stated_bound_is_where_it_stops_being_exact(self):
        # 1287836182261 * 2575672364521 (about 3.3e24) passes all thirteen bases
        assert is_prime(3317044064679887385961981)


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
        f = make_field(7, 3)
        assert f.modulus == _scan_smallest_irreducible(7, 3)
        assert f.modulus == (2, 0, 0, 1)  # x^3 + 2

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

    def test_rejects_nonprime(self):
        with pytest.raises(NonPrime):
            make_field(6, 1)

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
        for p, m in [(5, 2), (2, 6), (3, 4), (7, 3), (13, 1)]:
            f = make_field(p, m)
            assert f.trace_table == [trace(f, a) for a in range(f.q)], (p, m)

    def test_rejects_foreign_element(self):
        with pytest.raises(BadInput):
            trace(make_field(2, 4), 16)


def _prime_powers_upto(n):
    return [(p, m) for p in primes_upto(n) for m in range(1, n.bit_length()) if p ** m <= n]


class TestExpTable:
    def test_matches_iterated_mul_to_4096(self):
        for p, m in _prime_powers_upto(4096):
            f = make_field(p, m)
            assert f.exp_table == iterated_exp_table(f), (p, m)

    @pytest.mark.parametrize("p,m", [(2, 16), (7, 6), (3, 10)])
    def test_matches_iterated_mul_on_large_fields(self, p, m):
        f = make_field(p, m)
        assert f.exp_table == iterated_exp_table(f)

    def test_int64_headroom_near_field_cap(self):
        f = make_field(1021, 2)
        exp = f.exp_table
        assert sorted(exp) == list(range(1, f.q))
        rng = random.Random(1021)
        for i in rng.sample(range(f.q - 2), 2000):
            assert exp[i + 1] == f.mul(exp[i], f.generator), i


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

    def test_case_tags_agree_with_congruences(self):
        for (k, p, m) in in_scope_instances(10 ** 5):
            case = theorem_hypotheses(k, p, m)
            assert (case is HypothesisCase.CASE_A) is (p % k == 1 and m % k == 0), (k, p, m)
            semiprimitive = is_semiprimitive(k, p) and m % 2 == 0
            assert (case is HypothesisCase.SEMIPRIMITIVE) is semiprimitive, (k, p, m)
