"""Exact arithmetic in F_{p^m}, k-th power residues and hypothesis checks.

A field is modelled explicitly: the smallest irreducible modulus (by
Ben-Or's test), the smallest primitive element, and elements encoded as
integers in ``[0, q)`` whose base-p digits are the coefficient vector in the
polynomial basis (digit i = coefficient of x^i): hashable and cheap, yet
literally a coefficient vector.  The power and trace tables are read-only
numpy arrays, which the oracles index as they are.

``require_in_scope`` alone states the scope of the closed formulas: CASE_A
(p = 1 (mod k), k | m), SEMIPRIMITIVE (p = -1 (mod k), 2 | m), from p mod k
and m without forming q, else OutOfScope (OUT_OF_SCOPE from
``theorem_hypotheses``); the tag does not repeat k, which the caller holds.
"""
from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import lru_cache

from .errors import BadInput, BadK, CapExceeded, NonPrime, OutOfScope

#: Largest field order constructed explicitly (elements, tables).
FIELD_CAP = 1 << 20

#: Most digits (powers times m) in one block of ``FieldSpec.exp_table``: 256 KB of float64.
_EXP_BLOCK = 1 << 15

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes to 41, then a strong
    probable-prime test to base 2 and a strong Lucas test with Selfridge's
    parameters (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980).
    It is exact below 2^64, and no composite that passes both is known."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:                     # its least prime factor would be at most 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d 2^s, d odd
    x = pow(2, (n - 1) >> s, n)         # passes iff x = 1 or x^(2^r) = -1 for some r < s
    if x != 1:
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test of an odd n > 1 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1 (a square has none), P = 1,
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes iff U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some r < s."""
    if math.isqrt(n) ** 2 == n:
        return False
    for size in itertools.count(5, 2):
        D = size if size % 4 == 1 else -size
        symbol = _jacobi(D, n)
        if symbol == -1:
            break
        if symbol == 0 and size % n:    # gcd(D, n) is a proper factor of n
            return False
    Q, half = (1 - D) // 4, (n + 1) // 2      # half * 2 = 1 (mod n)
    s = ((n + 1) & -(n + 1)).bit_length() - 1    # n + 1 = d 2^s, d odd
    u, v, qk = 1, 1, Q % n              # U_j, V_j and Q^j at j = 1, the top bit of d
    for bit in bin((n + 1) >> s)[3:]:   # j -> 2j, then -> 2j + 1 where d has a 1
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    for _ in range(s):
        if u == 0 or v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p; ascending coefficient lists, no trailing 0.
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_rem(a: list[int], f: list[int], p: int) -> list[int]:
    # f must be monic
    a = a[:]
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i, c in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _trim(a)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    r = [1]
    a = _poly_rem(a, f, p)
    while e:
        if e & 1:
            r = _poly_rem(_poly_mul(r, a, p), f, p)
        a = _poly_rem(_poly_mul(a, a, p), f, p)
        e >>= 1
    return r


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        lead_inv = pow(b[-1], -1, p)
        monic_b = [c * lead_inv % p for c in b]
        a, b = b, _poly_rem(a, monic_b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test of a monic f of degree m: gcd(x^(p^i) - x, f) = 1 for
    every i <= m/2.  A reducible f has a factor of some degree i <= m/2, and
    that factor divides x^(p^i) - x."""
    xi = [0, 1]
    for _ in range((len(f) - 1) // 2):
        xi = _poly_powmod(xi, p, f, p)
        diff = _trim([(c - (j == 1)) % p for j, c in enumerate(xi + [0, 0])])
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m minimizing the base-p encoding of the
    non-leading coefficients (reproducible across runs); x for m = 1."""
    # product varies its last digit fastest, so reversed it counts up the encodings
    tails = (list(reversed(digits)) + [1] for digits in itertools.product(range(p), repeat=m))
    return tuple(next(f for f in tails if _is_irreducible(f, p)))


# ---------------------------------------------------------------------------
# Field model
# ---------------------------------------------------------------------------

class HypothesisCase(Enum):
    """Which branch of the closed spectral formulas applies to (k, p, m)."""

    CASE_A = "p = 1 (mod k), m = kt"
    SEMIPRIMITIVE = "p = -1 (mod k), m = 2t"
    OUT_OF_SCOPE = "out of scope"


class FieldSpec:
    """A concrete model of F_{p^m}.

    Immutable after construction; all operations are pure, so instances are
    safe to share between threads.  Elements are ints in [0, q) encoding
    base-p coefficient vectors.  The exponential and trace tables are
    read-only int64 numpy arrays, built lazily, once, on first use, and both
    from F_p-linearity: ``exp_table`` applies multiplication by the
    generator, a matrix on digit vectors, to blocks of powers; ``trace_table``
    takes the trace of the basis x^i as that of the matrix of multiplication
    by x^i, and extends it over the digits.  ``mul`` and ``pow`` alone read
    the modulus; ``mul`` supplies the entries of both matrices.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], generator: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.generator = generator
        self._exp: np.ndarray | None = None
        self._trace: np.ndarray | None = None

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={list(self.modulus)}, g={self.generator})"

    # -- element encoding ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (length m) of an element code."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, c) -> int:
        v = 0
        for x in reversed(list(c)):
            v = v * self.p + x % self.p
        return v

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.from_coeffs(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        return self.from_coeffs(-x for x in self.coeffs(a))

    def mul(self, a: int, b: int) -> int:
        prod = _poly_mul(_trim(list(self.coeffs(a))), _trim(list(self.coeffs(b))), self.p)
        return self.from_coeffs(_poly_rem(prod, list(self.modulus), self.p))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1
        return self.from_coeffs(_poly_powmod(list(self.coeffs(a)), e, list(self.modulus), self.p))

    # -- tables ---------------------------------------------------------------

    @property
    def exp_table(self) -> np.ndarray:
        """exp_table[i] = generator**i for i in [0, q-1), a read-only int64 array.

        Multiplying by the generator g is F_p-linear on digit vectors: row j
        of the matrix S is the digit vector of g * x^j, from ``mul``, so a row
        of digits times S gives the digits of its product by g.  A block of B
        consecutive powers times S^B gives the next B, so after a first block
        built by doubling, the table grows one block per matrix product.  A
        block holds at most _EXP_BLOCK digits, so it stays in cache at any m.
        """
        if self._exp is None:
            import numpy as np

            p, m, n = self.p, self.m, self.q - 1
            step = np.array([self.coeffs(self.mul(self.generator, p ** j)) for j in range(m)], dtype=float)
            # Entries of both factors lie in [0, p), so every partial sum of a
            # product is an integer of at most m(p-1)^2 <= 2^40 < 2^53 for
            # q <= FIELD_CAP: float64 products, run by BLAS, are exact, and so
            # is a - p*floor(a/p), since a/p cannot round across an integer.
            def reduce(a):
                return a - p * np.floor(a / p)

            block = np.zeros((1, m))
            block[0, 0] = 1
            while len(block) < n and 2 * len(block) * m <= _EXP_BLOCK:
                block = np.concatenate([block, reduce(block @ step)])
                step = reduce(step @ step)
            rows = len(block)
            weights = p ** np.arange(m, dtype=float)    # codes lie below q <= 2^20
            exp = np.empty(-(-n // rows) * rows, dtype=np.int64)
            exp[:rows] = block @ weights
            for start in range(rows, n, rows):
                block = reduce(block @ step)
                exp[start:start + rows] = block @ weights
            exp = exp[:n]
            exp.flags.writeable = False
            self._exp = exp
        return self._exp

    @property
    def trace_table(self) -> np.ndarray:
        """trace_table[code] = Tr_{q/p}(code), a read-only int64 array.

        Tr(a) is the trace of the matrix of multiplication by a, whose entry
        (j, j) for a = x^i is digit j of x^(i+j), so the basis traces come
        from the powers x^0 ... x^(2m-2), each one ``mul`` by x from the last.
        Digit i of a code adds digit * Tr(x^i), so the table over the first
        i + 1 digits is p copies of the table over the first i, copy d
        shifted by d * Tr(x^i).
        """
        if self._trace is None:
            import numpy as np

            p, m = self.p, self.m
            powers = [self.coeffs(1)]
            code = 1
            for _ in range(2 * m - 2):          # for m > 1, the code p is x
                code = self.mul(code, p)
                powers.append(self.coeffs(code))
            table = np.zeros(1, dtype=np.int64)
            for i in range(m):
                b = sum(powers[i + j][j] for j in range(m))
                table = np.add.outer(np.arange(p) * b, table).ravel() % p
            table.flags.writeable = False
            self._trace = table
        return self._trace


@lru_cache(maxsize=None)
def _make_field_cached(p: int, m: int) -> FieldSpec:
    modulus = _smallest_irreducible(p, m)
    q = p ** m
    probe = FieldSpec(p, m, modulus, 1)
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    # For m > 1 the codes below p are the constants of F_p, of order dividing
    # p - 1 < q - 1; only q = 2 leaves no candidate.
    candidates = range(p if m > 1 else 2, q)
    generator = next((g for g in candidates if all(probe.pow(g, e) != 1 for e in cofactors)), 1)
    return FieldSpec(p, m, modulus, generator)


def make_field(p: int, m: int) -> FieldSpec:
    """Build the deterministic model of F_{p^m}.

    Modulus: monic irreducible of degree m with lexicographically smallest
    coefficients (by base-p encoding); for m=1 the convention "x - 0" is
    used.  Generator: smallest element code of multiplicative order q-1,
    the first g with g^((q-1)/r) != 1 for every prime r dividing q-1.
    """
    if not is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if m < 1:
        raise BadInput(f"m = {m} must be >= 1")
    if p ** m > FIELD_CAP:
        raise CapExceeded(f"q = {p}^{m} exceeds the construction cap {FIELD_CAP}")
    return _make_field_cached(p, m)


def trace(f: FieldSpec, a: int) -> int:
    """Tr_{q/p}(a) = a + a^p + ... + a^(p^(m-1)), reduced into [0, p)."""
    if not 0 <= a < f.q:
        raise BadInput(f"element code {a} outside [0, {f.q})")
    acc, t = a, a
    for _ in range(f.m - 1):
        t = f.pow(t, f.p)
        acc = f.add(acc, t)
    if acc >= f.p:
        raise AssertionError(f"trace {acc} not in prime subfield")
    return acc


def kth_power_residues(f: FieldSpec, k: int) -> frozenset[int]:
    """R_k = {x^k : x nonzero}, requiring k | q-1 (|R_k| = (q-1)/k)."""
    if k < 1:
        raise BadInput(f"k = {k} must be positive")
    if (f.q - 1) % k != 0:
        raise BadK(f"k = {k} does not divide q - 1 = {f.q - 1}")
    return frozenset(f.exp_table[::k].tolist())


def theorem_hypotheses(k: int, p: int, m: int) -> HypothesisCase:
    """Classify (k, p, m); OUT_OF_SCOPE is a value, never an error."""
    try:
        return require_in_scope(k, p, m)
    except OutOfScope:
        return HypothesisCase.OUT_OF_SCOPE


def require_in_scope(k: int, p: int, m: int) -> HypothesisCase:
    """The case of (k, p, m), else OutOfScope naming the first hypothesis it
    violates: the one statement of the scope rules.  (q-1)/(p-1) = 1 + p +
    ... + p^(m-1) is m (mod k) if p = 1 (mod k), 0 or 1 as m is even or odd
    if p = -1 (mod k), 1 (mod 3) if p = k = 3 and odd if (k, p) = (4, 2):
    so the two cases say when k divides it, and q is never formed."""
    if k not in (3, 4):
        raise OutOfScope(f"k = {k} not in {{3, 4}}")
    if not is_prime(p):
        raise OutOfScope(f"p = {p} is not prime")
    if m < 1:
        raise OutOfScope(f"m = {m} must be >= 1")
    if p ** min(m, 3) < 5:              # p^3 >= 8, so q < 5 only at m < 3
        raise OutOfScope(f"q = {p ** m} < 5")
    if k == 4 and (p, m) == (3, 2):
        raise OutOfScope("q = 9 is excluded for k = 4")
    if p % k == 1 and m % k == 0:
        return HypothesisCase.CASE_A
    if p % k == k - 1 and m % 2 == 0:
        return HypothesisCase.SEMIPRIMITIVE
    residue = (pow(p, m, k * (p - 1)) - 1) // (p - 1) % k
    raise OutOfScope(f"{k} does not divide (q-1)/(p-1) = {residue} (mod {k})")
