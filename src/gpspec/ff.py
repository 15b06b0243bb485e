"""Exact arithmetic in F_{p^m}, k-th power residues and hypothesis checks.

A field is modelled explicitly: a deterministic irreducible modulus, a
deterministic primitive element, and elements encoded as integers in
``[0, q)`` whose base-p digits are the coefficient vector in the
polynomial basis (digit i = coefficient of x^i).  The encoding keeps
elements hashable and cheap while still being, literally, a coefficient
vector.

The case analysis for the closed spectral formulas lives here as well:
``theorem_hypotheses`` classifies a triple (k, p, m) as ``CASE_A``
(p = 1 (mod k)), ``SEMIPRIMITIVE`` (p = -1 (mod k)) or ``OUT_OF_SCOPE``;
the tag does not repeat k, which the caller holds.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import BadInput, BadK, CapExceeded, NonPrime

#: Largest field order constructed explicitly (elements, tables).
FIELD_CAP = 1 << 20

#: Powers per matrix product when ``FieldSpec.exp_table`` is built (a power of two).
_EXP_BLOCK = 4096

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, deterministic only below 3.3e24.

    The least composite that passes all thirteen bases is
    3317044064679887385961981 (about 3.3e24); above it the answer is a
    strong probable-prime test, and a composite can pass.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:                     # its least prime factor would be at most 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    """Rabin test of a monic f of degree m >= 2: x^(p^m) = x mod f, and
    gcd(x^(p^(m/l)) - x, f) = 1 for every prime l dividing m."""
    m = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p ** m, f, p)
    if _trim([(c1 - c2) % p for c1, c2 in _pad(xq, x)]):
        return False
    for ell in prime_factors(m):
        xr = _poly_powmod(x, p ** (m // ell), f, p)
        diff = _trim([(c1 - c2) % p for c1, c2 in _pad(xr, x)])
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m minimizing the base-p encoding of the
    non-leading coefficients (reproducible across runs)."""
    if m == 1:
        return (0, 1)
    for v in range(p ** m):
        coeffs, vv = [], v
        for _ in range(m):
            coeffs.append(vv % p)
            vv //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
    base-p coefficient vectors.  The exponential and trace tables are built
    lazily, once, on first use, and both from F_p-linearity: ``exp_table``
    applies multiplication by the generator, a matrix on digit vectors, to
    blocks of powers with numpy; ``trace_table`` extends the traces of the
    basis x^i one digit position at a time.  ``mul`` alone knows the modulus:
    it supplies the matrix's columns and the traces of the basis.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], generator: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.generator = generator
        self._exp: list[int] | None = None
        self._trace: list[int] | None = None

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
        prod = _poly_rem(_poly_mul(_trim(list(self.coeffs(a))), _trim(list(self.coeffs(b))), self.p),
                         list(self.modulus), self.p)
        return self.from_coeffs(prod + [0] * (self.m - len(prod)))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    # -- tables ---------------------------------------------------------------

    @property
    def exp_table(self) -> list[int]:
        """exp_table[i] = generator**i for i in [0, q-1).

        Multiplying by the generator is an F_p-linear map M on digit
        vectors; column j of M is the digit vector of g * x^j, from ``mul``.
        Rows of a block of consecutive powers times (M^B)^T give the next B
        powers, so after a first block built by doubling, the table grows
        one block of _EXP_BLOCK powers per matrix product.
        """
        if self._exp is None:
            import numpy as np

            p, m, n = self.p, self.m, self.q - 1
            step = np.array([self.coeffs(self.mul(self.generator, p ** j)) for j in range(m)],
                            dtype=np.int64).T
            # Entries of both factors lie in [0, p), so each entry of a product
            # sums m terms below (p-1)^2: m * (p-1)^2 < 2^63 for every
            # q <= FIELD_CAP, and int64 never wraps.
            block = np.zeros((1, m), dtype=np.int64)
            block[0, 0] = 1
            while len(block) < min(n, _EXP_BLOCK):
                block = np.concatenate([block, block @ step.T % p])
                step = step @ step % p
            weights = p ** np.arange(m, dtype=np.int64)
            exp = (block @ weights).tolist()
            while len(exp) < n:
                block = block @ step.T % p
                exp += (block @ weights).tolist()
            del exp[n:]
            self._exp = exp
        return self._exp

    @property
    def trace_table(self) -> list[int]:
        """trace_table[code] = Tr_{q/p}(code), via F_p-linearity on the basis:
        digit i of the code adds digit * Tr(x^i), so the table over the first
        i + 1 digits is p copies of the table over the first i, copy d
        shifted by d * Tr(x^i)."""
        if self._trace is None:
            table = [0]
            for i in range(self.m):
                b = trace(self, self.from_coeffs([0] * i + [1]))
                table = [(d * b + t) % self.p for d in range(self.p) for t in table]
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
    return frozenset(f.exp_table[::k])


def theorem_hypotheses(k: int, p: int, m: int) -> HypothesisCase:
    """Classify (k, p, m); OUT_OF_SCOPE is a value, never an error."""
    if out_of_scope_reason(k, p, m):
        return HypothesisCase.OUT_OF_SCOPE
    return HypothesisCase.CASE_A if p % k == 1 else HypothesisCase.SEMIPRIMITIVE


def out_of_scope_reason(k: int, p: int, m: int) -> str | None:
    """Human-readable reason a triple is out of scope, or None if in scope."""
    if k not in (3, 4):
        return f"k = {k} not in {{3, 4}}"
    if not is_prime(p):
        return f"p = {p} is not prime"
    if m < 1:
        return f"m = {m} must be >= 1"
    q = p ** m
    if q < 5:
        return f"q = {q} < 5"
    if k == 4 and q == 9:
        return "q = 9 is excluded for k = 4"
    if ((q - 1) // (p - 1)) % k != 0:
        return f"{k} does not divide (q-1)/(p-1) = {(q - 1) // (p - 1)}"
    return None
