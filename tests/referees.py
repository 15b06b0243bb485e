"""Test-only referees: slow, direct computations that share no code with
the package routes they check.

- The y-scans are the direct search for the norm-form representations: try
  every y-component up to sqrt(target / coeff) and keep the first that
  leaves a perfect square with the side conditions.  They cost about
  sqrt(target) steps, so they only referee small targets of the Cornacchia
  base solve and pair powers in ``gpspec.dioph``.
- ``power_components`` evaluates a pair power by binomial expansion and
  referees the pair powers and level steps of ``gpspec.lift``.
- ``iterated_exp_table`` multiplies by the generator q-2 times with
  ``FieldSpec.mul`` and referees the block-built ``FieldSpec.exp_table``.
- ``scan_generator`` computes the full multiplicative order of every code
  from 2 up with ``FieldSpec.pow`` and referees the generator search of
  ``gpspec.ff.make_field``, which skips the constants and stops each
  candidate at its first failed primitivity test.
- ``char_sum_eigenvalue`` adds e^(2 pi i Tr(gamma x)/p) over x in R_k with
  ``cmath``, one character gamma at a time and unrounded, and referees the
  per-coset trace counts of ``gpspec.oracle.char_sum_spectrum``.
- ``is_cubic_residue`` (Euler's criterion) and ``is_semiprimitive`` (-1 a
  power of p mod k) classify primes for tests of ``gpspec.dioph.minimal_t``
  and of the semiprimitive spectra and energies.
- ``scan_cache`` decodes a cache file line by line with ``json.loads`` and
  referees ``gpspec.cli._cache_lookup``, which searches the raw bytes for a
  record's key text and decodes only the lines around its matches.
"""
from __future__ import annotations

import cmath
import json
import math

from gpspec.errors import BadInput, BadP
from gpspec.ff import is_prime


def _square_part(n: int) -> int | None:
    """isqrt(n) if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def scan_steps(target: int, coeff: int) -> int:
    """Most y-components a scan of x^2 + coeff*y^2 = target tries."""
    return math.isqrt(target // coeff) + 1


def scan_ab(p: int, r: int) -> tuple[int, int]:
    """(a, b) with 4 p^r = a^2 + 27 b^2, a = 1 (mod 3), gcd(a, p) = 1, b >= 0."""
    target = 4 * p ** r
    for b in range(scan_steps(target, 27)):
        a = _square_part(target - 27 * b * b)
        if a is None or a % p == 0 or a % 3 == 0:
            continue
        return (a if a % 3 == 1 else -a), b
    raise AssertionError(f"4*{p}^{r} = a^2 + 27*b^2 has no admissible solution")


def scan_cd(p: int, t: int) -> tuple[int, int]:
    """(c, d) with p^(2t) = c^2 + 4 d^2, c = 1 (mod 4), gcd(c, p) = 1, d >= 0."""
    target = p ** (2 * t)
    for d in range(scan_steps(target, 4)):
        c = _square_part(target - 4 * d * d)
        if c is None or c % p == 0:
            continue
        return (c if c % 4 == 1 else -c), d
    raise AssertionError(f"{p}^{2 * t} = c^2 + 4*d^2 has no admissible solution")


def scan_minimal_t(p: int) -> tuple[int, int, int] | None:
    """(t, x, y) for the smallest t <= 64 with p^t = x^2 + 27 y^2 and
    gcd(x, p) = 1, x = 1 (mod 3), y >= 0; None when no t <= 64 has one.
    The bound lies far past 3, the largest minimal exponent."""
    for t in range(1, 65):
        target = p ** t
        for y in range(scan_steps(target, 27)):
            x = _square_part(target - 27 * y * y)
            if x is None or x % p == 0:
                continue
            return t, (x if x % 3 == 1 else -x), y
    return None


def power_components(x: int, y: int, ell: int, coeff: int) -> tuple[int, int]:
    """(X, Y) with z^ell = X + theta*Y for z = x + theta*y, theta^2 = -coeff.

    Closed-form evaluation by exact binomial expansion.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    X = sum(math.comb(ell, 2 * r) * x ** (ell - 2 * r) * y ** (2 * r) * (-coeff) ** r
            for r in range(ell // 2 + 1))
    Y = sum(math.comb(ell, 2 * r + 1) * x ** (ell - 2 * r - 1) * y ** (2 * r + 1) * (-coeff) ** r
            for r in range((ell + 1) // 2))
    return X, Y


def is_cubic_residue(a: int, p: int) -> bool:
    """Euler criterion: a^((p-1)/d) = 1 (mod p) with d = gcd(3, p-1)."""
    if not is_prime(p):
        raise BadP(f"p = {p} must be prime")
    if a % p == 0:
        raise BadInput(f"gcd({a}, {p}) != 1")
    d = math.gcd(3, p - 1)
    return pow(a, (p - 1) // d, p) == 1


def is_semiprimitive(k: int, p: int) -> bool:
    """True iff -1 is a power of p modulo k (some j >= 1 with p^j = -1 mod k)."""
    if math.gcd(p, k) != 1:
        raise BadInput(f"gcd(p, k) = {math.gcd(p, k)} != 1")
    if k == 1:
        return True
    target = k - 1
    x = p % k
    for _ in range(2 * k):
        if x == target:
            return True
        x = x * p % k
    return False


def iterated_exp_table(f) -> list[int]:
    """[g^0, g^1, ..., g^(q-2)] for the generator g of the field model f, one
    ``mul`` per power."""
    exp = [1] * (f.q - 1)
    for i in range(1, f.q - 1):
        exp[i] = f.mul(exp[i - 1], f.generator)
    return exp


def scan_generator(f) -> int:
    """Smallest code g >= 2 of multiplicative order q-1 in the field model f
    (1 for q = 2), each order found by dividing q-1 down prime by prime."""
    n = f.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, math.isqrt(r) + 1))]
    for g in range(2, f.q):
        order = n
        for r in primes:
            while order % r == 0 and f.pow(g, order // r) == 1:
                order //= r
        if order == n:
            return g
    return 1


def char_sum_eigenvalue(g, gamma: int) -> complex:
    """The character sum of gamma over R_k for the GraphSpec g: the sum of
    e^(2 pi i Tr(gamma x)/p) over x in R_k, unrounded."""
    from gpspec.ff import kth_power_residues, make_field

    fld = make_field(g.p, g.m)
    return sum(cmath.exp(2j * cmath.pi * fld.trace_table[fld.mul(gamma, x)] / g.p)
               for x in sorted(kth_power_residues(fld, g.k)))


def scan_cache(path, key: str) -> tuple[str, int] | None:
    """(output, code) of the first line of the cache file at ``path`` that
    decodes as UTF-8 to a JSON object whose "key" is ``key``, whose "output"
    is a string and whose "code" is the integer 0 or 1; lines end at
    b"\\n", and a line that does not decode matches nothing."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return None
    for raw in lines:
        try:
            rec = json.loads(raw.decode("utf-8"))
        except ValueError:
            continue
        if not isinstance(rec, dict) or rec.get("key") != key:
            continue
        if "output" in rec and type(rec["output"]) is str and rec.get("code") in (0, 1) \
                and not isinstance(rec["code"], (bool, float)):
            return rec["output"], rec["code"]
    return None
