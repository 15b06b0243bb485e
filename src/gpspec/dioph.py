"""Quadratic-form representations with side conditions.

This module alone states the norm form of each k: its coefficient
(``form_coeff``), its target at exponent e (``norm_target``) and the
admissible pairs (``check_pair``; ``belongs`` matches a solved pair, a
``QFRep`` keyed by its k, to GP(k, q)),

    4 * p^e   = a^2 + 27*b^2   with a = 1 (mod 3), gcd(a, p) = 1   (k = 3)
    p^(2e)    = c^2 +  4*d^2   with c = 1 (mod 4), gcd(c, p) = 1   (k = 4)

plus the minimal exponent t with  p^t = x^2 + 27*y^2, gcd(x, p) = 1, which
seeds the lifting recursions; x^2 + 27y^2 has class number 3, so t is 1 or 3.

All come from one Cornacchia solve of p = u^2 + 3v^2 or u^2 + v^2: up to
units and conjugation, the powers of pi = (u, v) are the only elements of
norm p^r coprime to p, so each target is one pair power of pi (O(log r)
multiplications) and the choice of its admissible unit multiple; a k = 3
family's base and offset pairs share one solve (``_k3_family``).

Sign normalization: the y-component is always >= 0 (the spectra are not
affected by its sign), and the x-component sign is fixed by the congruence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadInput, BadP, NoSolution
from .ff import is_prime


#: k -> the coefficient of y^2 in the norm form of its pairs
_FORM_COEFF = {3: 27, 4: 4}


@dataclass(frozen=True)
class QFRep:
    """One solution of  x^2 + form_coeff(k)*y^2 = target  with its side conditions."""

    k: int
    target: int
    x: int
    y: int

    def __post_init__(self):
        if self.k not in _FORM_COEFF:
            raise BadInput(f"k = {self.k} not in {{3, 4}}")
        coeff = _FORM_COEFF[self.k]
        if self.x * self.x + coeff * self.y * self.y != self.target:
            raise BadInput(f"({self.x}, {self.y}) does not represent {self.target} by x^2 + {coeff}y^2")
        if self.y < 0:
            raise BadInput("y-component must be normalized to y >= 0")


def form_coeff(k: int) -> int:
    """The coefficient of y^2 in the norm form of k: 27 (k = 3) or 4 (k = 4)."""
    return _FORM_COEFF[k]


def norm_target(p: int, k: int, e: int) -> int:
    """The norm of the pair of k at exponent e: 4 p^e (k = 3) or p^(2e) (k = 4)."""
    return 4 * p ** e if k == 3 else p ** (2 * e)


def _admissible(x: int, k: int, q: int) -> bool:
    """x = 1 (mod k) and gcd(x, q) = 1, which for q a power of p is gcd(x, p) = 1."""
    return x % k == 1 and math.gcd(x, q) == 1


def check_pair(p: int, k: int, e: int, x: int, y: int) -> None:
    """Raise AssertionError unless (x, y) is an admissible pair of k at
    exponent e: x^2 + form_coeff(k) y^2 = norm_target(p, k, e), x = 1 (mod k)
    and gcd(x, p) = 1."""
    if x * x + form_coeff(k) * y * y != norm_target(p, k, e):
        raise AssertionError(f"norm identity of k = {k} failed at {p}^{e}")
    if not _admissible(x, k, p):
        raise AssertionError(f"congruence/coprimality of k = {k} failed at {p}^{e}")


def belongs(rep: QFRep, k: int, q: int) -> bool:
    """Whether rep is an admissible pair of GP(k, q), q = p^(k e): the form of k,
    the norm target 4 q^(1/3) (k = 3) or q^(1/2) (k = 4), tested as
    target^3 = 64 q or target^2 = q, a square, and x = 1 (mod k), gcd(x, q) = 1."""
    if rep.k != k or not _admissible(rep.x, k, q):
        return False
    return (rep.target ** 3 == 64 * q if k == 3
            else rep.target ** 2 == q and math.isqrt(rep.target) ** 2 == rep.target)


def mul_pair(u, v, coeff):
    """Product of two pairs under the norm form X^2 + coeff * Y^2."""
    return (u[0] * v[0] - coeff * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def pair_pow(pair: tuple[int, int], e: int, coeff: int) -> tuple[int, int]:
    """pair^e (e >= 0) under X^2 + coeff * Y^2, by binary exponentiation."""
    if e <= 1:
        return pair if e else (1, 0)
    half = pair_pow(pair, e // 2, coeff)
    square = mul_pair(half, half, coeff)
    return mul_pair(square, pair, coeff) if e & 1 else square


def _base(n: int, k: int) -> tuple[int, int]:
    """(u, v) >= 0 with n = u^2 + d*v^2, d = 3 (k = 3) or 1 (k = 4), n prime.

    r = 2w + 1 or w has r^2 = -d (mod n) for a primitive k-th root of unity
    w = z^((n-1)/k), z below 2 ln(n)^2 + 3 (Bach's bound under GRH); then
    Cornacchia: Euclid on (n, r) down to the first remainder u < sqrt(n).
    Both steps are bounded and checked (w^k = 1 is Fermat's test of n):
    NoSolution if either fails.
    """
    d = 3 if k == 3 else 1
    candidates = range(2, 3 + int(2 * math.log(n) ** 2)) if (n - 1) % k == 0 else ()
    for z in candidates:
        w = pow(z, (n - 1) // k, n)
        r = 2 * w + 1 if k == 3 else w
        if (r * r + d) % n == 0 or pow(w, k, n) != 1:   # a root, or z^(n-1) != 1: n composite
            break
    if not candidates or (r * r + d) % n:
        raise NoSolution(f"no primitive root of unity of order {k} mod {n}; is {n} prime?")
    a, u = n, min(r % n, n - r % n)
    while u * u > n:
        a, u = u, a % u
    v2, rem = divmod(n - u * u, d)
    v = math.isqrt(v2)
    if rem or v * v != v2:
        raise NoSolution(f"Cornacchia's step found no {n} = u^2 + {d}v^2; is {n} prime?")
    return u, v


def _k3_pair(p: int, power: tuple[int, int]) -> tuple[int, int]:
    """(a, b) with 4 p^r = a^2 + 27 b^2, a = 1 (mod 3), b >= 0, from the
    base power pi^r = U + V sqrt(-3) = (X + Y sqrt(-3))/2: of it and its
    multiples by the cube roots of unity, exactly one has 3 | Y (3 does not
    divide U), giving (X, Y/3)."""
    U, V = power
    for X, Y in ((2 * U, 2 * V), (-U - 3 * V, U - V), (-U + 3 * V, -U - V)):
        if Y % 3 == 0:
            return (X if X % 3 == 1 else -X), abs(Y) // 3
    raise NoSolution(f"no unit multiple of the base power has 3 | Y; is {p} prime?")


def _require(p: int, k: int) -> None:
    if not is_prime(p) or p % k != 1:
        raise BadP(f"p = {p} must be a prime with p = 1 (mod {k})")


def solve_ab(p: int, r: int) -> QFRep:
    """Solve 4*p^r = a^2 + 27*b^2 with a = 1 (mod 3) and gcd(a, p) = 1.

    The solution is unique up to the sign of b; b >= 0 is returned.
    """
    _require(p, 3)
    if r < 1:
        raise BadInput(f"r = {r} must be >= 1")
    return QFRep(3, norm_target(p, 3, r), *_k3_pair(p, pair_pow(_base(p, 3), r, 3)))


def solve_cd(p: int, t: int) -> QFRep:
    """Solve p^(2t) = c^2 + 4*d^2 with c = 1 (mod 4) and gcd(c, p) = 1.

    c + 2di = ((u + vi)^2)^t for p = u^2 + v^2; unique up to the sign of d.
    """
    _require(p, 4)
    if t < 1:
        raise BadInput(f"t = {t} must be >= 1")
    u, v = _base(p, 4)
    c, d = pair_pow((u * u - v * v, u * v), t, 4)
    return QFRep(4, norm_target(p, 4, t), c if c % 4 == 1 else -c, abs(d))


def minimal_t(p: int) -> tuple[int, int, int]:
    """Smallest t such that p^t = x^2 + 27*y^2 with gcd(x, p) = 1: 1 or 3.

    The base pair (x, y) of the family of GP(3, p), from one base solve
    (``_k3_family``).  Raises NoSolution when neither t = 1 nor t = 3 has
    one, which for p = 1 (mod 3) means that p is composite.
    """
    t, (x, y), _ = _k3_family(p, 0)
    return t, x, y


def _k3_family(p: int, s: int, t: int | None = None
               ) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(t, (x0, y0), (a0, b0)) of the family of GP(3, p) with offset s, from
    one base solve: t and p^t = x0^2 + 27 y0^2 of ``minimal_t``, and
    4 p^s = a0^2 + 27 b0^2 with a0 = 1 (mod 3) ((-2, 0) for s = 0).

    A given t must equal the minimal exponent; 0 <= s < t.  The exponents
    t = 1, 2, 3 are tried in turn, each its pair (a, b) of 4 p^t, the first
    even one giving (x0, y0) = (+-a/2, b/2); the class number of
    x^2 + 27y^2 is 3, so t = 2 never is.  One conjugate base product can be
    divisible by p (p = 7, s = 2 gives a1 = 49), which would break
    coprimality at every level; exactly one sign of b0 is safe (p dividing
    both would divide 2*a0*x0), +b0 preferred, and the recursion
    a(l+1) = 2*x0*a(l) - p^t*a(l-1) then keeps every level coprime.
    """
    _require(p, 3)
    base = power = _base(p, 3)
    for t0 in (1, 2, 3):
        a, b = _k3_pair(p, power)
        if a % 2 == 0 and b % 2 == 0:
            break
        power = mul_pair(power, base, 3)
    else:
        raise NoSolution(f"no t <= 3 has {p}^t = x^2 + 27y^2 with gcd(x, p) = 1; is {p} prime?")
    x0, y0 = a // 2, b // 2
    x0 = x0 if x0 % 3 == 1 else -x0
    if t is not None and t != t0:
        raise BadInput(f"minimal exponent of p = {p} is {t0}, not {t}")
    if not 0 <= s < t0:
        raise BadInput(f"s = {s} must satisfy 0 <= s < t = {t0}")
    a0, b0 = _k3_pair(p, pair_pow(base, s, 3))
    if (a0 * x0 - 27 * b0 * y0) % p == 0:
        b0 = -b0
    return t0, (x0, y0), (a0, b0)
