"""Quadratic-form representations with side conditions.

This module alone states the norm form of each k: its coefficient
(``form_coeff``), its target at exponent e (``norm_target``), the norm of a
family's base pair (``base_norm``) and the admissible pairs (``check_pair``,
``check_admissible``),

    4 * p^e   = a^2 + 27*b^2   with a = 1 (mod 3), gcd(a, p) = 1   (k = 3)
    p^(2e)    = c^2 +  4*d^2   with c = 1 (mod 4), gcd(c, p) = 1   (k = 4)

plus the minimal exponent t with  p^t = x^2 + 27*y^2, gcd(x, p) = 1, which
seeds the lifting recursions; x^2 + 27y^2 has class number 3, so t is 1 or 3.

All come from one Cornacchia solve of p = u^2 + 3v^2 or u^2 + v^2: up to
units and conjugation, the powers of pi = (u, v) are the only elements of
norm p^r coprime to p, so each target is one pair power of pi (O(log r)
multiplications) and the choice of its admissible unit multiple; a k = 3
family's base and offset pairs share one solve (``_k3_family``).  The
solvers return a plain (x, y) tuple that has passed ``check_pair``.

Sign normalization: the y-component is always >= 0 (the spectra are not
affected by its sign), and the x-component sign is fixed by the congruence.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import BadInput, BadP, NoSolution
from .ff import _jacobi, is_prime


#: k -> the coefficient of y^2 in the norm form of its pairs
_FORM_COEFF = {3: 27, 4: 4}


def form_coeff(k: int) -> int:
    """The coefficient of y^2 in the norm form of k: 27 (k = 3) or 4 (k = 4)."""
    return _FORM_COEFF[k]


def norm_target(p: int, k: int, e: int) -> int:
    """The norm of the pair of k at exponent e: 4 p^e (k = 3) or p^(2e) (k = 4)."""
    return 4 * p ** e if k == 3 else p ** (2 * e)


def check_pair(p: int, k: int, e: int, x: int, y: int) -> None:
    """Raise AssertionError unless (x, y) is an admissible pair of k at
    exponent e: x^2 + form_coeff(k) y^2 = norm_target(p, k, e), and x passes
    ``check_admissible``."""
    if x * x + form_coeff(k) * y * y != norm_target(p, k, e):
        raise AssertionError(f"norm identity of k = {k} failed at {p}^{e}")
    check_admissible(p, k, e, x)


def check_admissible(p: int, k: int, e: int, x: int) -> None:
    """Raise AssertionError unless x = 1 (mod k) and gcd(x, p) = 1, the side
    conditions of a pair of k at exponent e; linear in the digits of x."""
    if x % k != 1 or math.gcd(x, p) != 1:
        raise AssertionError(f"congruence/coprimality of k = {k} failed at {p}^{e}")


def base_norm(p: int, k: int, t: int, x0: int, y0: int) -> int:
    """The norm N of the base pair (x0, y0) of a family with exponent step t,
    the factor by which ``norm_target`` grows from one level to the next:
    p^t (k = 3) or p^(2t) (k = 4).  Raises AssertionError unless
    x0^2 + form_coeff(k) y0^2 = N and x0 y0 != 0, so that the base's square
    is not real (the condition under which ``lift.levels`` checks the norm
    at three levels only)."""
    norm = p ** t if k == 3 else p ** (2 * t)
    if x0 * x0 + form_coeff(k) * y0 * y0 != norm or x0 * y0 == 0:
        raise AssertionError(f"base ({x0}, {y0}) of k = {k} does not have norm "
                             f"{p}^{t * (k - 2)} with x0 y0 != 0")
    return norm


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


@lru_cache(maxsize=128)
def _base(n: int, k: int) -> tuple[int, int]:
    """(u, v) >= 0 with n = u^2 + d*v^2, d = 3 (k = 3) or 1 (k = 4), n prime.

    r = 2w + 1 or w has r^2 = -d (mod n) for a primitive k-th root of unity
    w = z^((n-1)/k), z below 2 ln(n)^2 + 3 (Bach's bound under GRH); for
    k = 4 a z with Jacobi symbol (z/n) = 1 is skipped before its modexp, as
    then w^2 = 1 for prime n.  Then Cornacchia: Euclid on (n, r) down to the
    first remainder u < sqrt(n).  Both steps are bounded and checked (w^k = 1
    is Fermat's test of n): NoSolution if either fails.
    """
    d = 3 if k == 3 else 1
    candidates = range(2, 3 + int(2 * math.log(n) ** 2)) if (n - 1) % k == 0 else ()
    r = 0                                    # no root when every candidate is skipped
    for z in candidates:
        if k == 4 and _jacobi(z, n) == 1:
            continue
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


def solve_ab(p: int, r: int) -> tuple[int, int]:
    """Solve 4*p^r = a^2 + 27*b^2 with a = 1 (mod 3) and gcd(a, p) = 1.

    Unique up to the sign of b; returns (a, b), b >= 0, after ``check_pair``.
    """
    _require(p, 3)
    if r < 1:
        raise BadInput(f"r = {r} must be >= 1")
    a, b = _k3_pair(p, pair_pow(_base(p, 3), r, 3))
    check_pair(p, 3, r, a, b)
    return a, b


def solve_cd(p: int, t: int) -> tuple[int, int]:
    """Solve p^(2t) = c^2 + 4*d^2 with c = 1 (mod 4) and gcd(c, p) = 1.

    c + 2di = ((u + vi)^2)^t for p = u^2 + v^2; unique up to the sign of d,
    and (c, d) with d >= 0 is returned after ``check_pair``.
    """
    _require(p, 4)
    if t < 1:
        raise BadInput(f"t = {t} must be >= 1")
    u, v = _base(p, 4)
    c, d = pair_pow((u * u - v * v, u * v), t, 4)
    c, d = (c if c % 4 == 1 else -c), abs(d)
    check_pair(p, 4, t, c, d)
    return c, d


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
    x0, y0 = -(a // 2), b // 2           # a = 1 (mod 3) is even, so -a/2 = 1 (mod 3)
    if t is not None and t != t0:
        raise BadInput(f"minimal exponent of p = {p} is {t0}, not {t}")
    if not 0 <= s < t0:
        raise BadInput(f"s = {s} must satisfy 0 <= s < t = {t0}")
    a0, b0 = _k3_pair(p, pair_pow(base, s, 3))
    if (a0 * x0 - 27 * b0 * y0) % p == 0:
        b0 = -b0
    return t0, (x0, y0), (a0, b0)
