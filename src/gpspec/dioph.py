"""Quadratic-form representations with side conditions.

Two norm forms drive the closed spectral formulas:

    4 * p^r   = a^2 + 27*b^2   with a = 1 (mod 3), gcd(a, p) = 1   (k = 3)
    p^(2t)    = c^2 +  4*d^2   with c = 1 (mod 4), gcd(c, p) = 1   (k = 4)

plus the minimal exponent t with  p^t = x^2 + 27*y^2, gcd(x, p) = 1,
which seeds the lifting recursions.

All come from one Cornacchia solve of p = u^2 + 3v^2 or u^2 + v^2: up to
units and conjugation, the powers of pi = (u, v) are the only elements of
norm p^r coprime to p, so each target is one pair power of pi (O(log r)
multiplications) and the choice of its admissible unit multiple.

Sign normalization: the y-component is always >= 0 (the spectra are not
affected by its sign), and the x-component sign is fixed by the congruence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import BadInput, BadP, NoSolution, NotFound
from .ff import is_prime

#: Default search bound for the minimal exponent.
T_CAP = 64


class QFForm(Enum):
    X2_27Y2 = "x^2 + 27y^2"
    X2_4Y2 = "x^2 + 4y^2"


_FORM_COEFF = {QFForm.X2_27Y2: 27, QFForm.X2_4Y2: 4}


@dataclass(frozen=True)
class QFRep:
    """One solution of  x^2 + coeff*y^2 = target  with its side conditions."""

    form: QFForm
    target: int
    x: int
    y: int

    def __post_init__(self):
        coeff = _FORM_COEFF[self.form]
        if self.x * self.x + coeff * self.y * self.y != self.target:
            raise BadInput(f"({self.x}, {self.y}) does not represent {self.target} by {self.form.value}")
        if self.y < 0:
            raise BadInput("y-component must be normalized to y >= 0")


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
    return QFRep(QFForm.X2_27Y2, 4 * p ** r, *_k3_pair(p, pair_pow(_base(p, 3), r, 3)))


def solve_cd(p: int, t: int) -> QFRep:
    """Solve p^(2t) = c^2 + 4*d^2 with c = 1 (mod 4) and gcd(c, p) = 1.

    c + 2di = ((u + vi)^2)^t for p = u^2 + v^2; unique up to the sign of d.
    """
    _require(p, 4)
    if t < 1:
        raise BadInput(f"t = {t} must be >= 1")
    u, v = _base(p, 4)
    c, d = pair_pow((u * u - v * v, u * v), t, 4)
    return QFRep(QFForm.X2_4Y2, p ** (2 * t), c if c % 4 == 1 else -c, abs(d))


def minimal_t(p: int, t_cap: int = T_CAP) -> tuple[int, int, int]:
    """Smallest t <= t_cap such that p^t = x^2 + 27*y^2 with gcd(x, p) = 1.

    It is the first t whose pair (a, b) of 4 p^t is even: (x, y) = (+-a/2,
    b/2) with x = 1 (mod 3).  One base solve; each next exponent is one
    more multiplication by the base.  Raises NotFound(t_cap) past the cap;
    for p = 1 (mod 3) the minimal t is 1 or 3, so any cap >= 3 succeeds.
    """
    _require(p, 3)
    base = power = _base(p, 3)
    for t in range(1, t_cap + 1):
        a, b = _k3_pair(p, power)
        if a % 2 == 0 and b % 2 == 0:
            x = a // 2
            return t, (x if x % 3 == 1 else -x), b // 2
        power = mul_pair(power, base, 3)
    raise NotFound(t_cap)


def is_cubic_residue(a: int, p: int) -> bool:
    """Euler criterion: a^((p-1)/d) = 1 (mod p) with d = gcd(3, p-1)."""
    if not is_prime(p):
        raise BadP(f"p = {p} must be prime")
    if a % p == 0:
        raise BadInput(f"gcd({a}, {p}) != 1")
    d = math.gcd(3, p - 1)
    return pow(a, (p - 1) // d, p) == 1
