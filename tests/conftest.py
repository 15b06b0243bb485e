"""Shared helpers: prime enumeration, in-scope instance generation and the
default int/str digit limit."""
from __future__ import annotations

import math
import sys

import pytest

from gpspec.ff import HypothesisCase, theorem_hypotheses


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def in_scope_instances(q_max: int, ks=(3, 4)) -> list[tuple[int, int, int]]:
    """All (k, p, m) with an applicable closed formula and q = p^m <= q_max.

    m = 1 is never in scope (k never divides (q-1)/(p-1) = 1), so primes
    only need to run up to sqrt(q_max).
    """
    out = []
    for k in ks:
        for p in primes_upto(math.isqrt(q_max)):
            m = 2
            while p ** m <= q_max:
                if theorem_hypotheses(k, p, m) is not HypothesisCase.OUT_OF_SCOPE:
                    out.append((k, p, m))
                m += 1
    return out


@pytest.fixture
def default_int_limit():
    """Run the test under the interpreter's default int/str digit limit
    (4300 digits), restoring the limit in force afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)
