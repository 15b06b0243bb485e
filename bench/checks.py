"""Output checks made apart from the program.

Nothing here imports gpspec.  The reference values come from the paper's
formulas evaluated on representations that this module finds itself: a small
scan for the base prime, then powers of that prime element in Z[(1+sqrt(-27))/2]
or Z[i].  Checkers parse the program's text output (pretty, json or csv),
check the invariants the paper states, compare with the reference and raise
``CheckError`` on the first difference.

Decimal strings are parsed in chunks and digits are counted without ``str``,
so the checks work under the interpreter's default limit of 4300 digits for
int/str conversion, which the benchmark keeps on purpose.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

_CHUNK = 4000
_LOG10_2 = math.log10(2)


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's checks."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------

def decimal(text: str) -> int:
    """Integer from a decimal string of any length."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    expect(digits.isdigit(), f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(decimal(num), decimal(den) if den else 1)


def digit_count(n: int) -> int:
    """Number of decimal digits of |n|, without converting n to a string."""
    n = abs(n)
    if n < 10:
        return 1
    d = int((n.bit_length() - 1) * _LOG10_2) + 1
    return d + 1 if n >= 10 ** d else d


# ---------------------------------------------------------------------------
# Representations and reference spectra
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def minimal_t(p: int) -> int:
    """Least t with p^t = x^2 + 27y^2, gcd(x, p) = 1: 1 when p itself has that
    form, else 3 (for p = 1 mod 3)."""
    return 1 if any(math.isqrt(p - 27 * y * y) ** 2 == p - 27 * y * y
                    for y in range(math.isqrt(p // 27) + 1)) else 3


def rep_k3(p: int, r: int) -> tuple[int, int]:
    """(a, b) with a^2 + 27b^2 = 4p^r, a = 1 (mod 3), gcd(a, p) = 1, b >= 0."""
    expect(_is_prime(p) and p % 3 == 1 and r >= 1, f"no k=3 representation for p={p}, r={r}")
    base = next((x, y) for y in range(math.isqrt(4 * p // 27) + 1)
                for x in [math.isqrt(4 * p - 27 * y * y)] if x * x == 4 * p - 27 * y * y)
    # (x + y*sqrt(-27))/2 has norm p; its r-th power has norm p^r
    a, b = base
    for _ in range(r - 1):
        a, b = (a * base[0] - 27 * b * base[1]) // 2, (a * base[1] + b * base[0]) // 2
    if a % 3 == 2:
        a, b = -a, -b
    b = abs(b)
    expect(a * a + 27 * b * b == 4 * p ** r and a % 3 == 1 and math.gcd(a, p) == 1,
           f"reference representation failed for p={p}, r={r}")
    return a, b


def rep_k4(p: int, t: int) -> tuple[int, int]:
    """(c, d) with c^2 + 4d^2 = p^(2t), c = 1 (mod 4), gcd(c, p) = 1, d >= 0."""
    expect(_is_prime(p) and p % 4 == 1 and t >= 1, f"no k=4 representation for p={p}, t={t}")
    u, v = next((x, y) for y in range(1, math.isqrt(p) + 1)
                for x in [math.isqrt(p - y * y)] if x * x == p - y * y)
    x, y = 1, 0
    for _ in range(2 * t):
        x, y = x * u - y * v, x * v + y * u
    if y % 2:
        x, y = -y, x
    if x % 4 == 3:
        x, y = -x, -y
    c, d = x, abs(y) // 2
    expect(c * c + 4 * d * d == p ** (2 * t) and c % 4 == 1 and math.gcd(c, p) == 1,
           f"reference representation failed for p={p}, t={t}")
    return c, d


def k3_values(r: int, a: int, b: int) -> list[int]:
    """Non-principal eigenvalues of GP(3, r^3) for 4r = a^2 + 27b^2."""
    return [exact(a * r - 1, 3), exact(-exact(a + 9 * b, 2) * r - 1, 3),
            exact(-exact(a - 9 * b, 2) * r - 1, 3)]


def k4_values(r: int, c: int, d: int) -> list[int]:
    """Non-principal eigenvalues of GP(4, r^4) for r^2 = c^2 + 4d^2."""
    rr = r * r
    return [exact(rr + 4 * d * r - 1, 4), exact(rr - 4 * d * r - 1, 4),
            exact(-rr + 2 * c * r - 1, 4), exact(-rr - 2 * c * r - 1, 4)]


def exact(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    expect(rem == 0, f"{den} does not divide a formula numerator")
    return q


def in_scope(k: int, p: int, m: int) -> bool:
    q = p ** m
    return (k in (3, 4) and _is_prime(p) and m >= 1 and q >= 5 and not (k == 4 and q == 9)
            and ((q - 1) // (p - 1)) % k == 0)


class Ref:
    """Reference spectrum of one graph: {eigenvalue: multiplicity}, with the
    principal eigenvalue, the order q and the loop count."""

    def __init__(self, values: dict[int, int], principal: int, q: int, loops: int = 0):
        self.values, self.principal, self.q, self.loops = values, principal, q, loops

    def energy(self) -> int:
        return sum(abs(v) * e for v, e in self.values.items())

    def nonprincipal(self) -> list[int]:
        return [v for v in self.values if v != self.principal]


def _merge(pairs) -> dict[int, int]:
    out: dict[int, int] = {}
    for v, e in pairs:
        out[v] = out.get(v, 0) + e
    return out


def gp_ref(k: int, p: int, m: int) -> Ref:
    """Spec GP(k, p^m) from the paper's closed formulas."""
    expect(in_scope(k, p, m), f"(k={k}, p={p}, m={m}) is out of scope")
    q = p ** m
    n = (q - 1) // k
    if p % k == 1:
        if k == 3:
            lams = k3_values(p ** (m // 3), *rep_k3(p, m // 3))
        else:
            lams = k4_values(p ** (m // 4), *rep_k4(p, m // 4))
        return Ref(_merge([(n, 1)] + [(lam, n) for lam in lams]), n, q)
    root = p ** (m // 2)
    if k == 3:
        pairs = ([(exact(root - 1, 3), 2 * n), (exact(-2 * root - 1, 3), n)] if m % 4 == 0
                 else [(exact(2 * root - 1, 3), n), (exact(-root - 1, 3), 2 * n)])
    else:
        pairs = ([(exact(root - 1, 4), 3 * n), (exact(-3 * root - 1, 4), n)] if m % 4 == 0
                 else [(exact(3 * root - 1, 4), n), (exact(-root - 1, 4), 3 * n)])
    return Ref(_merge([(n, 1)] + pairs), n, q)


def complement_ref(s: Ref) -> Ref:
    """n -> q-1-n, lambda -> -1-lambda (loopless regular graphs)."""
    expect(s.loops == 0, "complement of a graph with loops")
    nb = s.q - 1 - s.principal
    return Ref(_merge([(nb, 1)] + [(-1 - v, s.values[v]) for v in s.nonprincipal()]), nb, s.q)


def gpsum_ref(s: Ref) -> Ref:
    """Sum graph: equal to GP for even q; for odd q every non-principal value
    splits into +/- halves and the graph has n loops."""
    if s.q % 2 == 0:
        return s
    pairs = [(s.principal, 1)]
    for v in s.nonprincipal():
        pairs += [(v, s.values[v] // 2), (-v, s.values[v] // 2)]
    return Ref(_merge(pairs), s.principal, s.q, loops=s.principal)


def variant_ref(k: int, p: int, m: int, variant: str) -> Ref:
    base = gp_ref(k, p, m)
    return {"gp": base, "comp": complement_ref(base), "gpsum": gpsum_ref(base)}[variant]


def semiprimitive_energy(k: int, p: int, m: int) -> int:
    """The paper's exact energy for p = -1 (mod k)."""
    q = p ** m
    n, root = (q - 1) // k, p ** (m // 2)
    if k == 3:
        return exact(2 * n * (2 * root + 1) if m % 4 == 0 else 4 * n * (root + 1), 3)
    return exact(n * (3 * root + 1) if m % 4 == 0 else 3 * n * (root + 1), 2)


def positive_count(values) -> int:
    return sum(1 for v in values if v > 0)


# ---------------------------------------------------------------------------
# Parsing the program's output
# ---------------------------------------------------------------------------

_BRACKET = re.compile(r"\[(-?\d+)\]\^(\d+)")


def parse_spectrum(text: str, fmt: str) -> tuple[dict[int, int], dict]:
    """({eigenvalue: multiplicity}, extra fields) from spectrum output;
    trailing verify[...] lines are left to the caller."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("verify[")]
    extra: dict = {}
    if fmt == "json":
        expect(len(lines) == 1, "json spectrum is not one line")
        d = json.loads(lines[0])
        pairs = [(decimal(e["value"]), decimal(e["mult"])) for e in d["spectrum"]]
        extra = {key: decimal(d[key]) for key in ("principal", "order", "loops", "energy")}
        extra["graph"] = d["graph"]
    elif fmt == "csv":
        expect(lines and lines[0] == "eigenvalue,multiplicity", "bad csv spectrum header")
        pairs = []
        for ln in lines[1:]:
            v, e = ln.split(",")
            pairs.append((decimal(v), decimal(e)))
    else:
        fields = dict(ln.split(": ", 1) for ln in lines)
        pairs = [(decimal(v), decimal(e)) for v, e in _BRACKET.findall(fields["spectrum"])]
        principal, loops = re.fullmatch(r"(-?\d+)  loops: (\d+)", fields["principal"]).groups()
        extra = {"principal": decimal(principal), "loops": decimal(loops),
                 "energy": decimal(fields["energy"]), "graph": fields["graph"]}
    values = [v for v, _ in pairs]
    expect(values == sorted(values, reverse=True) and len(set(values)) == len(values),
           "eigenvalues not strictly descending")
    return dict(pairs), extra


def verify_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.startswith("verify[")]


def parse_energy(text: str, fmt: str) -> dict:
    """{'energy', 'lower', 'upper', 'exact'} (absent keys are None)."""
    out = {"energy": None, "lower": None, "upper": None, "exact": None}
    if fmt == "json":
        d = json.loads(text)
        out["energy"] = decimal(d["energy"])
        if "bounds" in d:
            out["lower"], out["upper"] = fraction(d["bounds"]["lower"]), fraction(d["bounds"]["upper"])
        if "semiprimitive_exact" in d:
            out["exact"] = decimal(d["semiprimitive_exact"])
    elif fmt == "csv":
        head, value = text.splitlines()
        expect(head == "energy", "bad csv energy header")
        out["energy"] = decimal(value)
    else:
        fields = dict(ln.split(": ", 1) for ln in text.splitlines())
        out["energy"] = decimal(fields["energy"])
        if "bounds" in fields:
            lower, upper = re.fullmatch(r"(\S+) <= E <= (\S+)", fields["bounds"]).groups()
            out["lower"], out["upper"] = fraction(lower), fraction(upper)
        if "semiprimitive exact value" in fields:
            out["exact"] = decimal(fields["semiprimitive exact value"])
    return out


_REPORT_KEYS = ("energy", "complement_energy", "positive_nonprincipal_count",
                "equienergetic", "criterion_agrees")
_PRETTY_REPORT = {"energy": "energy", "complement energy": "complement_energy",
                  "positive non-principal eigenvalues": "positive_nonprincipal_count",
                  "equienergetic with complement": "equienergetic",
                  "sign criterion agrees": "criterion_agrees"}


def _flag(text) -> bool:
    expect(text in (True, False, "True", "False"), f"not a verdict: {text!r}")
    return text in (True, "True")


def parse_report(text: str, fmt: str) -> dict:
    if fmt == "json":
        raw = json.loads(text)
    elif fmt == "csv":
        head, row = text.splitlines()
        expect(head == ",".join(_REPORT_KEYS), "bad csv report header")
        raw = dict(zip(_REPORT_KEYS, row.split(",")))
    else:
        fields = dict(ln.split(": ", 1) for ln in text.splitlines())
        raw = {key: fields[label] for label, key in _PRETTY_REPORT.items()}
    return {"energy": decimal(raw["energy"]),
            "complement_energy": decimal(raw["complement_energy"]),
            "positive_nonprincipal_count": int(raw["positive_nonprincipal_count"]),
            "equienergetic": _flag(raw["equienergetic"]),
            "criterion_agrees": _flag(raw["criterion_agrees"])}


def parse_witnesses(text: str, fmt: str) -> list[dict]:
    """[{'ell', 'pair', 'equienergetic', 'q_digits'}] from family output."""
    rows = []
    if fmt == "json":
        for w in json.loads(text)["witnesses"]:
            rows.append({"ell": w["ell"], "pair": (decimal(w["pair"][0]), decimal(w["pair"][1])),
                         "equienergetic": _flag(w["equienergetic"]), "q_digits": w["q_digits"]})
    elif fmt == "csv":
        lines = text.splitlines()
        expect(lines[0] == "ell,x,y,q_digits,equienergetic,interval_hit", "bad csv family header")
        for ln in lines[1:]:
            ell, x, y, digits, equi, _hit = ln.split(",")
            rows.append({"ell": int(ell), "pair": (decimal(x), decimal(y)),
                         "equienergetic": _flag(equi), "q_digits": int(digits)})
    else:
        for ln in text.splitlines()[2:-1]:
            ell, equi, _hit, digits, pair = (f.strip() for f in ln.split("|"))
            x, y = pair.strip("()").split(", ")
            rows.append({"ell": int(ell), "pair": (decimal(x), decimal(y)),
                         "equienergetic": _flag(equi), "q_digits": int(digits)})
    return rows


def parse_levels(text: str, fmt: str) -> list[tuple[int, int, int, str]]:
    """[(ell, x, y, q)] from lift output."""
    if fmt == "json":
        return [(d["ell"], decimal(d["x"]), decimal(d["y"]), d["q"])
                for d in json.loads(text)["levels"]]
    lines = text.splitlines()
    expect(lines[0] == "ell,x,y,q", "bad lift header")
    out = []
    for ln in lines[1:]:
        ell, x, y, q = ln.split(",")
        out.append((int(ell), decimal(x), decimal(y), q))
    return out


# ---------------------------------------------------------------------------
# Checkers: each takes the program's output text and raises CheckError
# ---------------------------------------------------------------------------

def check_k3_pair(p: int, e: int, a: int, b: int) -> None:
    expect(a * a + 27 * b * b == 4 * p ** e, f"a^2 + 27b^2 != 4*{p}^{e}")
    expect(a % 3 == 1 and math.gcd(a, p) == 1, f"congruence or coprimality fails at 4*{p}^{e}")


def check_k4_pair(p: int, ell: int, c: int, d: int) -> None:
    expect(c * c + 4 * d * d == p ** (2 * ell), f"c^2 + 4d^2 != {p}^{2 * ell}")
    expect(c % 4 == 1 and math.gcd(c, p) == 1, f"congruence or coprimality fails at {p}^{2 * ell}")


def _recovered_rep(k: int, p: int, m: int, values: dict[int, int], principal: int) -> None:
    """Recover (a, b) or (c, d) from the eigenvalues and check it."""
    lams = [v for v in values if v != principal]
    if k == 3:
        # 3*lambda + 1 = r*a, -r*(a+9b)/2, -r*(a-9b)/2: three distinct values
        r = p ** (m // 3)
        expect(len(lams) == 3, f"k=3 case A spectrum has {len(lams)} non-principal values")
        xs = [exact(3 * v + 1, r) for v in lams]
        for i in range(3):
            a, (x1, x2) = xs[i], xs[:i] + xs[i + 1:]
            b, rem = divmod(x1 - x2, 9)
            if not rem and a * a + 27 * b * b == 4 * r and a % 3 == 1 and math.gcd(a, p) == 1:
                return
        raise CheckError(f"no admissible (a, b) behind the eigenvalues of k=3 p={p} m={m}")
    r = p ** (m // 4)
    expect(len(lams) == 4, f"k=4 case A spectrum has {len(lams)} non-principal values")
    for c in (exact(4 * v + 1 + r * r, 2 * r) for v in lams if (4 * v + 1 + r * r) % (2 * r) == 0):
        d2, rem = divmod(r * r - c * c, 4)
        d = math.isqrt(max(d2, 0))
        if not rem and d * d == d2:
            try:
                check_k4_pair(p, m // 4, c, d)
            except CheckError:
                continue
            if sorted(k4_values(r, c, d)) == sorted(lams):
                return
    raise CheckError(f"no admissible (c, d) behind the eigenvalues of k=4 p={p} m={m}")


def check_spectrum_values(k: int, p: int, m: int, variant: str, values: dict[int, int],
                          extra: dict) -> None:
    """The paper's invariants on one spectrum, then equality with the reference."""
    q = p ** m
    n = (q - 1) // k
    principal = q - 1 - n if variant == "comp" else n
    loops = n if variant == "gpsum" and q % 2 else 0
    expect(sum(values.values()) == q, "multiplicities do not sum to q")
    expect(sum(v * e for v, e in values.items()) == loops, "trace differs from the loop count")
    expect(sum(v * v * e for v, e in values.items()) == q * principal, "second moment != q * degree")
    expect(values.get(principal) == 1, "principal eigenvalue missing or repeated")
    if variant == "gpsum" and q % 2:
        nonp = {v: e for v, e in values.items() if v != principal}
        expect(all(nonp.get(-v) == e for v, e in nonp.items()), "sum-graph values are not +/- pairs")
        expect(len(values) <= 2 * k + 1, "too many distinct eigenvalues")
    else:
        expect(len(values) <= 5, "more than five distinct eigenvalues")
    if "principal" in extra:
        expect(extra["principal"] == principal, "reported principal differs")
        expect(extra["loops"] == loops, "reported loop count differs")
    if "energy" in extra:
        expect(extra["energy"] == sum(abs(v) * e for v, e in values.items()),
               "reported energy != sum |lambda| * mult")
    if p % k == 1 and variant in ("gp", "comp"):
        gp_values = values if variant == "gp" else {q - 1 - principal if v == principal else -1 - v: e
                                                    for v, e in values.items()}
        _recovered_rep(k, p, m, gp_values, n)
    ref = variant_ref(k, p, m, variant)
    expect(values == ref.values, f"spectrum differs from the reference for k={k} p={p} m={m} {variant}")


def check_spectrum_output(text: str, fmt: str, k: int, p: int, m: int, variant: str = "gp",
                          verified: bool = False) -> None:
    values, extra = parse_spectrum(text, fmt)
    check_spectrum_values(k, p, m, variant, values, extra)
    if verified:
        lines = verify_lines(text)
        expect(lines and all(ln.endswith(": ok") for ln in lines), "an oracle did not agree")


def check_energy_output(text: str, fmt: str, k: int, p: int, m: int, variant: str) -> None:
    got = parse_energy(text, fmt)
    ref = variant_ref(k, p, m, variant)
    expect(got["energy"] == ref.energy(), "energy differs from sum |lambda| * mult of the reference")
    if got["lower"] is not None:
        expect(got["lower"] <= got["energy"] <= got["upper"], "energy outside the reported bounds")
    if p % k != 1 and variant in ("gp", "gpsum"):
        paper = semiprimitive_energy(k, p, m)
        expect(paper == ref.energy(), "semiprimitive formula differs from the reference energy")
        if fmt != "csv":
            expect(got["exact"] == paper, "semiprimitive exact value differs from the paper's formula")
    if fmt != "csv":
        expect((got["lower"] is not None) == (p % k == 1), "bounds shown for the wrong case")


def check_report_output(text: str, fmt: str, k: int, p: int, m: int) -> None:
    got = parse_report(text, fmt)
    ref = gp_ref(k, p, m)
    comp = complement_ref(ref)
    pos = positive_count(ref.nonprincipal())
    neg = sum(1 for v in ref.nonprincipal() if v < 0)
    equal = ref.energy() == comp.energy()
    expect(got["energy"] == ref.energy(), "energy differs from the reference")
    expect(got["complement_energy"] == comp.energy(), "complement energy differs from the complement")
    expect(got["equienergetic"] == equal, "equienergy verdict differs from the complement")
    expect(got["positive_nonprincipal_count"] == pos, "positive eigenvalue count differs")
    expect(got["criterion_agrees"] == ((pos == 1 and neg == len(ref.nonprincipal()) - 1) == equal),
           "criterion agreement differs")


def family_level_facts(k: int, p: int, t: int, s: int, ell: int) -> tuple[int, int]:
    """(exponent of the pair's norm, decimal digits of q) at one level."""
    if k == 3:
        e = t * ell + s
        return e, digit_count(p ** (3 * e))
    return ell, digit_count(p ** (4 * ell))


def family_sign_count(k: int, p: int, e: int, pair: tuple[int, int]) -> int:
    """Positive non-principal eigenvalues at one level, from the formulas."""
    if k == 3:
        return positive_count(k3_values(p ** e, pair[0], abs(pair[1])))
    return positive_count(k4_values(p ** e, pair[0], abs(pair[1])))


def check_family_output(text: str, fmt: str, k: int, p: int, s: int, ell_max: int,
                        facts: dict | None = None) -> None:
    """Every level: norm equation, congruence, coprimality, the verdict against
    a sign count and q_digits against a digit count made here.  ``facts`` maps
    ell to (exponent, digits) and may be precomputed."""
    rows = parse_witnesses(text, fmt)
    expect([w["ell"] for w in rows] == list(range(1, ell_max + 1)), "levels are not 1..ell_max")
    t = minimal_t(p) if k == 3 else 1
    for w in rows:
        e, digits = facts[w["ell"]] if facts else family_level_facts(k, p, t, s, w["ell"])
        if k == 3:
            check_k3_pair(p, e, *w["pair"])
        else:
            check_k4_pair(p, e, *w["pair"])
        expect(w["q_digits"] == digits, f"q_digits wrong at level {w['ell']}")
        expect(w["equienergetic"] == (family_sign_count(k, p, e, w["pair"]) == 1),
               f"verdict differs from the sign count at level {w['ell']}")


def check_lift_output(text: str, fmt: str, k: int, p: int, s: int, ell_max: int) -> None:
    rows = parse_levels(text, fmt)
    expect([r[0] for r in rows] == list(range(1, ell_max + 1)), "levels are not 1..ell_max")
    t = minimal_t(p) if k == 3 else 1
    for ell, x, y, q in rows:
        if k == 3:
            check_k3_pair(p, t * ell + s, x, y)
            expect(q == f"{p}^{3 * (t * ell + s)}", f"q label wrong at level {ell}")
        else:
            check_k4_pair(p, ell, x, y)
            expect(q == f"{p}^{4 * ell}", f"q label wrong at level {ell}")


def check_oracle_spectrum(entries, principal: int, ref: Ref) -> None:
    """A Spectrum-like value from a library oracle call against the reference."""
    expect(dict(entries) == ref.values, "oracle spectrum differs from the closed-form reference")
    expect(principal == ref.principal, "oracle principal differs")
