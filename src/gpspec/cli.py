"""Command-line surface, serialization and a persistent result cache.

Commands: spectrum | energy | equienergetic | lift | family | verify | tables.
Eigenvalues, multiplicities and energies serialize as decimal strings (they
outgrow fixed-width integers quickly under lifting), of any size: a command
runs with the interpreter's int/str digit limit lifted, while the arguments
are parsed under it.  The parser is built once per process.

The cache (--cache PATH) is an append-only file of JSON lines, one record
{code, key, output} each.  A record's key holds the package version, the
command and the parsed flags the command reads, so a result never replays
across versions (entries of another version miss once).  A lookup searches
the file's bytes for the key's text and decodes only the lines around a
match; the first record with the key wins and replays byte-identical output,
and a line that is truncated, foreign or not UTF-8 matches nothing.  A cache
path that cannot be read or written (a directory, a file in a missing
directory) exits 2 with nothing on stdout.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, an
unusable cache path or out-of-scope parameters (with a diagnostic naming
the violated hypothesis).

Each subcommand declares only the flags it reads, so the cache key holds
only values that can change the output (the oracle caps of spectrum without
--verify and the --ell-max of lift --lift are checked but left out): spectrum,
verify, energy and equienergetic take -k -p (-m | --lift) -t -s --variant,
and spectrum and verify also --dense-cap --char-cap (spectrum --verify);
lift takes -k -p -t -s (--lift | --ell-max), family -k -p -t -s --ell-max,
tables --table.  All but tables take --format, all take --cache.  -t and -s
are lift offsets: with -m they exit 2, and k = 4 takes only -t 1 and -s 0.
On the graph commands --lift L names level L of the family of p, the graph
with m = k*(t*L + s) (``lift.level_exponent``); from there every variant
takes the same route as -m.

Every cap can be overridden by an environment variable with the GPSPEC_
prefix (GPSPEC_DENSE_CAP, GPSPEC_CHAR_CAP, GPSPEC_ELL_MAX); an explicit flag
wins, and an unset or empty variable leaves the default.  Values from either
source pass the same check: --ell-max counts the levels 1..ell_max to probe,
so 0 is the empty range, while the oracle caps --dense-cap and --char-cap
must be at least 1.  A value out of range or not an integer exits 2 with a
diagnostic naming the flag or variable it came from.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__, lift, oracle
from .energy import (EnergyReport, energy_bounds, is_complementary_equienergetic,
                     semiprimitive_energy)
from .errors import GPSpecError
from .family import ELL_MAX, FamilyWitness, find_equienergetic_family
from .ff import HypothesisCase, theorem_hypotheses
from .spectra import (GraphSpec, Spectrum, Variant, k3_case_a_eigenvalues,
                      k4_case_a_eigenvalues, spectrum_of)

_ENV_PREFIX = "GPSPEC_"
# cap -> (default, least admissible value).  ell_max is a count of levels, so
# 0 (the empty range) is valid; the oracle size caps must be at least 1.
_CAPS = {"dense_cap": (oracle.DENSE_CAP, 1), "char_cap": (oracle.CHAR_CAP, 1),
         "ell_max": (ELL_MAX, 0)}


# ---------------------------------------------------------------------------
# Rendering (in JSON all big integers are exact decimal strings)
# ---------------------------------------------------------------------------

def _graph_dict(g: GraphSpec) -> dict:
    return {"k": g.k, "p": g.p, "m": g.m, "variant": g.variant.value}


def _json_line(d: dict) -> str:
    return json.dumps(d, sort_keys=True) + "\n"


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _graph_label(g: GraphSpec) -> str:
    return f"{g.variant.value} k={g.k} p={g.p} m={g.m} (q = {g.p}^{g.m})"


def render_spectrum(s: Spectrum, g: GraphSpec, fmt: str) -> str:
    if fmt == "json":
        return _json_line({
            "spectrum": [{"value": str(v), "mult": str(e)} for v, e in s.entries],
            "principal": str(s.principal), "order": str(s.order), "loops": str(s.loops),
            "energy": str(s.energy()), "graph": _graph_dict(g)})
    if fmt == "csv":
        lines = ["eigenvalue,multiplicity"]
        lines += [f"{v},{e}" for v, e in s.entries]
        return "\n".join(lines) + "\n"
    body = " ".join(f"[{v}]^{e}" for v, e in s.entries)
    return (f"graph: {_graph_label(g)}\n"
            f"spectrum: {body}\n"
            f"principal: {s.principal}  loops: {s.loops}\n"
            f"energy: {s.energy()}\n")


def render_report(r: EnergyReport, g: GraphSpec, fmt: str) -> str:
    if fmt == "json":
        return _json_line({
            "energy": str(r.energy), "complement_energy": str(r.complement_energy),
            "positive_nonprincipal_count": r.positive_nonprincipal_count,
            "equienergetic": r.equienergetic, "criterion_agrees": r.criterion_agrees,
            "graph": _graph_dict(g)})
    if fmt == "csv":
        return ("energy,complement_energy,positive_nonprincipal_count,equienergetic,criterion_agrees\n"
                f"{r.energy},{r.complement_energy},{r.positive_nonprincipal_count},"
                f"{r.equienergetic},{r.criterion_agrees}\n")
    return (f"graph: {_graph_label(g)}\n"
            f"energy: {r.energy}\n"
            f"complement energy: {r.complement_energy}\n"
            f"positive non-principal eigenvalues: {r.positive_nonprincipal_count}\n"
            f"equienergetic with complement: {r.equienergetic}\n"
            f"sign criterion agrees: {r.criterion_agrees}\n")


def render_witnesses(witnesses: list[FamilyWitness], fmt: str) -> str:
    if fmt == "json":
        return _json_line({"witnesses": [
            {"p": w.p, "k": w.k, "t": w.t, "s": w.s, "ell": w.ell,
             "pair": [str(w.pair[0]), str(w.pair[1])], "equienergetic": w.equienergetic,
             "interval_hit": w.interval_hit, "q_digits": w.q_digits} for w in witnesses]})
    if fmt == "csv":
        lines = ["ell,x,y,q_digits,equienergetic,interval_hit"]
        lines += [f"{w.ell},{w.pair[0]},{w.pair[1]},{w.q_digits},{w.equienergetic},{w.interval_hit}"
                  for w in witnesses]
        return "\n".join(lines) + "\n"
    if not witnesses:
        return "no levels probed\n"
    head = witnesses[0]
    lines = [f"family: k={head.k} p={head.p} t={head.t} s={head.s}",
             "ell | equienergetic | interval_hit | q_digits | pair"]
    for w in witnesses:
        lines.append(f"{w.ell:3d} | {str(w.equienergetic):13s} | {str(w.interval_hit):12s} "
                     f"| {w.q_digits:8d} | ({w.pair[0]}, {w.pair[1]})")
    hits = [w.ell for w in witnesses if w.equienergetic]
    lines.append(f"equienergetic levels: {hits}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Table reproduction
# ---------------------------------------------------------------------------

#: table -> (p, k, t, s, levels, comment lines) of its lifted family
_TABLES = {
    1: (7, 3, 3, 1, 4, (
        "# table 1: GP(3, 7^(9*ell+3)) from base (x0,y0)=(10,3), (a0,b0)=(1,1); t=3, s=1",
        "# eigenvalues: non-principal values, descending; principal is (q-1)/3",
        "ell,a,b,q,eigenvalues")),
    2: (31, 3, None, 0, 5, (
        "# table 2: GP(3, 31^(3*ell)) from base (x0,y0)=(-2,1); t=1, s=0",
        "# eigenvalues: non-principal values, descending; principal is n_ell = (31^(3*ell)-1)/3",
        "# (n_ell is computed from that definition; quoted lists for this family elsewhere",
        "#  can mistakenly repeat the p=7 family's principal values)",
        "ell,a,b,q,eigenvalues")),
    3: (5, 4, None, 0, 5, (
        "# table 3: GP(4, 5^(4*ell)) from base (c1,d1)=(-3,2)",
        "# eigenvalues: non-principal values in formula order",
        "# ((q^(1/2)+4d*q^(1/4)-1)/4, (q^(1/2)-4d*q^(1/4)-1)/4,",
        "#  (-q^(1/2)+2c*q^(1/4)-1)/4, (-q^(1/2)-2c*q^(1/4)-1)/4)",
        "ell,c,d,eigenvalues")),
}


def table_csv(which: int) -> str:
    """Byte-stable CSV of a lifted-family table: a row per level of
    ``lift.levels``, and level 0 from the base pair when s > 0 (table 1).
    k = 3 rows list the non-principal eigenvalues in descending order and q,
    k = 4 rows list them in formula order."""
    if which not in _TABLES:
        raise ValueError(f"no table {which}")
    p, k, t, s, count, head = _TABLES[which]
    lines = list(head)
    rows = [(lvl.ell, lvl.pair, lvl.root, lvl.m) for lvl in lift.levels(p, k, count, t, s)]
    if s:
        rows.insert(0, (0, lift.family_base(p, k, t, s)[2], p ** s, k * s))
    for ell, (x, y), root, m in rows:
        if k == 3:
            lams = sorted(k3_case_a_eigenvalues(root, x, y), reverse=True)
            lines.append(f"{ell},{x},{y},{p}^{m}," + ";".join(map(str, lams)))
        else:
            lines.append(f"{ell},{x},{y}," + ";".join(map(str, k4_case_a_eigenvalues(root, x, y))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _key_field(key: str) -> str:
    """A record's key as its line spells it.  Inside a JSON string every '"'
    is escaped, so in a line the cache wrote this text occurs only where the
    record's key starts."""
    return '"key": ' + json.dumps(key)


def _record_line(key: str, output: str, code: int) -> bytes:
    """One cache record: ``json.dumps`` of {code, key, output} with sorted
    keys, spelled out around ``_key_field`` so that lookups search for the
    text appends write."""
    line = f'{{"code": {code:d}, {_key_field(key)}, "output": {json.dumps(output)}}}\n'
    return line.encode("utf-8")


def _cache_lookup(path: str, key: str) -> tuple[str, int] | None:
    """(output, code) of the first record whose key is ``key``, else None.
    The file is searched as bytes for the key's text, and only the line
    around each match is decoded; a line that does not decode, is not a
    record, holds another key or no usable result (an ``output`` string and
    a ``code`` of 0 or 1, the codes appends write) is passed over."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    needle = _key_field(key).encode("utf-8")
    at = data.find(needle)
    while at >= 0:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        end = len(data) if end < 0 else end
        try:
            rec = json.loads(data[start:end].decode("utf-8"))
        except ValueError:              # truncated, foreign or not UTF-8 (UnicodeDecodeError)
            rec = None
        if isinstance(rec, dict) and rec.get("key") == key:
            output, code = rec.get("output"), rec.get("code")
            if isinstance(output, str) and type(code) is int and code in (0, 1):
                return output, code
        at = data.find(needle, end)
    return None


def _cache_append(path: str, key: str, output: str, code: int) -> None:
    line = _record_line(key, output, code)
    with open(path, "ab+") as fh:
        if fh.tell():                   # end a truncated last line before appending
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def _cache_key(args: argparse.Namespace) -> str:
    """The package version, the command and the parsed flags it reads: not
    --cache, nor the oracle caps of spectrum without --verify, nor the
    ell_max of lift --lift (--lift sets the count)."""
    unread = {"func", "cache"}
    if not getattr(args, "verify", True):
        unread |= {"dense_cap", "char_cap"}
    if getattr(args, "lift", None) is not None:
        unread.add("ell_max")
    params = {k: v for k, v in vars(args).items() if k not in unread and v is not None}
    params["version"] = __version__
    return json.dumps(params, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Command implementations: each returns (output_text, exit_code)
# ---------------------------------------------------------------------------

def _resolve_graph(args) -> GraphSpec:
    """The graph of -m, or of level --lift L of the family of p (offsets
    -t/-s)."""
    m = args.m
    if args.lift is not None:
        m = lift.level_exponent(args.p, args.k, args.lift, args.t, args.s or 0)
    elif args.t is not None or args.s is not None:
        raise GPSpecError("-t and -s are lift offsets; use them with --lift, not -m")
    return GraphSpec(args.k, args.p, m, Variant(args.variant))


def _verify_against_oracles(g: GraphSpec, s: Spectrum, args) -> tuple[list[str], list[str]]:
    """Run every oracle admitted by the caps; returns (checked, mismatches)."""
    checked, mismatches = [], []
    if g.variant is Variant.GP and g.q <= args.char_cap:
        got = oracle.char_sum_spectrum(g, char_cap=args.char_cap)
        checked.append("character-sum")
        if got != s:
            mismatches.append("character-sum")
    if g.q <= args.dense_cap:
        graph = oracle.build_graph(g, dense_cap=args.dense_cap)
        got = oracle.dense_spectrum(graph)
        checked.append("dense-eigensolver")
        if got != s:
            mismatches.append("dense-eigensolver")
    return checked, mismatches


def cmd_spectrum(args) -> tuple[str, int]:
    g = _resolve_graph(args)
    s = spectrum_of(g)
    out = render_spectrum(s, g, args.format)
    if args.verify:
        checked, mismatches = _verify_against_oracles(g, s, args)
        if not checked:
            raise GPSpecError(f"q = {g.p}^{g.m} exceeds every oracle cap; nothing to verify")
        for name in checked:
            status = "MISMATCH" if name in mismatches else "ok"
            out += f"verify[{name}]: {status}\n"
        if mismatches:
            return out, 1
    return out, 0


#: ``verify`` is ``spectrum --verify``; the name stays for bench/tracing.py.
cmd_verify = cmd_spectrum


def cmd_energy(args) -> tuple[str, int]:
    g = _resolve_graph(args)
    case = theorem_hypotheses(g.k, g.p, g.m)
    e = spectrum_of(g).energy()
    lower = upper = exact = None
    if case is HypothesisCase.CASE_A:
        lower, upper = energy_bounds(g.k, g.p, g.m)
    elif case is HypothesisCase.SEMIPRIMITIVE and g.variant in (Variant.GP, Variant.GPSUM):
        exact = semiprimitive_energy(g.k, g.p, g.m)
    if args.format == "json":
        d = {"graph": _graph_dict(g), "energy": str(e)}
        if lower is not None:
            d["bounds"] = {"lower": _frac_str(lower), "upper": _frac_str(upper)}
        if exact is not None:
            d["semiprimitive_exact"] = str(exact)
        return _json_line(d), 0
    if args.format == "csv":
        return f"energy\n{e}\n", 0
    out = f"graph: {_graph_label(g)}\nenergy: {e}\n"
    if lower is not None:
        out += f"bounds: {_frac_str(lower)} <= E <= {_frac_str(upper)}\n"
    if exact is not None:
        out += f"semiprimitive exact value: {exact}\n"
    return out, 0


def cmd_equienergetic(args) -> tuple[str, int]:
    g = _resolve_graph(args)
    s = spectrum_of(g)
    if g.variant is not Variant.GP:
        raise GPSpecError("equienergy decision is defined on the GP variant")
    report = is_complementary_equienergetic(s)
    return render_report(report, g, args.format), 0


def cmd_lift(args) -> tuple[str, int]:
    if args.lift is not None and args.lift < 0:
        raise GPSpecError("--lift must be 0 or more")
    count = args.lift if args.lift is not None else args.ell_max
    rows = [(lvl.ell, *lvl.pair, f"{args.p}^{lvl.m}")
            for lvl in lift.levels(args.p, args.k, count, args.t, args.s or 0)]
    if args.format == "json":
        return _json_line({"levels": [{"ell": r[0], "x": str(r[1]), "y": str(r[2]), "q": r[3]}
                                      for r in rows]}), 0
    lines = ["ell,x,y,q"] + [f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in rows]
    return "\n".join(lines) + "\n", 0


def cmd_family(args) -> tuple[str, int]:
    witnesses = find_equienergetic_family(args.p, args.k, t=args.t, s=args.s or 0,
                                          ell_max=args.ell_max)
    return render_witnesses(witnesses, args.format), 0


def cmd_tables(args) -> tuple[str, int]:
    which = [1, 2, 3] if args.table == "all" else [int(args.table)]
    return "".join(table_csv(w) for w in which), 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_cap(sp, cap: str) -> None:
    default, least = _CAPS[cap]
    sp.add_argument("--" + cap.replace("_", "-"), type=int,
                    help=f"cap, at least {least} (env {_ENV_PREFIX}{cap.upper()}, default {default})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no value read from the
    environment (``_resolve_caps`` reads those on every call)."""
    parser = argparse.ArgumentParser(
        prog="gpspec",
        description="spectra, energies and equienergy of generalized Paley graphs (k = 3, 4)")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, func, help_ in (
            ("spectrum", cmd_spectrum, "closed-form spectrum of one graph"),
            ("energy", cmd_energy, "energy with bounds / exact formula"),
            ("equienergetic", cmd_equienergetic, "complementary-equienergy report"),
            ("lift", cmd_lift, "coefficient pairs of the lifting recursion"),
            ("family", cmd_family, "probe equienergetic levels of a lifted family"),
            ("verify", cmd_spectrum, "spectrum plus oracle agreement (exit 1 on mismatch)"),
            ("tables", cmd_tables, "reproduce the lifted-family tables as CSV")):
        subs[name] = sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--cache", metavar="PATH", help="append-only JSONL result cache")
        if name == "tables":
            sp.add_argument("--table", choices=("1", "2", "3", "all"), default="all")
            continue
        sp.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        sp.add_argument("-k", type=int, choices=(3, 4), default=3, help="power-residue parameter")
        sp.add_argument("-p", type=int, required=True, help="prime characteristic")
        sp.add_argument("-t", type=int, help="minimal exponent of p (lift offset; k=4 takes 1)")
        sp.add_argument("-s", type=int, help="lift offset in [0, t) (k=4 takes 0)")

    for name in ("spectrum", "verify", "energy", "equienergetic"):
        route = subs[name].add_mutually_exclusive_group(required=True)
        route.add_argument("-m", type=int, help="field exponent, q = p^m")
        route.add_argument("--lift", type=int, metavar="L",
                           help="compute at lift level L instead of from -m")
        subs[name].add_argument("--variant", choices=[v.value for v in Variant], default="gp")
    for name in ("spectrum", "verify"):
        _add_cap(subs[name], "dense_cap")
        _add_cap(subs[name], "char_cap")
    subs["spectrum"].add_argument("--verify", action="store_true",
                                  help="cross-check against the oracles; exit 1 on mismatch")
    subs["verify"].set_defaults(verify=True)
    count = subs["lift"].add_mutually_exclusive_group()
    count.add_argument("--lift", type=int, metavar="L", help="levels 1..L (as --ell-max L)")
    _add_cap(count, "ell_max")
    _add_cap(subs["family"], "ell_max")
    return parser


def _resolve_caps(args: argparse.Namespace) -> str | None:
    """Set each cap of ``args`` from its flag, else its GPSPEC_ variable, else
    its default.  Returns a diagnostic naming the source of the first value
    that is not an integer or lies below the cap's least value, else None."""
    for cap, (default, least) in _CAPS.items():
        if not hasattr(args, cap):
            continue
        source, value = "--" + cap.replace("_", "-"), getattr(args, cap)
        if value is None:
            env = _ENV_PREFIX + cap.upper()
            raw = os.environ.get(env)
            value = default
            if raw:
                source = env
                try:
                    value = int(raw)
                except ValueError:
                    return f"{env} must be an integer, got {raw!r}"
        if value < least:
            return f"{source} must be " + ("positive" if least == 1 else "0 or more")
        setattr(args, cap, value)
    return None


@contextlib.contextmanager
def _any_int_size():
    """Lift the interpreter's int/str digit limit (Python 3.10.7 and later)
    for the body, and restore its value on every way out."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _resolve_caps(args)
    if problem is not None:
        return _error(problem)
    key = _cache_key(args)
    try:
        hit = _cache_lookup(args.cache, key) if args.cache else None
    except OSError as exc:
        return _error(f"cannot read --cache {args.cache}: {exc.strerror or exc}")
    if hit is not None:
        sys.stdout.write(hit[0])
        return hit[1]
    with _any_int_size():
        try:
            output, code = args.func(args)
        except (GPSpecError, ValueError) as exc:
            return _error(str(exc))
    if args.cache:
        try:
            _cache_append(args.cache, key, output, code)
        except OSError as exc:
            return _error(f"cannot write --cache {args.cache}: {exc.strerror or exc}")
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
