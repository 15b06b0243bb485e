"""Command-line surface, serialization and a persistent result cache.

Commands: spectrum | energy | equienergetic | lift | family | verify | tables.
Eigenvalues, multiplicities and energies serialize as decimal strings (they
outgrow fixed-width integers quickly under lifting).  The cache is an
append-only line-delimited JSON file keyed by the canonical parameters of a
command; a hit replays byte-identical output.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or
out-of-scope parameters (with a diagnostic naming the violated hypothesis).

Each subcommand declares only the flags it reads, so the cache key (the
parsed arguments) holds only values that can change the output: spectrum,
verify, energy and equienergetic take -k -p (-m | --lift) -t -s --variant,
and spectrum and verify also --dense-cap --char-cap (spectrum --verify);
lift takes -k -p -t -s (--lift | --ell-max), family -k -p -t -s --ell-max,
tables --table.  All but tables take --format, all take --cache.  -t and -s
are lift offsets: with -m they exit 2, and k = 4 takes only -t 1 and -s 0.

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
import json
import os
import sys
from fractions import Fraction

from . import dioph, lift, oracle
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
# Serialization (JSON round-trips exactly; all big integers as strings)
# ---------------------------------------------------------------------------

def spectrum_to_dict(s: Spectrum, graph: GraphSpec | None = None) -> dict:
    d = {
        "spectrum": [{"value": str(v), "mult": str(e)} for v, e in s.entries],
        "principal": str(s.principal),
        "order": str(s.order),
        "loops": str(s.loops),
        "energy": str(s.energy()),
    }
    if graph is not None:
        d["graph"] = {"k": graph.k, "p": graph.p, "m": graph.m, "variant": graph.variant.value}
    return d


def spectrum_from_dict(d: dict) -> Spectrum:
    return Spectrum(
        entries=tuple((int(e["value"]), int(e["mult"])) for e in d["spectrum"]),
        principal=int(d["principal"]),
        order=int(d["order"]),
        loops=int(d["loops"]),
    )


def graph_from_dict(d: dict) -> GraphSpec:
    return GraphSpec(d["k"], d["p"], d["m"], Variant(d["variant"]))


def report_to_dict(r: EnergyReport) -> dict:
    return {
        "energy": str(r.energy),
        "complement_energy": str(r.complement_energy),
        "positive_nonprincipal_count": r.positive_nonprincipal_count,
        "equienergetic": r.equienergetic,
        "criterion_agrees": r.criterion_agrees,
    }


def report_from_dict(d: dict) -> EnergyReport:
    return EnergyReport(
        energy=int(d["energy"]),
        complement_energy=int(d["complement_energy"]),
        positive_nonprincipal_count=d["positive_nonprincipal_count"],
        equienergetic=d["equienergetic"],
        criterion_agrees=d["criterion_agrees"],
    )


def witness_to_dict(w: FamilyWitness) -> dict:
    return {
        "p": w.p, "k": w.k, "t": w.t, "s": w.s, "ell": w.ell,
        "pair": [str(w.pair[0]), str(w.pair[1])],
        "equienergetic": w.equienergetic,
        "interval_hit": w.interval_hit,
        "q_digits": w.q_digits,
    }


def witness_from_dict(d: dict) -> FamilyWitness:
    return FamilyWitness(
        p=d["p"], k=d["k"], t=d["t"], s=d["s"], ell=d["ell"],
        pair=(int(d["pair"][0]), int(d["pair"][1])),
        equienergetic=d["equienergetic"],
        interval_hit=d["interval_hit"],
        q_digits=d["q_digits"],
    )


def _json_line(d: dict) -> str:
    return json.dumps(d, sort_keys=True) + "\n"


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _graph_label(g: GraphSpec) -> str:
    return f"{g.variant.value} k={g.k} p={g.p} m={g.m} (q = {g.p}^{g.m})"


def render_spectrum(s: Spectrum, g: GraphSpec, fmt: str) -> str:
    if fmt == "json":
        return _json_line(spectrum_to_dict(s, g))
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
        d = report_to_dict(r)
        d["graph"] = {"k": g.k, "p": g.p, "m": g.m, "variant": g.variant.value}
        return _json_line(d)
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
        return _json_line({"witnesses": [witness_to_dict(w) for w in witnesses]})
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

def table_csv(which: int) -> str:
    """Byte-stable CSV of the three lifted-family tables.

    Tables 1 and 2 list non-principal eigenvalues in descending order;
    table 3 lists them in formula order.  Everything is derived from the
    base solutions only (no per-level quadratic-form solving).
    """
    if which == 1:
        lines = [
            "# table 1: GP(3, 7^(9*ell+3)) from base (x0,y0)=(10,3), (a0,b0)=(1,1); t=3, s=1",
            "# eigenvalues: non-principal values, descending; principal is (q-1)/3",
            "ell,a,b,q,eigenvalues",
        ]
        for ell in range(0, 5):
            a, b = lift.derived_ab(7, 3, 1, ell)
            e = 3 * ell + 1
            lams = sorted(k3_case_a_eigenvalues(7 ** e, a, b), reverse=True)
            lines.append(f"{ell},{a},{b},7^{3 * e}," + ";".join(map(str, lams)))
        return "\n".join(lines) + "\n"
    if which == 2:
        lines = [
            "# table 2: GP(3, 31^(3*ell)) from base (x0,y0)=(-2,1); t=1, s=0",
            "# eigenvalues: non-principal values, descending; principal is n_ell = (31^(3*ell)-1)/3",
            "# (n_ell is computed from that definition; quoted lists for this family elsewhere",
            "#  can mistakenly repeat the p=7 family's principal values)",
            "ell,a,b,q,eigenvalues",
        ]
        for ell in range(1, 6):
            a, b = lift.derived_ab(31, 1, 0, ell)
            lams = sorted(k3_case_a_eigenvalues(31 ** ell, a, b), reverse=True)
            lines.append(f"{ell},{a},{b},31^{3 * ell}," + ";".join(map(str, lams)))
        return "\n".join(lines) + "\n"
    if which == 3:
        lines = [
            "# table 3: GP(4, 5^(4*ell)) from base (c1,d1)=(-3,2)",
            "# eigenvalues: non-principal values in formula order",
            "# ((q^(1/2)+4d*q^(1/4)-1)/4, (q^(1/2)-4d*q^(1/4)-1)/4,",
            "#  (-q^(1/2)+2c*q^(1/4)-1)/4, (-q^(1/2)-2c*q^(1/4)-1)/4)",
            "ell,c,d,eigenvalues",
        ]
        for ell in range(1, 6):
            c, d = lift.derived_cd(5, ell)
            lams = k4_case_a_eigenvalues(5 ** ell, c, d)
            lines.append(f"{ell},{c},{d}," + ";".join(map(str, lams)))
        return "\n".join(lines) + "\n"
    raise ValueError(f"no table {which}")


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _cache_lookup(path: str, key: str) -> tuple[str, int] | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:          # a blank, truncated or foreign line matches nothing
                continue
            if isinstance(rec, dict) and rec.get("key") == key:
                return rec["output"], rec["code"]
    return None


def _cache_append(path: str, key: str, output: str, code: int) -> None:
    line = json.dumps({"key": key, "output": output, "code": code}, sort_keys=True) + "\n"
    with open(path, "ab+") as fh:
        if fh.tell():                   # end a truncated last line before appending
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line
        fh.write(line.encode("utf-8"))


def _cache_key(command: str, args: argparse.Namespace) -> str:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "cache") and v is not None}
    params["command"] = command
    return json.dumps(params, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Command implementations: each returns (output_text, exit_code)
# ---------------------------------------------------------------------------

def _resolve_graph(args) -> tuple[GraphSpec, Spectrum]:
    """GraphSpec and closed-form spectrum from either the (k,p,m) route or
    the lift route (--lift L, with the offsets -t/-s)."""
    variant = Variant(args.variant)
    if args.lift is None:
        if args.t is not None or args.s is not None:
            raise GPSpecError("-t and -s are lift offsets; use them with --lift, not -m")
        g = GraphSpec(args.k, args.p, args.m, variant)
        return g, spectrum_of(g)
    ell, s = args.lift, args.s or 0
    if args.k == 3:
        t = args.t if args.t is not None else dioph.minimal_t(args.p)[0]
        spectrum = lift.derived_spectrum_k3(args.p, t, s, ell)
        m = 3 * (t * ell + s)
    else:
        lift.check_k4_offsets(args.t, s)
        spectrum = lift.derived_spectrum_k4(args.p, ell)
        m = 4 * ell
    if variant is not Variant.GP:
        raise GPSpecError("--lift computes GP spectra; combine with --variant gp")
    return GraphSpec(args.k, args.p, m, variant), spectrum


def _verify_against_oracles(g: GraphSpec, s: Spectrum, args) -> tuple[list[str], list[str]]:
    """Run every oracle admitted by the caps; returns (checked, mismatches)."""
    checked, mismatches = [], []
    base = GraphSpec(g.k, g.p, g.m, Variant.GP)
    if g.variant is Variant.GP and g.q <= args.char_cap:
        got = oracle.char_sum_spectrum(base, char_cap=args.char_cap)
        checked.append("character-sum")
        if got != s:
            mismatches.append("character-sum")
    if g.q <= args.dense_cap:
        graph = oracle.build_graph(g, dense_cap=args.dense_cap)
        got = oracle.dense_spectrum(graph, cap=args.dense_cap)
        checked.append("dense-eigensolver")
        if got != s:
            mismatches.append("dense-eigensolver")
    return checked, mismatches


def cmd_spectrum(args) -> tuple[str, int]:
    g, s = _resolve_graph(args)
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
    g, s = _resolve_graph(args)
    e = s.energy()
    case = theorem_hypotheses(g.k, g.p, g.m)
    lower = upper = exact = None
    if case in (HypothesisCase.K3_CASE_A, HypothesisCase.K4_CASE_A):
        lower, upper = energy_bounds(g.k, g.p, g.m)
    elif case in (HypothesisCase.K3_CASE_B, HypothesisCase.K4_CASE_B) and g.variant in (
            Variant.GP, Variant.GPSUM):
        exact = semiprimitive_energy(g.k, g.p, g.m)
    if args.format == "json":
        d = {"graph": {"k": g.k, "p": g.p, "m": g.m, "variant": g.variant.value},
             "energy": str(e)}
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
    g, s = _resolve_graph(args)
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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _resolve_caps(args)
    if problem is not None:
        sys.stderr.write(f"error: {problem}\n")
        return 2
    key = _cache_key(args.command, args)
    hit = _cache_lookup(args.cache, key) if args.cache else None
    if hit is not None:
        sys.stdout.write(hit[0])
        return hit[1]
    try:
        output, code = args.func(args)
    except (GPSpecError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.cache:
        _cache_append(args.cache, key, output, code)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
