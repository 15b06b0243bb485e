"""The four workloads: fixed lists of operations drawn from fixed pools.

Every operation is one closed-loop call: a ``gpspec.cli.main`` command with
its standard output captured, or one library call.  A seed draws output
formats, variants, levels and the cheap graphs from pools of like cost, so
that every seed gives a pass of similar cost; the order of the list is the
same for every seed.  Each operation
carries a checker from ``checks``; none of them reads the program's own
answer as a reference.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as C

FORMATS = ("pretty", "json", "csv")


@dataclass
class Op:
    label: str
    call: Callable[[], tuple]             # -> (code, stdout, stderr) or (code, value, error)
    check: Callable[[tuple], None]        # raises checks.CheckError


def failed(outcome: tuple) -> bool:
    return outcome[0] != 0


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """One command through ``cli.main``, as ``gpspec argv`` would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:                    # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:                     # a traceback: counted as failed
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def cli_op(cli, argv: list[str], check: Callable[[str], None]) -> Op:
    return Op(" ".join(argv), lambda: run_cli(cli, argv), lambda o: check(o[1]))


def lib_op(label: str, fn: Callable[[], object], check: Callable[[object], None]) -> Op:
    def call():
        try:
            return 0, fn(), ""
        except Exception as exc:                     # counted as failed
            return -1, None, f"{type(exc).__name__}: {exc}"
    return Op(label, call, lambda o: check(o[1]))


def balanced(rng: random.Random, n: int, pool=FORMATS) -> list[str]:
    """n draws that use every member of the pool equally often (up to one)."""
    out = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(out)
    return out


def fixed_order(ops: list) -> None:
    """Mix the kinds of operation in one order for every seed: the seed draws
    what the operations are, not their order, because the order alone moves
    peak memory by up to 10 % (allocator fragmentation)."""
    random.Random(0).shuffle(ops)


def graph_args(k, p, m) -> list[str]:
    return ["-k", str(k), "-p", str(p), "-m", str(m)]


def lift_args(k, p, s, ell) -> list[str]:
    return ["-k", str(k), "-p", str(p)] + (["-s", str(s)] if s else []) + ["--lift", str(ell)]


def lift_m(k, p, s, ell) -> int:
    return 3 * (C.minimal_t(p) * ell + s) if k == 3 else 4 * ell


class Workload:
    """A fixed list of operations plus the state each pass starts from."""

    name = ""

    def __init__(self, gpspec_cli, seed: int, workdir: Path):
        self.cli = gpspec_cli
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    def reset(self) -> None:
        """Restore the starting state before a pass (untimed)."""

    def before_op(self):
        """Untimed hook before each operation; its value is kept for check_pass."""
        return None

    def check_pass(self, records) -> None:
        """Checks that span a whole pass (records: (op, exit code, note))."""


# ---------------------------------------------------------------------------
# closed-form: one-graph queries on the -m route
# ---------------------------------------------------------------------------

class ClosedForm(Workload):
    """spectrum / energy / equienergetic on the -m route; dioph's scans do the work."""

    name = "closed-form"
    # heavy: one command each, the solve takes 0.2 s to 1 s
    HEAVY = [("spectrum", 3, 61, 24), ("energy", 3, 97, 18), ("equienergetic", 4, 37, 16),
             ("spectrum", 4, 17, 20)]
    # mid: 1 ms to 20 ms solves, every command on every graph
    MID = [(3, 7, 30), (3, 31, 18), (3, 37, 18), (3, 43, 18), (3, 61, 18), (3, 19, 24),
           (3, 7, 36), (4, 5, 24), (4, 5, 28), (4, 13, 16), (4, 17, 16), (4, 29, 12), (4, 29, 16)]
    # light graphs, drawn 20 of the case A pool and 10 of the semiprimitive pool: their
    # commands cost little beyond parsing and rendering and are most of the list, so
    # op_ms_p50 falls inside them and op_ms_p90 on the fixed mid and heavy commands
    LIGHT = [(3, p, m) for p in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97) for m in (3, 6, 9)] + \
            [(4, p, m) for p in (5, 13, 17, 29, 37, 41) for m in (4, 8)]
    SEMI = [(3, 2, 4), (3, 2, 6), (3, 2, 8), (3, 2, 10), (3, 5, 2), (3, 5, 4), (3, 11, 2), (3, 11, 4),
            (3, 17, 2), (3, 23, 2), (3, 29, 2), (4, 3, 4), (4, 3, 6), (4, 3, 8), (4, 7, 2),
            (4, 7, 4), (4, 11, 2), (4, 19, 2), (4, 23, 2)]
    # semiprimitive graphs whose q has 2000 to 3000 digits (energies stay under 4300 digits)
    HUGE = [(3, 2, 8000), (3, 5, 3000), (3, 11, 2000), (4, 3, 5000), (4, 7, 3000), (4, 19, 2000)]
    # energy --lift L: the bounds re-solve by scanning at the lifted exponent
    ENERGY_LIFT = [(3, 31, 0, 8), (4, 5, 0, 8), (3, 7, 0, 3), (4, 13, 0, 5)]

    def __init__(self, gpspec_cli, seed, workdir):
        super().__init__(gpspec_cli, seed, workdir)
        rng = self.rng
        queries = [(cmd, (k, p, m)) for cmd, k, p, m in self.HEAVY]
        graphs = self.MID + rng.sample(self.LIGHT, 20) + rng.sample(self.SEMI, 10) + self.HUGE
        queries += [(cmd, g) for g in graphs for cmd in ("spectrum", "energy", "equienergetic")]
        fmts = balanced(rng, len(queries) + len(self.ENERGY_LIFT))
        variants = balanced(rng, len(queries), ("gp", "gpsum", "comp"))
        for (cmd, (k, p, m)), fmt, variant in zip(queries, fmts, variants):
            if cmd == "equienergetic":
                variant = "gp"
            argv = [cmd] + graph_args(k, p, m) + ["--variant", variant, "--format", fmt]
            self.ops.append(cli_op(self.cli, argv, self._checker(cmd, k, p, m, variant, fmt)))
        for (k, p, s, ell), fmt in zip(self.ENERGY_LIFT, fmts[len(queries):]):
            argv = ["energy"] + lift_args(k, p, s, ell) + ["--format", fmt]
            self.ops.append(cli_op(self.cli, argv,
                                   self._checker("energy", k, p, lift_m(k, p, s, ell), "gp", fmt)))
        fixed_order(self.ops)

    @staticmethod
    def _checker(cmd, k, p, m, variant, fmt):
        if cmd == "spectrum":
            return lambda text: C.check_spectrum_output(text, fmt, k, p, m, variant)
        if cmd == "energy":
            return lambda text: C.check_energy_output(text, fmt, k, p, m, variant)
        return lambda text: C.check_report_output(text, fmt, k, p, m)


# ---------------------------------------------------------------------------
# lift-family: deep levels of the lifted families
# ---------------------------------------------------------------------------

class LiftFamily(Workload):
    """Family probes, lift tables and the --lift route; lift, family and
    rendering do the work."""

    name = "lift-family"
    FAMILIES = [(3, 31, 0, 900), (3, 7, 1, 500), (4, 5, 0, 900), (4, 13, 0, 800)]
    LIFTS = [(3, 31, 0, 400), (4, 13, 0, 300), (3, 7, 1, 150)]
    # (k, p, s, lowest level, highest level): one level drawn per entry
    DEEP_SPECTRUM = [(3, 31, 0, 290, 310), (4, 5, 0, 480, 520), (3, 7, 1, 110, 130),
                     (4, 13, 0, 240, 260), (3, 13, 0, 95, 105)]
    DEEP_EQUI = [(3, 31, 0, 240, 260), (4, 5, 0, 380, 420), (4, 13, 0, 190, 210), (3, 7, 0, 95, 105)]
    # small levels, also compared with gp_spectrum on the direct route
    SMALL = [(3, 31, 0, 1, 3), (4, 5, 0, 1, 3), (3, 7, 1, 1, 1), (4, 13, 0, 1, 2),
             (3, 13, 0, 1, 1), (4, 17, 0, 1, 2), (3, 37, 0, 1, 1), (3, 19, 0, 1, 1)]
    #: renders an energy of about 5400 digits and hits the 4300-digit int/str limit
    #: (the csv format prints no energy and succeeds, so the format stays fixed)
    KNOWN_FAILURE = ["spectrum", "-k", "3", "-p", "31", "--lift", "900"]

    def __init__(self, gpspec_cli, seed, workdir):
        super().__init__(gpspec_cli, seed, workdir)
        import gpspec
        rng = self.rng
        golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
        tables = {str(i): (golden / f"table{i}.csv").read_text(encoding="utf-8") for i in (1, 2, 3)}
        tables["all"] = tables["1"] + tables["2"] + tables["3"]

        for k, p, s, ell_max in self.FAMILIES:
            t = C.minimal_t(p) if k == 3 else 1
            facts = {ell: C.family_level_facts(k, p, t, s, ell) for ell in range(1, ell_max + 1)}
            for fmt in FORMATS:
                argv = ["family", "-k", str(k), "-p", str(p), "-s", str(s), "--ell-max", str(ell_max),
                        "--format", fmt]
                self.ops.append(cli_op(self.cli, argv, lambda text, k=k, p=p, s=s, e=ell_max, f=fmt, fa=facts:
                                       C.check_family_output(text, f, k, p, s, e, fa)))
        for k, p, s, ell_max in self.LIFTS:
            for fmt in ("pretty", "json"):
                argv = ["lift", "-k", str(k), "-p", str(p), "-s", str(s), "--ell-max", str(ell_max),
                        "--format", fmt]
                self.ops.append(cli_op(self.cli, argv, lambda text, k=k, p=p, s=s, e=ell_max, f=fmt:
                                       C.check_lift_output(text, f, k, p, s, e)))
        # deep levels in one format each; small levels in all three, so that they are
        # most of the list and op_ms_p50 falls inside them
        picks = [(cmd, k, p, s, rng.randint(lo, hi), fmt) for cmd, pool in
                 (("spectrum", self.DEEP_SPECTRUM), ("equienergetic", self.DEEP_EQUI))
                 for (k, p, s, lo, hi), fmt in zip(pool, balanced(rng, len(pool)))]
        picks += [(cmd, k, p, s, rng.randint(lo, hi), fmt) for cmd in ("spectrum", "equienergetic")
                  for k, p, s, lo, hi in self.SMALL for fmt in FORMATS]
        for cmd, k, p, s, ell, fmt in picks:
            m = lift_m(k, p, s, ell)
            argv = [cmd] + lift_args(k, p, s, ell) + ["--format", fmt]
            if cmd == "spectrum":
                direct = None
                if m <= 12:
                    direct = dict(gpspec.gp_spectrum(gpspec.GraphSpec(k, p, m)).entries)
                check = lambda text, k=k, p=p, m=m, f=fmt, d=direct: self._lift_spectrum(text, f, k, p, m, d)
            else:
                check = lambda text, k=k, p=p, m=m, f=fmt: C.check_report_output(text, f, k, p, m)
            self.ops.append(cli_op(self.cli, argv, check))
        for which in ("all", rng.choice("123")):
            self.ops.append(cli_op(self.cli, ["tables", "--table", which], lambda text, w=which: C.expect(
                text == tables[w], f"table {w} differs from tests/golden")))
        self.ops.append(cli_op(self.cli, self.KNOWN_FAILURE,
                               lambda text: C.check_spectrum_output(text, "pretty", 3, 31, 3 * 900)))
        fixed_order(self.ops)

    @staticmethod
    def _lift_spectrum(text, fmt, k, p, m, direct):
        C.check_spectrum_output(text, fmt, k, p, m)
        if direct is not None:
            C.expect(C.parse_spectrum(text, fmt)[0] == direct,
                     "lifted spectrum differs from the direct route")


# ---------------------------------------------------------------------------
# oracle-verify: verify runs and library oracle calls, no field built yet
# ---------------------------------------------------------------------------

class OracleVerify(Workload):
    """verify commands and oracle calls from a cold field cache; ff tables and
    the oracles do the work."""

    name = "oracle-verify"
    JACOBI = [(3, 2, 6), (4, 3, 4)]                                    # q = 64, 81
    LAPACK = [(3, 7, 3), (4, 5, 4), (4, 3, 6), (3, 29, 2), (4, 31, 2), (3, 2, 10)]   # 343 .. 1024
    CHAR_ONLY = [(3, 2, 16), (3, 7, 6), (4, 3, 10)]                    # q > dense cap
    VARIANTS = [(3, 2, 8, "gpsum"), (4, 5, 4, "comp"), (3, 7, 3, "gpsum"), (4, 3, 6, "comp"),
                (3, 5, 4, "comp"), (4, 7, 2, "gpsum")]
    # library calls: many cheap ones, so that op_ms_p50 averages over the whole run, and
    # LAPACK-sized dense spectra, so that op_ms_p90 falls in a band of about 20 operations
    # rather than on the two Jacobi runs; the seed draws the sum-graph and complement variants
    CHAR_SUM = [(3, 7, 3), (4, 5, 4), (3, 2, 8), (4, 3, 4), (3, 2, 6), (3, 13, 3), (4, 3, 6), (3, 5, 4),
                (3, 2, 4), (3, 5, 2), (4, 7, 2), (3, 11, 2), (4, 11, 2), (3, 17, 2), (4, 19, 2), (3, 2, 10)]
    DENSE = [(3, 2, 4), (3, 5, 2), (3, 17, 2), (3, 2, 8), (3, 23, 2), (4, 19, 2), (3, 7, 3),
             (4, 5, 4), (3, 5, 4), (4, 23, 2), (4, 3, 6), (3, 29, 2), (4, 31, 2), (3, 2, 10),
             (3, 23, 2), (4, 19, 2), (4, 5, 4), (3, 29, 2), (4, 3, 6), (3, 17, 2)]
    WEIGHT = [(3, 2, 8), (4, 3, 6), (3, 7, 3), (4, 5, 4), (3, 2, 10), (4, 3, 4), (3, 5, 4),
              (3, 2, 6), (4, 7, 4), (3, 2, 4), (3, 5, 2), (4, 7, 2), (3, 11, 2), (4, 11, 2),
              (3, 17, 2), (4, 19, 2)]

    def __init__(self, gpspec_cli, seed, workdir):
        super().__init__(gpspec_cli, seed, workdir)
        import gpspec
        from gpspec import ff
        self.caches = [obj for mod in (ff, gpspec.oracle) for obj in vars(mod).values()
                       if callable(getattr(obj, "cache_clear", None))]
        rng = self.rng
        cli_graphs = [(g, "gp") for g in self.JACOBI + self.LAPACK + self.CHAR_ONLY] + \
                     [((k, p, m), v) for k, p, m, v in self.VARIANTS]
        for ((k, p, m), variant), fmt in zip(cli_graphs, balanced(rng, len(cli_graphs))):
            argv = ["verify"] + graph_args(k, p, m) + ["--variant", variant, "--format", fmt]
            self.ops.append(cli_op(self.cli, argv, lambda text, k=k, p=p, m=m, v=variant, f=fmt:
                                   C.check_spectrum_output(text, f, k, p, m, v, verified=True)))
        for k, p, m in self.CHAR_SUM:
            self.ops.append(lib_op(f"char_sum_spectrum{(k, p, m)}",
                                   lambda k=k, p=p, m=m: gpspec.char_sum_spectrum(gpspec.GraphSpec(k, p, m)),
                                   self._spectrum_check(k, p, m, "gp")))
        for (k, p, m), variant in zip(self.DENSE, balanced(rng, len(self.DENSE), ("gp", "gpsum", "comp"))):
            g = gpspec.GraphSpec(k, p, m, gpspec.Variant(variant))
            self.ops.append(lib_op(f"dense_spectrum{(k, p, m, variant)}",
                                   lambda g=g: gpspec.dense_spectrum(gpspec.build_graph(g)),
                                   self._spectrum_check(k, p, m, variant)))
        for k, p, m in self.WEIGHT:
            self.ops.append(lib_op(f"weight_eigenvalue_check{(k, p, m)}",
                                   lambda k=k, p=p, m=m: gpspec.weight_eigenvalue_check(k, p, m),
                                   lambda ok: C.expect(ok is True, "weight/eigenvalue correspondence fails")))
        fixed_order(self.ops)

    @staticmethod
    def _spectrum_check(k, p, m, variant):
        ref = C.variant_ref(k, p, m, variant)

        def check(s):
            C.check_oracle_spectrum(s.entries, s.principal, ref)
            C.expect(s.loops == ref.loops, "oracle loop count differs")
        return check

    def before_op(self):
        # every operation starts like a fresh gpspec process: no field built yet
        for cache in self.caches:
            cache.cache_clear()
        return None


# ---------------------------------------------------------------------------
# cli-cache: a scripted session with --cache over a pre-built cache file
# ---------------------------------------------------------------------------

class CliCache(Workload):
    """Cache hits interleaved with misses that append; the cache's linear
    scan does the work."""

    name = "cli-cache"
    START_ENTRIES = 800
    HITS, MISSES = 60, 40
    K3 = (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103)
    K4 = (5, 13, 17, 29, 37, 41, 53, 61)

    def __init__(self, gpspec_cli, seed, workdir):
        super().__init__(gpspec_cli, seed, workdir)
        rng = self.rng
        pool = self._pool()
        start, fresh = pool[:self.START_ENTRIES], pool[self.START_ENTRIES:]
        self.start_file = workdir / "cache-start.jsonl"
        self.cache = workdir / "cache.jsonl"
        self._build_start(start)
        # one hit per stratum of the file, so every seed hits the same depths on average
        stride = self.START_ENTRIES // self.HITS
        hits = [start[i * stride + rng.randrange(stride)] for i in range(self.HITS)]
        misses = rng.sample(fresh, self.MISSES)
        self.expected_growth = {}
        for argv, growth in [(a, 0) for a in hits] + [(a, 1) for a in misses]:
            full = argv + ["--cache", str(self.cache)]
            expected = run_cli(self.cli, argv)[:2]      # the same command without a cache
            op = Op(" ".join(full), lambda a=full: run_cli(self.cli, a),
                    lambda o, e=expected: C.expect(o[:2] == e, "cached run differs from an uncached run"))
            self.expected_growth[id(op)] = growth
            self.ops.append(op)
        fixed_order(self.ops)

    def _pool(self) -> list[list[str]]:
        """Cheap lift-route queries in all formats, in a fixed order."""
        out = []
        for ell in range(1, 29):
            for k, primes in ((3, self.K3), (4, self.K4)):
                for p in primes:
                    for cmd, fmt in (("spectrum", "pretty"), ("equienergetic", "json"),
                                     ("spectrum", "csv"), ("lift", "json"), ("equienergetic", "pretty"),
                                     ("spectrum", "json")):
                        out.append([cmd, "-k", str(k), "-p", str(p), "--lift", str(ell), "--format", fmt])
        random.Random(0).shuffle(out)
        return out

    def _build_start(self, start) -> None:
        """The starting file, written by the program itself one entry at a time."""
        one = self.workdir / "cache-one.jsonl"
        with open(self.start_file, "w", encoding="utf-8") as fh:
            for argv in start:
                one.unlink(missing_ok=True)
                code, _out, err = run_cli(self.cli, argv + ["--cache", str(one)])
                C.expect(code == 0, f"building the starting cache failed: {err.strip()}")
                fh.write(one.read_text(encoding="utf-8"))
        one.unlink(missing_ok=True)

    def reset(self) -> None:
        shutil.copyfile(self.start_file, self.cache)

    def before_op(self):
        return os.path.getsize(self.cache)

    def check_pass(self, records) -> None:
        data = self.cache.read_bytes()
        ends = [note for _op, _code, note in records[1:]] + [len(data)]
        for (op, code, start), end in zip(records, ends):
            if code != 0:
                continue
            grown = data[start:end]
            lines = grown.count(b"\n")
            C.expect(lines == self.expected_growth[id(op)] and grown.endswith(b"\n") == bool(lines),
                     f"cache file grew by {lines} lines on: {op.label}")


WORKLOADS = {w.name: w for w in (ClosedForm, LiftFamily, OracleVerify, CliCache)}
