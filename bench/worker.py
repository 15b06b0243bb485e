"""One benchmark process: set up like a user's session, then run passes.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``setup`` imports ``gpspec.cli`` and makes the workload's one-time warm-ups,
prints ``ready`` and exits; ``bench/run.py`` times it from process start.
``run`` does the same, builds the workload's inputs from the seed, runs whole
passes over its operations until the time is up, checks every output and
prints one JSON line.  ``bench/run.py`` starts both with PYTHONPATH set to the
checkout's ``src``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
MIN_OPS = 100
INT_STR_DIGITS = 4300          # the interpreter's default limit, kept so that its faults show


def blas_warmup() -> None:
    """The first LAPACK call of a process (a 256-cycle's eigenvalues)."""
    import numpy as np
    a = np.zeros((256, 256))
    idx = np.arange(256)
    a[idx, (idx + 1) % 256] = a[(idx + 1) % 256, idx] = 1.0
    np.linalg.eigvalsh(a)


WARMUPS = {"oracle-verify": blas_warmup}


def set_up(workload: str, tracer=None):
    """Import the CLI and make the warm-ups a session pays once."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("cli.import"):
        import gpspec.cli
    if Path(gpspec.cli.__file__).resolve().parent != ROOT / "src" / "gpspec":
        raise SystemExit(f"gpspec was imported from {gpspec.cli.__file__}, not from this checkout")
    if sys.get_int_max_str_digits() != INT_STR_DIGITS:
        raise SystemExit(f"int/str digit limit is {sys.get_int_max_str_digits()}, not {INT_STR_DIGITS}")
    if workload in WARMUPS:
        with span("oracle.blas_warmup"):
            WARMUPS[workload]()
    return gpspec.cli


class Tally:
    """Passes, latencies, failures and check errors of one run."""

    def __init__(self):
        self.pass_times: list[float] = []
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.roots: set[int] = set()        # the traced operations' span ids


def run_pass(workload, tally: Tally, tracer=None) -> None:
    """One pass.  Each output is checked, and dropped, right after its
    operation; the pass's time is the sum of its operations' latencies, so
    the checks are not timed."""
    from workloads import failed
    workload.reset()
    records, pass_time = [], 0.0
    for op in workload.ops:
        note = workload.before_op()
        span = tracer.open("op") if tracer else None
        t0 = time.perf_counter()
        outcome = op.call()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
            tally.roots.add(span)
        pass_time += dt
        tally.latencies.append(dt)
        tally.attempted += 1
        records.append((op, outcome[0], note))
        if failed(outcome):
            tally.failed += 1
            continue
        try:
            op.check(outcome)
        except Exception as exc:            # a malformed output: recorded, the run goes on
            tally.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    tally.pass_times.append(pass_time)
    try:
        workload.check_pass(records)
    except Exception as exc:
        tally.errors.append(f"pass: {type(exc).__name__}: {exc}")


def enough(tally: Tally, start: float, seconds: float, min_passes: int) -> bool:
    return (time.perf_counter() - start >= seconds and len(tally.pass_times) >= min_passes
            and len(tally.latencies) >= MIN_OPS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=str(BENCH / "out" / "work"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH))

    tracer = None
    if args.mode == "run" and args.trace:
        from tracing import Tracer
        tracer = Tracer()
    cli = set_up(args.workload, tracer)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    from workloads import WORKLOADS
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](cli, args.seed, workdir)
        if tracer:
            result = traced_run(workload, args.seconds, tracer)
        else:
            tally, start = Tally(), time.perf_counter()
            while not enough(tally, start, args.seconds, MIN_PASSES):
                run_pass(workload, tally)
            result = summary(tally)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.pop("errors"):
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def summary(tally: Tally) -> dict:
    lat_ms = [1000 * x for x in tally.latencies]
    return {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors, "pass_times": tally.pass_times, "ops": len(lat_ms),
            "pass_s": statistics.median(tally.pass_times), "op_ms_p50": statistics.median(lat_ms),
            "op_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8]}


def traced_run(workload, seconds: float, tracer) -> dict:
    """Untraced and traced passes in turn: the per-layer self times per
    traced pass, and the tracing overhead from the two kinds of pass."""
    import tracing
    spans = tracing.Instrumentation(tracer)
    with spans, tracer.span("floor") as floor_root:
        layer_floor(workload, tracer)
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    while not (enough(plain, start, seconds, 2) and enough(traced, start, seconds, 2)):
        run_pass(workload, plain)
        with spans:
            run_pass(workload, traced, tracer)
    result = summary(traced)
    result["errors"] = plain.errors + traced.errors
    result["correct"] = not result["errors"]
    result["attempted"] += plain.attempted
    result["failed"] += plain.failed
    passes = len(traced.pass_times)
    per_pass = tracer.self_times(traced.roots)
    floor = tracer.self_times({floor_root})
    setup = tracer.self_times({i for i, s in enumerate(tracer.spans)
                               if s[0] in ("cli.import", "oracle.blas_warmup") and s[3] == -1})
    layers = {}
    for name in tracing.TARGETS:
        self_s, calls, count = per_pass.get(name, (0.0, 0, 0))
        layers[name] = {"ms": 1000 * (self_s / passes + floor.get(name, (0.0,))[0]),
                        "calls": calls / passes, "count": count / passes}
    for name in ("cli.import", "oracle.blas_warmup"):
        layers[name] = {"ms": 1000 * (setup.get(name) or floor[name])[0]}
    pass_ms = 1000 * statistics.median(traced.pass_times)
    result.update({
        "layers": layers,
        "pass_ms_traced": pass_ms,
        "pass_ms_plain": 1000 * statistics.median(plain.pass_times),
        "plain_pass_times": plain.pass_times,
        "shares": {name: v[0] / sum(traced.pass_times) for name, v in per_pass.items()},
        "untraced": spans.missing,
    })
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}.jsonl")
    return result


def layer_floor(workload, tracer) -> None:
    """One smallest call into every layer, so that each layer's figure has a
    floor measured on every workload, also where the passes never call it."""
    if workload.name not in WARMUPS:
        with tracer.span("oracle.blas_warmup"):
            blas_warmup()
    import importlib
    import tempfile
    # importlib: the package re-exports a function named energy over its module
    cli, dioph, energy, family, ff, lift, oracle, spectra = (
        importlib.import_module(f"gpspec.{m}")
        for m in ("cli", "dioph", "energy", "family", "ff", "lift", "oracle", "spectra"))
    from workloads import run_cli
    for obj in vars(ff).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    g = spectra.GraphSpec(3, 2, 4)               # q = 16
    fld = ff.make_field(g.p, g.m)
    fld.exp_table, fld.trace_table
    dioph.solve_ab(7, 1)
    s = spectra.gp_spectrum(spectra.GraphSpec(3, 7, 3))
    energy.energy_bounds(3, 7, 3)
    energy.is_complementary_equienergetic(s)
    energy.semiprimitive_energy(g.k, g.p, g.m)
    lift.derived_ab(31, 1, 0, 1)
    family.find_equienergetic_family(5, 4, ell_max=1)
    oracle.char_sum_spectrum(g)
    d = oracle.build_graph(g)
    oracle.dense_spectrum(d)
    oracle.dense_eigenvalues(d, engine="lapack")
    oracle.weight_eigenvalue_check(g.k, g.p, g.m)
    with tempfile.TemporaryDirectory(dir=workload.workdir) as tmp:
        for _ in range(2):                      # a miss that appends, then a hit
            run_cli(cli, ["tables", "--table", "3", "--cache", f"{tmp}/cache.jsonl"])


if __name__ == "__main__":
    sys.exit(main())
