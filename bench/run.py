"""gpspec benchmark: four closed-loop workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics (setup_s, pass_s, op_ms_p50,
op_ms_p90, peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Every process started here runs the checkout's ``src`` with one
BLAS thread and the interpreter's default int/str digit limit.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed-form", "lift-family", "oracle-verify", "cli-cache")
SETUP_SAMPLES = 9
SETUP_TIMEOUT = 30
RUN_SLACK = 100           # seconds a run may take beyond --seconds: inputs, last pass, checks

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}
#: per-layer metric -> (span name, field of the traced run's layer record)
PER_LAYER = {
    "ff.make_field_ms": ("ff.make_field", "ms"), "ff.exp_table_ms": ("ff.exp_table", "ms"),
    "ff.trace_table_ms": ("ff.trace_table", "ms"), "dioph.solve_ms": ("dioph.solve", "ms"),
    "dioph.solves": ("dioph.solve", "calls"), "spectra.spectrum_ms": ("spectra.spectrum", "ms"),
    "energy.bounds_ms": ("energy.bounds", "ms"), "energy.report_ms": ("energy.report", "ms"),
    "lift.derive_ms": ("lift.derive", "ms"), "lift.levels": ("lift.derive", "count"),
    "family.probe_ms": ("family.probe", "ms"), "family.levels": ("family.probe", "count"),
    "oracle.char_sum_ms": ("oracle.char_sum", "ms"), "oracle.build_graph_ms": ("oracle.build_graph", "ms"),
    "oracle.jacobi_ms": ("oracle.jacobi", "ms"), "oracle.lapack_ms": ("oracle.lapack", "ms"),
    "oracle.code_weight_ms": ("oracle.code_weight", "ms"),
    "oracle.blas_warmup_ms": ("oracle.blas_warmup", "ms"), "cli.import_ms": ("cli.import", "ms"),
    "cli.render_ms": ("cli.render", "ms"), "cli.cache_lookup_ms": ("cli.cache_lookup", "ms"),
    "cli.cache_append_ms": ("cli.cache_append", "ms"), "cli.cache_hits": ("cli.cache_lookup", "count"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)       # keep the default 4300-digit limit
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def measure_setup(workload: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen(worker("setup", "--workload", workload), stdout=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"set-up of {workload} failed (exit {proc.returncode})")
    return ready


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gpspec" / "cli.py").is_file():
        print(f"error: no gpspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    setups = [] if args.trace else [measure_setup(args.workload, env) for _ in range(SETUP_SAMPLES)]
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    cmd = worker("run", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=args.seconds + RUN_SLACK)
    except subprocess.TimeoutExpired:
        print(f"error: the {args.workload} run did not finish in time", file=sys.stderr)
        return 2
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: the {args.workload} run failed (exit {done.returncode})", file=sys.stderr)
        return 2
    run = json.loads(lines[-1])

    if args.trace:
        layers = run["layers"]
        metrics = {name: {"value": layers[span][field], "unit": "ms" if field == "ms" else "count"}
                   for name, (span, field) in PER_LAYER.items()}
        hits = layers["cli.cache_lookup"]
        metrics["cli.cache_misses"] = {"value": hits["calls"] - hits["count"], "unit": "count"}
        metrics["trace.overhead_ms"] = {"value": run["pass_ms_traced"] - run["pass_ms_plain"], "unit": "ms"}
        detail = {"shares": run["shares"], "untraced": run["untraced"],
                  "pass_ms_traced": run["pass_ms_traced"],
                  "pass_ms_plain": run["pass_ms_plain"], "pass_times": run["pass_times"],
                  "plain_pass_times": run["plain_pass_times"]}
    else:
        run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END.items()}
        detail = {"pass_times": run["pass_times"], "ops": run["ops"], "setup_samples": setups}
    result = {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
