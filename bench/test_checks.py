"""Each checker accepts the program's real output and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C                                   # noqa: E402
import gpspec                                        # noqa: E402
from gpspec import cli                               # noqa: E402
from workloads import CliCache, run_cli              # noqa: E402


def output(*argv: str) -> str:
    code, out, err = run_cli(cli, list(argv))
    assert code == 0, err
    return out


def bump_first_value(text: str, fmt: str) -> str:
    """One eigenvalue off by one."""
    if fmt == "json":
        d = json.loads(text.splitlines()[0])
        d["spectrum"][1]["value"] = str(int(d["spectrum"][1]["value"]) + 1)
        return json.dumps(d) + "\n"
    if fmt == "csv":
        lines = text.splitlines()
        v, e = lines[2].split(",")
        lines[2] = f"{int(v) + 1},{e}"
        return "\n".join(lines) + "\n"
    v = text.split("[")[2].split("]")[0]
    return text.replace(f"[{v}]", f"[{int(v) + 1}]", 1)


@pytest.mark.parametrize("fmt", ("pretty", "json", "csv"))
@pytest.mark.parametrize("k, p, m, variant", [(3, 7, 6, "gp"), (4, 5, 8, "comp"), (3, 7, 3, "gpsum"),
                                             (4, 3, 6, "gp"), (3, 2, 8, "comp")])
def test_spectrum_off_by_one(fmt, k, p, m, variant):
    text = output("spectrum", "-k", str(k), "-p", str(p), "-m", str(m), "--variant", variant, "--format", fmt)
    C.check_spectrum_output(text, fmt, k, p, m, variant)
    with pytest.raises(C.CheckError):
        C.check_spectrum_output(bump_first_value(text, fmt), fmt, k, p, m, variant)


def test_spectrum_of_another_graph_rejected():
    text = output("spectrum", "-k", "3", "-p", "13", "-m", "6")
    with pytest.raises(C.CheckError):
        C.check_spectrum_output(text, "pretty", 3, 7, 6)


def test_failed_oracle_line_rejected():
    text = output("verify", "-k", "3", "-p", "7", "-m", "3")
    C.check_spectrum_output(text, "pretty", 3, 7, 3, verified=True)
    with pytest.raises(C.CheckError):
        C.check_spectrum_output(text.replace(": ok", ": MISMATCH", 1), "pretty", 3, 7, 3, verified=True)


@pytest.mark.parametrize("fmt", ("pretty", "json", "csv"))
def test_flipped_verdict_rejected(fmt):
    text = output("equienergetic", "-k", "3", "-p", "7", "-m", "6", "--format", fmt)
    C.check_report_output(text, fmt, 3, 7, 6)
    flipped = text.replace("True", "False", 1) if fmt != "json" else text.replace("true", "false", 1)
    with pytest.raises(C.CheckError):
        C.check_report_output(flipped, fmt, 3, 7, 6)


@pytest.mark.parametrize("fmt", ("pretty", "json"))
@pytest.mark.parametrize("k, p, m", [(3, 7, 6), (4, 3, 6)])
def test_energy_corruptions_rejected(fmt, k, p, m):
    text = output("energy", "-k", str(k), "-p", str(p), "-m", str(m), "--format", fmt)
    C.check_energy_output(text, fmt, k, p, m, "gp")
    e = C.parse_energy(text, fmt)["energy"]
    with pytest.raises(C.CheckError):
        C.check_energy_output(text.replace(str(e), str(e + 1), 1), fmt, k, p, m, "gp")
    if p % k != 1:           # the semiprimitive exact value against the paper's formula
        x = C.parse_energy(text, fmt)["exact"]
        tail = text.rsplit(str(x), 1)
        with pytest.raises(C.CheckError):
            C.check_energy_output(str(x + 3).join(tail), fmt, k, p, m, "gp")


def test_energy_outside_bounds_rejected():
    text = output("energy", "-k", "3", "-p", "7", "-m", "6")
    low = C.parse_energy(text, "pretty")["lower"]
    e = C.parse_energy(text, "pretty")["energy"]
    with pytest.raises(C.CheckError):
        C.check_energy_output(text.replace(f"bounds: {low}", f"bounds: {e + 1}"), "pretty", 3, 7, 6, "gp")


@pytest.mark.parametrize("fmt", ("pretty", "json", "csv"))
@pytest.mark.parametrize("k, p, s", [(3, 31, 0), (3, 7, 1), (4, 5, 0)])
def test_family_corruptions_rejected(fmt, k, p, s):
    text = output("family", "-k", str(k), "-p", str(p), "-s", str(s), "--ell-max", "6", "--format", fmt)
    C.check_family_output(text, fmt, k, p, s, 6)
    rows = C.parse_witnesses(text, fmt)
    w = rows[3]
    if fmt == "json":
        d = json.loads(text)
        d["witnesses"][3]["q_digits"] += 1
        wrong_digits = json.dumps(d)
        d["witnesses"][3]["q_digits"] -= 1
        d["witnesses"][3]["equienergetic"] = not d["witnesses"][3]["equienergetic"]
        flipped = json.dumps(d)
    else:
        lines = text.splitlines()
        row = 4 + (1 if fmt == "pretty" else 0)
        sep = "," if fmt == "csv" else "|"
        cells = lines[row].split(sep)
        digits_cell, verdict_cell = (3, 4) if fmt == "csv" else (3, 1)
        cells[digits_cell] = cells[digits_cell].replace(str(w["q_digits"]), str(w["q_digits"] + 1))
        wrong_digits = "\n".join(lines[:row] + [sep.join(cells)] + lines[row + 1:])
        cells = lines[row].split(sep)
        old = str(w["equienergetic"])
        cells[verdict_cell] = cells[verdict_cell].replace(old, str(not w["equienergetic"]).ljust(len(old)))
        flipped = "\n".join(lines[:row] + [sep.join(cells)] + lines[row + 1:])
    for bad in (wrong_digits, flipped):
        with pytest.raises(C.CheckError):
            C.check_family_output(bad, fmt, k, p, s, 6)


@pytest.mark.parametrize("fmt", ("pretty", "json"))
def test_lift_pair_corruption_rejected(fmt):
    text = output("lift", "-k", "4", "-p", "13", "--ell-max", "5", "--format", fmt)
    C.check_lift_output(text, fmt, 4, 13, 0, 5)
    x = C.parse_levels(text, fmt)[2][1]
    with pytest.raises(C.CheckError):
        C.check_lift_output(text.replace(str(x), str(x + 2), 1), fmt, 4, 13, 0, 5)


def test_oracle_spectrum_corruption_rejected():
    s = gpspec.char_sum_spectrum(gpspec.GraphSpec(3, 7, 3))
    ref = C.gp_ref(3, 7, 3)
    C.check_oracle_spectrum(s.entries, s.principal, ref)
    entries = list(s.entries)
    entries[1] = (entries[1][0] + 1, entries[1][1])
    with pytest.raises(C.CheckError):
        C.check_oracle_spectrum(entries, s.principal, ref)


class SmallCache(CliCache):
    START_ENTRIES, HITS, MISSES = 24, 6, 4


@pytest.fixture(scope="module")
def cache_workload(tmp_path_factory):
    return SmallCache(cli, 3, tmp_path_factory.mktemp("cache"))


def test_cache_hit_with_other_bytes_rejected(cache_workload):
    op = cache_workload.ops[0]
    outcome = op.call()
    op.check(outcome)
    with pytest.raises(C.CheckError):
        op.check((outcome[0], outcome[1] + " ", outcome[2]))


def test_cache_growth_checked(cache_workload):
    w = cache_workload
    w.reset()
    records = []
    for op in w.ops:
        note = w.before_op()
        records.append((op, op.call()[0], note))
    w.check_pass(records)
    with open(w.cache, "a", encoding="utf-8") as fh:
        fh.write("{}\n")                       # one line more than the misses appended
    with pytest.raises(C.CheckError):
        w.check_pass(records)


def test_digit_count_and_long_decimals():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(10 ** rng.randrange(1, 4000))
        assert C.digit_count(n) == len(str(n))
    for d in (9, 10, 99, 100, 10 ** 40 - 1, 10 ** 40):
        assert C.digit_count(d) == len(str(d))
    big = 7 ** 6000                              # 5071 digits, beyond the int/str limit
    assert C.digit_count(big) == 5071
    text = "".join(str(big // 10 ** (1000 * i) % 10 ** 1000).zfill(1000) for i in range(5, -1, -1))
    assert C.decimal(text.lstrip("0")) == big


def test_self_time_excludes_child_spans():
    from tracing import Tracer
    t = Tracer()
    root = t.open("op")
    child = t.open("dioph.solve")
    t.close(child)
    t.close(root)
    t.spans[root][1:3] = [0.0, 1.0]             # op: 1 s, of which its child covers 0.25 s
    t.spans[child][1:3] = [0.5, 0.75]
    times = t.self_times({root})
    assert times["op"][0] == pytest.approx(0.75)
    assert times["dioph.solve"][0] == pytest.approx(0.25)


def test_instrumentation_swaps_and_restores():
    from tracing import Instrumentation, Tracer
    from gpspec import dioph, spectra
    original = dioph.solve_ab
    tracer = Tracer()
    with Instrumentation(tracer) as spans:
        assert not spans.missing
        spectra.gp_spectrum(gpspec.GraphSpec(3, 7, 3))
        assert dioph.solve_ab is not original
    assert dioph.solve_ab is original
    names = [s[0] for s in tracer.spans]
    assert names.count("dioph.solve") == 1 and "spectra.spectrum" in names
