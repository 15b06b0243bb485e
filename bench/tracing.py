"""Spans around the calls into each gpspec module, recorded from outside.

``instrument`` replaces chosen functions of the package with wrappers that
open a span on entry and close it on return, wherever a module holds a
reference to them (``from .x import f`` included), and wraps the two lazy
table properties of ``ff.FieldSpec``.  Spans are kept in memory: each holds a
name, a start, an end and the index of its parent.  A layer's self time is the
duration of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time

#: span name -> functions, as "module:attribute" (ff.FieldSpec properties as "ff:FieldSpec.name")
TARGETS = {
    "ff.make_field": ["ff:make_field"],
    "ff.exp_table": ["ff:FieldSpec.exp_table"],
    "ff.trace_table": ["ff:FieldSpec.trace_table"],
    "ff.residues": ["ff:kth_power_residues"],
    "dioph.solve": ["dioph:solve_ab", "dioph:solve_cd", "dioph:minimal_t"],
    "spectra.spectrum": ["spectra:spectrum_of", "spectra:gp_spectrum", "spectra:gpsum_spectrum",
                         "spectra:complement_spectrum", "spectra:k3_case_a_spectrum",
                         "spectra:k4_case_a_spectrum", "spectra:k3_case_a_eigenvalues",
                         "spectra:k4_case_a_eigenvalues"],
    "energy.bounds": ["energy:energy_bounds"],
    "energy.report": ["energy:is_complementary_equienergetic"],
    "energy.exact": ["energy:semiprimitive_energy"],
    "lift.derive": ["lift:derived_ab", "lift:derived_cd", "lift:derived_spectrum_k3",
                    "lift:derived_spectrum_k4", "lift:k3_base_pairs", "lift:step_xy"],
    "family.probe": ["family:find_equienergetic_family"],
    "oracle.char_sum": ["oracle:char_sum_spectrum"],
    "oracle.build_graph": ["oracle:build_graph"],
    "oracle.jacobi": ["oracle:_jacobi_eigenvalues"],
    # self time of dense_eigenvalues is the LAPACK call: the Jacobi route is its child span
    "oracle.lapack": ["oracle:dense_eigenvalues"],
    "oracle.dense": ["oracle:dense_spectrum"],
    "oracle.code_weight": ["oracle:code_weight_distribution"],
    "oracle.weight_check": ["oracle:weight_eigenvalue_check"],
    "cli.main": ["cli:main", "cli:build_parser"],
    # the command bodies format their own output around the calls into other layers
    "cli.render": ["cli:render_spectrum", "cli:render_report", "cli:render_witnesses",
                   "cli:table_csv", "cli:_json_line", "cli:_frac_str", "cli:cmd_spectrum",
                   "cli:cmd_verify", "cli:cmd_energy", "cli:cmd_equienergetic", "cli:cmd_lift",
                   "cli:cmd_family", "cli:cmd_tables"],
    "cli.cache_lookup": ["cli:_cache_lookup"],
    "cli.cache_append": ["cli:_cache_append"],
}

MODULES = ("ff", "dioph", "spectra", "energy", "lift", "family", "oracle", "cli")


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, count]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def self_times(self, roots: set[int]) -> dict[str, tuple[float, int, int]]:
        """name -> (self seconds, calls, summed counts), over the given root
        spans and the spans below them."""
        inside = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for i, (_name, start, end, parent, _count) in enumerate(self.spans):
            inside[i] = i in roots or (parent >= 0 and inside[parent])
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _parent, count) in enumerate(self.spans):
            if inside[i]:
                acc = out.setdefault(name, [0.0, 0, 0])
                acc[0] += end - start - child_time[i]
                acc[1] += 1
                acc[2] += count
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def _counter(name: str):
    """How much work one call did, for the span's count field."""
    if name == "lift.derive":
        def levels(fn, args, result):
            ell = {"derived_ab": 3, "derived_cd": 1}.get(fn.__name__)
            return args[ell] if ell is not None and len(args) > ell else 0
        return levels
    if name == "family.probe":
        return lambda fn, args, result: len(result)
    if name == "cli.cache_lookup":
        return lambda fn, args, result: int(result is not None)
    return None


def _wrap(tracer: Tracer, name: str, fn):
    count = _counter(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(idx, count(fn, args, result) if count and result is not None else 0)

    return traced


class Instrumentation:
    """Swaps every target function, wherever a gpspec module refers to it, for
    its traced wrapper on entering a ``with`` block, and back on leaving it.
    Targets the package no longer has are listed in ``missing``."""

    def __init__(self, tracer: Tracer):
        import importlib
        modules = [importlib.import_module("gpspec")] + [importlib.import_module(f"gpspec.{m}")
                                                         for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.swaps = []                   # (holder, attribute, original, traced)
        self.missing = []
        for name, targets in TARGETS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                owner, _, prop = attr.rpartition(".")
                holder = getattr(by_name[mod_name], owner) if owner else by_name[mod_name]
                original = vars(holder).get(prop)
                if original is None:
                    self.missing.append(target)
                elif owner:               # a lazy table property of FieldSpec
                    self.swaps.append((holder, prop, original, property(_wrap(tracer, name, original.fget))))
                else:
                    traced = _wrap(tracer, name, original)
                    self.swaps += [(mod, key, original, traced) for mod in modules
                                   for key, value in vars(mod).items() if value is original]

    def __enter__(self):
        for holder, key, _original, traced in self.swaps:
            setattr(holder, key, traced)
        return self

    def __exit__(self, *exc):
        for holder, key, original, _traced in self.swaps:
            setattr(holder, key, original)
        return False
