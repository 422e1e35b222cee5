"""Spans around the public widewalk calls, recorded from outside the package.

A Tracer rebinds public names of the package modules to wrappers that
record one span per call: name, start, end, parent span and a few sizes
taken from the arguments.  Spans stay in memory and are written as JSON
lines when the process ends.  Nothing under src/ is changed: the wrappers
replace module attributes in this process only.

Self time of a span is its duration minus the part of it that its child
spans cover.  A span opened in a pool thread whose own stack is empty gets
the innermost open span of the main thread as its parent, which is the
call that started the pool (the benchmark runs one call at a time).
"""
from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
import weakref

LAYERS = ("cli", "graphs", "gf2core", "walks", "amplify", "code", "hitting")

# public functions that get a span, by defining module
WRAPPED = {
    "widewalk.gf2core": ("field_mul",),
    "widewalk.graphs": ("build_aghp", "build_complete_selfloop", "spectrum"),
    "widewalk.walks": (
        "check_pseudorandomness",
        "check_first_coord_uniform",
        "check_local_invertibility",
        "middle_start_distribution_equal",
    ),
    "widewalk.amplify": (
        "dp_gk",
        "dp_backwards",
        "check_base_case",
        "check_induction_step",
        "check_bias_reduction_lemma",
        "check_middle_start_identity",
        "verify_induction_arithmetic",
    ),
    "widewalk.code": ("code_report", "code_bias", "encode"),
    "widewalk.hitting": ("check_hitting", "hitting_prob_exact"),
}


def _dp_sizes(sys_, levels: int) -> dict:
    n_a, n_b, d_b = sys_.num_outer, sys_.num_inner, sys_.params.d_inner
    return {"levels": levels, "cells": n_a * n_b * d_b * levels}


# sizes recorded on a span, computed from the call's arguments
SIZES = {
    "amplify.dp_gk": lambda a, kw: _dp_sizes(a[0], a[2] if len(a) > 2 else kw["kmax"]),
    "amplify.dp_backwards": lambda a, kw: _dp_sizes(a[0], a[2] if len(a) > 2 else kw["length"]),
    "graphs.build_aghp": lambda a, kw: {"generators": 1 << (2 * (a[1] if len(a) > 1 else kw["ell"]))},
    "code.encode": lambda a, kw: {"bits": a[0].block_length},
    "hitting.hitting_prob_exact": lambda a, kw: {
        "ops": len(a[0].subset) * a[0].graph.degree * (a[0].t - 1)
    },
}

# what each per-layer metric of the traced run should move: the end-to-end
# metric and the workload.  BENCHMARK.json names each metric with its unit
# and direction; layer_metrics() computes each one.  Every value is for one
# round of the workload being run, and 0 on a workload that does not reach
# the layer, where it should move nothing.
_FC = "flagship-cli"
_WD, _EE, _SH = (f"inprocess-exact ({part} part)"
                 for part in ("witness-dp", "enumerate-exact", "spectra-hitting"))
SHOULD_MOVE = {
    "cli.import_s": f"setup_s, wall_s on {_FC} (paid by every process)",
    "cli.overhead_s": f"wall_s on {_FC}: CLI process wall time minus its public library calls",
    "cli.stdout_bytes": "none: an exact guard on output size",
    "gf2core.field_mul_calls": f"setup_s on {_SH}",
    "graphs.build_aghp_s": f"setup_s on {_SH}, a little on {_FC}",
    "graphs.generators_per_s": f"setup_s on {_SH}, a little on {_FC}",
    "graphs.spectrum_s": f"wall_s on {_SH}, and {_WD} through measured_lambdas",
    "amplify.dp_gk_s": f"wall_s on {_WD} (memory-bound) and {_FC} (cache-resident)",
    "amplify.dp_level_s": f"wall_s on {_WD} and {_FC}",
    "amplify.dp_gather_cells": f"wall_s on {_WD} and {_FC}; n_A*n_B*d_B*levels",
    "amplify.dp_cells_per_s": f"wall_s on {_WD} and {_FC}",
    "amplify.dp_bytes_computed":
        f"wall_s on {_WD} and {_FC}; 16 B per gathered cell, computed from array sizes",
    "amplify.dp_calls": f"wall_s on {_FC}: DP reruns per round",
    "amplify.dp_first_call_extra_s": f"wall_s, peak_rss_mb on {_WD}: the lazy operator-table build",
    "amplify.dp_backwards_s": f"wall_s on {_WD}",
    "amplify.checks_self_s": f"wall_s on {_FC}: check_* self time without DP and spectrum children",
    "code.code_bias_s": f"wall_s, cpu_s on {_FC}",
    "code.messages_scanned": f"wall_s, cpu_s on {_FC}",
    "code.encode_s": f"wall_s on {_EE}",
    "code.encode_bits_per_s": f"wall_s on {_EE}",
    "walks.walk_from_seed_calls": f"wall_s on {_EE}",
    "walks.middle_start_equal_s": f"wall_s on {_EE}",
    "walks.pseudorandomness_s": f"wall_s on {_EE}",
    "walks.uniformity_s": f"wall_s on {_EE}",
    "hitting.check_hitting_s": f"wall_s on {_SH}",
    "hitting.path_count_ops": f"wall_s on {_SH}; sum over t of |S|*d*(t-1), computed",
    **{f"{layer}.self_s": f"self time of the {layer} layer's spans" for layer in LAYERS},
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.walk_from_seed_calls = [0]
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._probed: weakref.WeakSet = weakref.WeakSet()
        self._dp_gk = None

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block the benchmark runs itself."""
        sid, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, stack, name, start, {})

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, name, start, attrs) -> None:
        end = time.perf_counter()
        stack.pop()
        rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
        rec.update(attrs)
        with self._lock:
            self.spans.append(rec)

    def _wrapper(self, fn, name: str, site: str):
        sizes = SIZES.get(name)
        probe = name in ("amplify.dp_gk", "amplify.dp_backwards")
        tracer = self

        def traced(*args, **kwargs):
            attrs = {"site": site}
            if sizes is not None:
                attrs.update(sizes(args, kwargs))
            sid, parent, stack = tracer._open()
            start = time.perf_counter()
            try:
                if probe:
                    tracer._probe_operators(args[0], args[1], attrs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, stack, name, start, attrs)

        traced.__wrapped__ = fn
        return traced

    def _probe_operators(self, sys_, f, attrs: dict) -> None:
        """On the first DP call for a system, time dp_gk(kmax=0) twice: the
        first call builds the lazy operator tables, the warm repeat does
        not, so their difference is the table build."""
        with self._lock:
            if sys_ in self._probed:
                return
            self._probed.add(sys_)
            t0 = time.perf_counter()
            self._dp_gk(sys_, f, 0)
            t1 = time.perf_counter()
            self._dp_gk(sys_, f, 0)
            t2 = time.perf_counter()
        attrs["first_call_extra_s"] = (t1 - t0) - (t2 - t1)

    def install(self) -> None:
        """Rebind every public name in WRAPPED, wherever a loaded widewalk
        module holds it, and count ReplacementSystem.walk_from_seed calls."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "widewalk" or n.startswith("widewalk.")]
        self._dp_gk = sys.modules["widewalk.amplify"].dp_gk
        for origin, names in WRAPPED.items():
            layer = origin.split(".")[1]
            for fname in names:
                fn = getattr(sys.modules[origin], fname)
                for mod in mods:
                    site = mod.__name__.split(".")[-1]
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, self._wrapper(fn, f"{layer}.{fname}", site))
        rs = sys.modules["widewalk.walks"].ReplacementSystem
        walk = rs.walk_from_seed
        cell = self.walk_from_seed_calls

        def counted(self_, *args):
            cell[0] += 1
            return walk(self_, *args)

        rs.walk_from_seed = counted

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"count": "walks.walk_from_seed_calls",
                                 "value": self.walk_from_seed_calls[0]}) + "\n")


def read_trace(path) -> tuple[list[dict], dict]:
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "count" in rec:
                counts[rec["count"]] = rec["value"]
            else:
                spans.append(rec)
    return spans, counts


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals;
    spans of one process, whose ids are unique only within it."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    processes: one dict per process of the round, with "spans", "counts",
    "wall_s" (spawn to exit, measured by the parent) and, for CLI
    processes, "stdout_bytes".  trace.overhead_s is filled in by the caller.
    """
    spans, selfs = [], []
    for p in processes:
        spans += p["spans"]
        selfs += self_times(p["spans"])

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def attr_sum(names, key):
        return sum(s.get(key, 0) for s in spans if s["name"] in names)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    dp = ("amplify.dp_gk", "amplify.dp_backwards")
    extra = attr_sum(dp, "first_call_extra_s")
    dp_gk_s, dp_back_s = total("amplify.dp_gk"), total("amplify.dp_backwards")
    gk_levels = attr_sum(("amplify.dp_gk",), "levels")
    gk_extra = attr_sum(("amplify.dp_gk",), "first_call_extra_s")
    cells = attr_sum(dp, "cells")
    build_s = total("graphs.build_aghp")
    encode_s = total("code.encode")
    overhead = 0.0
    for p in processes:
        mains = {s["id"] for s in p["spans"] if s["name"] == "cli.main"}
        if mains:
            calls = sum(s["end"] - s["start"] for s in p["spans"] if s["parent"] in mains)
            overhead += p["wall_s"] - calls
    m = {
        "cli.import_s": total("cli.import"),
        "cli.overhead_s": overhead,
        "cli.stdout_bytes": sum(p.get("stdout_bytes", 0) for p in processes),
        "gf2core.field_mul_calls": sum(1 for s in spans if s["name"] == "gf2core.field_mul"),
        "graphs.build_aghp_s": build_s,
        "graphs.generators_per_s": rate(attr_sum(("graphs.build_aghp",), "generators"), build_s),
        "graphs.spectrum_s": total("graphs.spectrum"),
        "amplify.dp_gk_s": dp_gk_s,
        "amplify.dp_level_s": rate(dp_gk_s - gk_extra, gk_levels) if gk_levels else 0.0,
        "amplify.dp_gather_cells": cells,
        "amplify.dp_cells_per_s": rate(cells, dp_gk_s + dp_back_s - extra),
        "amplify.dp_bytes_computed": 16 * cells,
        "amplify.dp_calls": sum(1 for s in spans if s["name"] in dp),
        "amplify.dp_first_call_extra_s": extra,
        "amplify.dp_backwards_s": dp_back_s,
        "amplify.checks_self_s": sum(t for s, t in zip(spans, selfs)
                                     if s["name"].startswith("amplify.check_")),
        "code.code_bias_s": total("code.code_bias"),
        "code.messages_scanned": sum(1 for s in spans
                                     if s["name"] == "amplify.dp_gk" and s["site"] == "code"),
        "code.encode_s": encode_s,
        "code.encode_bits_per_s": rate(attr_sum(("code.encode",), "bits"), encode_s),
        "walks.walk_from_seed_calls": sum(p["counts"].get("walks.walk_from_seed_calls", 0)
                                          for p in processes),
        "walks.middle_start_equal_s": total("walks.middle_start_distribution_equal"),
        "walks.pseudorandomness_s": total("walks.check_pseudorandomness"),
        "walks.uniformity_s": total("walks.check_first_coord_uniform"),
        "hitting.check_hitting_s": total("hitting.check_hitting"),
        "hitting.path_count_ops": attr_sum(("hitting.hitting_prob_exact",), "ops"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                   if s["name"].split(".")[0] == layer)
    return m
