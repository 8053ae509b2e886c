"""In-memory spans around the public functions of each braggtrap module.

The tracer replaces each public function by a wrapper in every loaded
``braggtrap`` module namespace that holds it, because modules import names
from each other (``sequence`` and ``optimize`` call ``apply_rotation`` by its
imported name).  A span is ``[name, start, end, parent, task, extra]``; spans
stay in memory and are written out once, when the process ends.  The
integrand ``chi_of_t`` and ``chi_terms`` run thousands of times per
quadrature, so they are counted rather than spanned.

``summarize`` turns the spans of one task list into the per-layer metrics;
a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "trap", "dicke", "sequence", "optimize", "closed_form")
COUNTED = ("trap.chi_of_t", "trap.chi_terms")
OPTIMIZERS = ("optimize.optimize_beta", "optimize.optimize_alpha_beta")
ROTATION_ATOMS = (100, 1000, 4000)
COLD_ATOMS = (1000, 4000)

# Each per-layer metric, the end-to-end metric it should move and the
# workloads on which it should move it; written down before measuring.
LAYERS = [
    (("import.total_s", "import.scipy_s", "import.braggtrap_self_s"),
     ("setup_s", "task_p50_s"), "all; cli-cold"),
    (("cli.parse_config.self_s", "cli.dispatch.self_s", "cli.bytes_out"),
     ("task_p50_s",), "cli-cold"),
    (("trap.tau_accumulated.calls", "trap.tau_accumulated.self_s",
      "trap.tau_tilde.calls", "trap.tau_tilde.self_s", "trap.derive_trap.calls",
      "trap.chi_of_t.calls", "trap.chi_evals_per_quad"),
     ("task_p50_s", "wall_s"), "cli-cold (no change predicted on joint-scan)"),
    (("dicke.apply_rotation.calls", "dicke.apply_rotation.self_s",
      "dicke.apply_rotation.bytes_computed", "dicke.apply_rotation.gbps_computed"),
     ("wall_s", "task_p50_s", "task_tail_s"),
     "joint-scan, n-sweep (about no change on cli-cold)"),
    (tuple(f"dicke.apply_rotation.call_s.n{n}" for n in ROTATION_ATOMS),
     ("task_tail_s",), "n-sweep"),
    (("dicke.eigensystem.hits", "dicke.eigensystem.misses", "dicke.eigensystem.cold_s",
      *(f"dicke.eigensystem.cold_s.n{n}" for n in COLD_ATOMS)),
     ("wall_s", "task_tail_s", "peak_rss_mb"), "n-sweep (one miss on joint-scan)"),
    (("dicke.expectation.calls", "dicke.expectation.self_s", "dicke.apply_oat.calls",
      "dicke.apply_oat.self_s", "dicke.make_css.self_s", "dicke.husimi_grid.self_s"),
     ("wall_s",), "joint-scan, n-sweep; squeeze in cli-cold"),
    (("sequence.run_sequence.calls", "sequence.run_sequence.self_s",
      "sequence.gain_at_zero.calls", "sequence.gain_at_zero.self_s",
      "sequence.signal_curve.self_s", "sequence.sequence_from_trap.self_s"),
     ("wall_s",), "n-sweep, joint-scan"),
    (("optimize.optimize_beta.calls", "optimize.optimize_beta.self_s",
      "optimize.optimize_alpha_beta.calls", "optimize.optimize_alpha_beta.self_s",
      "optimize.alpha_H.self_s", "optimize.scan_m.self_s", "optimize.scan_trap.self_s"),
     ("wall_s", "task_p50_s"), "joint-scan; n-sweep"),
    (("optimize.rotations_per_point", "optimize.expectations_per_point"),
     ("wall_s",), "joint-scan"),
    (("closed_form.calls", "closed_form.self_s"),
     (), "all (expected negligible; confirms it)"),
    (("trace.overhead_s",), (), "all (cost of the tracer itself)"),
]
LAYER_METRICS = [name for names, _, _ in LAYERS for name in names]


def _eigensystem_cache():
    """The S_x eigensystem LRU cache of ``dicke``, or None if it has none."""
    fn = getattr(sys.modules.get("braggtrap.dicke"), "_sx_eigensystem", None)
    return fn if hasattr(fn, "cache_info") else None


def rotation_bytes(n_atoms: int) -> int:
    """Computed bytes one x or y rotation moves at N atoms.

    Two passes over the real (N+1)^2 eigenvector matrix plus reading and
    writing the complex amplitude vector in each pass.  The model counts
    array sizes only: cache misses and the complex copy numpy makes when it
    multiplies a real matrix by a complex vector are not counted.
    """
    d = n_atoms + 1
    return 2 * 8 * d * d + 4 * 16 * d


def rotation_flops(n_atoms: int) -> int:
    """Floating-point operations of one x or y rotation (two real-by-complex products)."""
    d = n_atoms + 1
    return 2 * 4 * d * d


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._in_quad = 0

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _rotation(self, fn):
        """Span around apply_rotation that also records N, work and a cache miss."""
        spanned = self._span("dicke.apply_rotation", fn)
        cache = _eigensystem_cache()

        @functools.wraps(fn)
        def wrapper(state, pulse, *args, **kwargs):
            before = cache.cache_info().misses if cache else 0
            idx = len(self.spans)
            out = spanned(state, pulse, *args, **kwargs)
            cold = bool(cache) and cache.cache_info().misses > before
            work = pulse.axis in ("x", "y") and bool(pulse.angle != 0.0)
            self.spans[idx][5] = (int(state.n_atoms), work, cold)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self._in_quad:
                counts[name + ".in_quad"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _quad(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["trap.quad"] += 1
            self._in_quad += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_quad -= 1
        return wrapper

    def install(self) -> None:
        """Wrap every public function of each module in ``MODULES``."""
        mods = {m: importlib.import_module(f"braggtrap.{m}") for m in MODULES}
        spaces = [mod for key, mod in sys.modules.items()
                  if key == "braggtrap" or key.startswith("braggtrap.")]
        replace = {}
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                k for k, v in vars(mod).items() if not k.startswith("_")
                and isinstance(v, types.FunctionType) and v.__module__ == mod.__name__]
            for attr in names:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED:
                    replace[fn] = self._counted(name, fn)
                elif name == "dicke.apply_rotation":
                    replace[fn] = self._rotation(fn)
                else:
                    replace[fn] = self._span(name, fn)
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    setattr(space, attr, replace[value])
        if hasattr(mods["trap"], "quad"):
            mods["trap"].quad = self._quad(mods["trap"].quad)

    def dump(self) -> dict:
        cache = _eigensystem_cache()
        info = cache.cache_info() if cache else None
        return {"spans": self.spans, "counts": dict(self.counts),
                "eigensystem": [info.hits, info.misses] if info else None}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(processes: list[dict], bytes_out: int = 0) -> dict:
    """Per-layer metrics of one task list from the dumps of its processes."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    rot_bytes = rot_time = cold_s = 0.0
    cold_at = defaultdict(float)
    warm_at = defaultdict(list)
    points = rotations_in_opt = expectations_in_opt = 0
    hits = misses = 0
    for proc in processes:
        spans = proc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        under_opt = [False] * len(spans)  # an optimizer span is an ancestor
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            if parent >= 0:
                under_opt[i] = under_opt[parent] or spans[parent][0] in OPTIMIZERS
            if name in OPTIMIZERS and not under_opt[i]:
                points += 1
            if under_opt[i] and name == "dicke.apply_rotation":
                rotations_in_opt += 1
            if under_opt[i] and name == "dicke.expectation":
                expectations_in_opt += 1
            if name == "dicke.apply_rotation" and extra and extra[1]:
                n_atoms, _, cold = extra
                rot_bytes += rotation_bytes(n_atoms)
                rot_time += dur
                if cold:
                    cold_s += dur
                    cold_at[n_atoms] += dur
                else:
                    warm_at[n_atoms].append(dur)
        counts.update(proc["counts"])
        if proc.get("eigensystem"):
            hits += proc["eigensystem"][0]
            misses += proc["eigensystem"][1]

    out = {
        "cli.bytes_out": float(bytes_out),
        "trap.chi_of_t.calls": float(counts["trap.chi_of_t"]),
        "trap.chi_evals_per_quad": (counts["trap.chi_of_t.in_quad"] / counts["trap.quad"]
                                    if counts["trap.quad"] else 0.0),
        "dicke.apply_rotation.bytes_computed": rot_bytes,
        "dicke.apply_rotation.gbps_computed": rot_bytes / rot_time / 1e9 if rot_time else 0.0,
        "dicke.eigensystem.hits": float(hits),
        "dicke.eigensystem.misses": float(misses),
        "dicke.eigensystem.cold_s": cold_s,
        "optimize.rotations_per_point": rotations_in_opt / points if points else 0.0,
        "optimize.expectations_per_point": expectations_in_opt / points if points else 0.0,
        "closed_form.calls": float(sum(v for k, v in calls.items()
                                       if k.startswith("closed_form."))),
        "closed_form.self_s": sum(v for k, v in self_s.items()
                                  if k.startswith("closed_form.")),
    }
    for n in ROTATION_ATOMS:
        out[f"dicke.apply_rotation.call_s.n{n}"] = _median(warm_at[n])
    for n in COLD_ATOMS:
        out[f"dicke.eigensystem.cold_s.n{n}"] = cold_at[n]
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls[name])
        elif kind == "self_s":
            out[metric] = self_s[name]
    return out
