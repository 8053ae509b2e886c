"""Run one task list of the joint-scan or n-sweep workload in a warm process.

Usage: python3 perfbench/worker.py WORKLOAD TASKS_JSON OUT_JSON TRACE

braggtrap is imported before any timing starts.  The tasks then run one
after another, one in flight, through the library's public functions.  The
output records each task's latency, the list's wall time, each task's result
or error and, with TRACE = 1, the spans and counters of the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import traceback
from time import perf_counter

from braggtrap import dicke, optimize, sequence, trap

import spans

# Resolves the squeezed output state up to N = 4000; a 64 x 128 grid
# under-resolves it there and its sphere integral is off by up to 2%.
HUSIMI_GRID = (128, 256)


def _config(task: dict) -> trap.AtomTrapConfig:
    omega_z = 2.0 * math.pi * task["nu_z"]
    return trap.AtomTrapConfig(n_atoms=task["n_atoms"], omega_x=task["gamma"] * omega_z,
                               omega_y=task["gamma"] * omega_z, omega_z=omega_z,
                               oscillations=task["m"])


def joint_point(task: dict) -> dict:
    """One jointly optimized (alpha, beta) point of a trap scan."""
    value = task["value"] if task["sweep"] == "gamma" else 2.0 * math.pi * task["value"]
    rows = optimize.scan_trap(_config(task), task["sweep"], [value], m_values=(task["m"],),
                              spec=optimize.OptimizationSpec(alpha_mode="scan"))
    return {"rows": [dataclasses.asdict(r) for r in rows]}


def n_point(task: dict) -> dict:
    """Gain, fringe and Husimi distribution at one atom number."""
    seq = sequence.sequence_from_trap(_config(task))
    fixed = optimize.optimize_beta(seq)
    tuned = optimize.optimize_beta(
        dataclasses.replace(seq, alpha=optimize.alpha_H(seq.n_atoms, seq.tau)))
    signal = sequence.signal_curve(seq, task["thetas"])
    grid = dicke.husimi_grid(sequence.run_sequence(seq), *HUSIMI_GRID)
    return {"sequence": dataclasses.asdict(seq), "fixed": dataclasses.asdict(fixed),
            "alpha_H": dataclasses.asdict(tuned), "signal": signal,
            "husimi": {"polar": grid.polar.tolist(), "azimuth": grid.azimuth.tolist(),
                       "values": grid.values.tolist()}}


RUNNERS = {"joint-scan": joint_point, "n-sweep": n_point}


def main(argv: list[str]) -> int:
    workload, tasks_path, out_path, traced = argv
    with open(tasks_path, encoding="utf-8") as handle:
        tasks = json.load(handle)
    run = RUNNERS[workload]
    tracer = spans.Tracer() if traced == "1" else None
    if tracer:
        tracer.install()
    results = []
    start = perf_counter()
    for i, task in enumerate(tasks):
        if tracer:
            tracer.task = i
        t0 = perf_counter()
        try:
            payload, error = run(task), None
        except Exception:  # a failed task is counted, and the list goes on
            payload, error = None, traceback.format_exc()
        results.append({"latency_s": perf_counter() - t0, "payload": payload, "error": error})
    wall = perf_counter() - start
    out = {"wall_s": wall, "tasks": results, "trace": tracer.dump() if tracer else None}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
