"""Seeded task lists of the three benchmark workloads.

A run repeats its workload's task list, and the list depends only on the
workload name and the seed.  The seed draws the physical inputs (trap
frequency, aspect ratio, oscillation count m and, for the CLI, N <= 1000)
from ranges on which every operation succeeds.  The work per list depends
on the draw only through the CLI's N (960 to 1000) and its tau sweep, so lists
from different seeds cost about the same.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-cold", "joint-scan", "n-sweep")
N_SWEEP_ATOMS = (100, 1000, 2000, 4000)


def _trap(rng: random.Random) -> dict:
    return {
        "nu_z": round(rng.uniform(60.0, 200.0), 3),
        "gamma": round(rng.uniform(0.3, 2.0), 4),
        "m": rng.choice((0.5, 1.0, 1.5, 2.0)),
    }


def _trap_flags(trap: dict, n_atoms: int) -> list[str]:
    nu_r = repr(round(trap["gamma"] * trap["nu_z"], 6))
    return ["--n-atoms", str(n_atoms), "--omega-z-hz", repr(trap["nu_z"]),
            "--omega-x-hz", nu_r, "--omega-y-hz", nu_r,
            "--oscillations", repr(trap["m"])]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def _cli_cold(rng: random.Random) -> list[dict]:
    """One process per subcommand; each writes one data file and its manifest."""
    trap = _trap(rng)
    n = rng.randint(960, 1000)
    flags = _trap_flags(trap, n)
    gammas = sorted(round(rng.uniform(0.3, 2.0), 4) for _ in range(3))
    if rng.random() < 0.5:
        tau_sweep = ["--sweep", "gamma", "--sweep-values", _csv(gammas)]
    else:
        freqs = sorted(round(rng.uniform(40.0, 220.0), 2) for _ in range(5))
        tau_sweep = ["--sweep", "omega-z", "--sweep-values", _csv(freqs)]
    m_values = sorted(rng.sample([0.5 * k for k in range(1, 11)], 4))
    tasks = [
        ("gain", ["gain", "--from-trap", *flags], "gain.json"),
        ("tau", ["tau", *flags, *tau_sweep], "tau.csv"),
        ("squeeze", ["squeeze", "--n-atoms", str(n), "--tau-min", "0.001",
                     "--tau-max", repr(round(rng.uniform(0.02, 0.05), 4)),
                     "--tau-steps", "100"], "squeeze.csv"),
        ("optimize", ["optimize", "--from-trap", *flags,
                      "--alpha-policy", "fixed"], "optimize.json"),
        ("scan-m", ["scan-m", *flags, "--m-values", _csv(m_values)], "scan_m.csv"),
        ("fringe", ["fringe", "--from-trap", *flags], "fringe.csv"),
        ("husimi", ["husimi", "--from-trap", *_trap_flags(trap, rng.randint(50, 200))],
         "husimi.csv"),
        ("scan-trap", ["scan-trap", *flags, "--sweep", "gamma",
                       "--sweep-values", _csv(gammas), "--m-values", "0.5,1"],
         "scan_trap.csv"),
    ]
    rng.shuffle(tasks)
    return [{"name": name, "argv": argv, "output": out} for name, argv, out in tasks]


def _joint_scan(rng: random.Random) -> list[dict]:
    """Three jointly optimized (alpha, beta) points at N = 1000, default grids."""
    trap = _trap(rng)
    tasks = []
    for sweep in ("gamma", "omega_z", rng.choice(("gamma", "omega_z"))):
        value = (round(rng.uniform(0.3, 2.0), 4) if sweep == "gamma"
                 else round(rng.uniform(60.0, 200.0), 3))
        tasks.append({"name": f"scan_trap.{sweep}", "n_atoms": 1000, **trap,
                      "sweep": sweep, "value": value,
                      "m": rng.choice((0.5, 1.0, 1.5))})
    return tasks


def _n_sweep(rng: random.Random) -> list[dict]:
    """Gain versus atom number, one task per N, trap parameters shared."""
    trap = _trap(rng)
    thetas = sorted(round(rng.uniform(-0.05, 0.05), 5) for _ in range(2))
    return [{"name": f"n{n}", "n_atoms": n, **trap, "thetas": thetas}
            for n in N_SWEEP_ATOMS]


def task_list(workload: str, seed: int) -> list[dict]:
    """The seeded task list of one workload."""
    make = {"cli-cold": _cli_cold, "joint-scan": _joint_scan, "n-sweep": _n_sweep}
    return make[workload](random.Random(f"{workload}:{seed}"))
