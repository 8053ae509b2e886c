"""Correctness checks on the program's outputs, from the repo's own oracles.

Each check returns a list of failure messages; an empty list means the
output passed.  Tolerances are those of the acceptance criteria:

- every gain satisfies delta_theta * sqrt(N) * gain = 1 (1e-12);
- reported optimal angles, re-run through the independent
  ``run_sequence_stepwise`` path, reproduce the reported gain (1e-9 rel);
- a joint optimum is >= the alpha = 0 ``optimize_beta`` gain * (1 - 1e-6);
- in ``squeeze`` output, xi matches xi_closed (1e-9 rel);
- the ``husimi_grid`` sphere integral is within 0.02 of 1;
- N = 1000 gains are <= N^(1/3) * 1.05;
- the Thomas-Fermi quadrature stays below the separated-mode bound
  (tau_numeric <= tau_closed), and fringe rows match the stepwise path.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from braggtrap import dicke, optimize, sequence, trap

IDENTITY_TOL = 1e-12
STEPWISE_REL = 1e-9
JOINT_MARGIN = 1e-6
XI_REL = 1e-9
HUSIMI_TOL = 0.02
CEILING_ATOMS = 1000
CEILING = CEILING_ATOMS ** (1.0 / 3.0) * 1.05


def stepwise_gain(n_atoms, tau, tau_tilde, alpha, beta) -> float:
    """Gain at theta = 0 from the stepwise laboratory-pulse path."""
    cfg = sequence.SequenceConfig(n_atoms=int(n_atoms), tau=tau, tau_tilde=tau_tilde,
                                  alpha=alpha, beta=beta)
    out = sequence.run_sequence_stepwise(cfg)
    sx = dicke.expectation(out, "sx")
    sz = dicke.expectation(out, "sz")
    var = dicke.expectation(out, "sz2") - sz * sz
    return abs(math.cos(beta) * sx) / math.sqrt(n_atoms * var)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_point(label: str, n_atoms, tau, tau_tilde, alpha, beta, gain,
                delta_theta=None) -> list[str]:
    """Identity, stepwise reproduction and ceiling checks of one optimized point."""
    bad = []
    if delta_theta is not None:
        dev = abs(delta_theta * math.sqrt(n_atoms) * gain - 1.0)
        if not dev <= IDENTITY_TOL:
            bad.append(f"{label}: delta_theta*sqrt(N)*gain - 1 = {dev:.2e}")
    rel = _rel(stepwise_gain(n_atoms, tau, tau_tilde, alpha, beta), gain)
    if not rel <= STEPWISE_REL:
        bad.append(f"{label}: stepwise gain differs by {rel:.2e} rel")
    if n_atoms == CEILING_ATOMS and not gain <= CEILING:
        bad.append(f"{label}: gain {gain:.6f} above N^(1/3)*1.05 = {CEILING:.6f}")
    return bad


def check_gain_result(label: str, res: dict, n_atoms, tau, tau_tilde) -> list[str]:
    return check_point(label, n_atoms, tau, tau_tilde, res["alpha"], res["beta"],
                       res["gain"], res["delta_theta"])


def check_joint_row(label: str, row: dict) -> list[str]:
    """Checks of one jointly optimized scan row, including the alpha = 0 floor."""
    bad = check_point(label, row["n_atoms"], row["tau"], row["tau_tilde"],
                      row["alpha"], row["beta"], row["gain"])
    floor = optimize.optimize_beta(sequence.SequenceConfig(
        n_atoms=int(row["n_atoms"]), tau=row["tau"], tau_tilde=row["tau_tilde"])).gain
    if not row["gain"] >= floor * (1.0 - JOINT_MARGIN):
        bad.append(f"{label}: joint gain {row['gain']:.9f} below alpha=0 gain {floor:.9f}")
    return bad


def check_husimi(label: str, polar, azimuth, values) -> list[str]:
    grid = dicke.HusimiGrid(np.asarray(polar, dtype=float), np.asarray(azimuth, dtype=float),
                            np.asarray(values, dtype=float))
    integral = grid.sphere_integral()
    if not abs(integral - 1.0) <= HUSIMI_TOL:
        return [f"{label}: Husimi sphere integral {integral:.6f}"]
    return []


def check_signal(label: str, seq: dict, rows) -> list[str]:
    """Each fringe row against the stepwise path at the same theta."""
    bad = []
    n = int(seq["n_atoms"])
    for theta, mean, var in rows:
        cfg = sequence.SequenceConfig(n_atoms=n, tau=seq["tau"], tau_tilde=seq["tau_tilde"],
                                      alpha=seq["alpha"], beta=seq["beta"], theta=theta)
        out = sequence.run_sequence_stepwise(cfg)
        sz = dicke.expectation(out, "sz")
        ref_var = dicke.expectation(out, "sz2") - sz * sz
        if not (abs(sz - mean) <= 1e-9 * 0.5 * n and abs(ref_var - var) <= 1e-9 * ref_var):
            bad.append(f"{label}: fringe row theta={theta} differs from stepwise path")
    return bad


def check_n_sweep(task: dict, payload: dict) -> list[str]:
    seq = payload["sequence"]
    label = task["name"]
    n, tau, tt = seq["n_atoms"], seq["tau"], seq["tau_tilde"]
    bad = check_gain_result(f"{label} alpha=0", payload["fixed"], n, tau, tt)
    bad += check_gain_result(f"{label} alpha_H", payload["alpha_H"], n, tau, tt)
    bad += check_signal(label, seq, payload["signal"][-1:])
    bad += check_husimi(label, **payload["husimi"])
    return bad


def check_joint_scan(task: dict, payload: dict) -> list[str]:
    bad = []
    for row in payload["rows"]:
        bad += check_joint_row(task["name"], row)
    if len(payload["rows"]) != 1:
        bad.append(f"{task['name']}: expected one row, got {len(payload['rows'])}")
    return bad


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_cli(task: dict, path: str) -> list[str]:
    """Checks of one CLI data file, by subcommand."""
    name, argv = task["name"], task["argv"]
    if name in ("gain", "optimize"):
        with open(path, encoding="utf-8") as handle:
            res = json.load(handle)
        return check_gain_result(name, res, res["n_atoms"], res["tau"], res["tau_tilde"])
    rows = _csv_rows(path)
    if not rows:
        return [f"{name}: no rows"]
    bad = []
    if name in ("scan-m", "scan-trap"):
        for i, r in enumerate(rows):
            bad += check_point(f"{name} row {i}", int(r["n_atoms"]), r["tau"], r["tau_tilde"],
                               r["alpha_rad"], r["beta_rad"], r["gain"])
    elif name == "squeeze":
        worst = max(_rel(r["xi"], r["xi_closed"]) for r in rows)
        if not worst <= XI_REL:
            bad.append(f"squeeze: xi differs from xi_closed by {worst:.2e} rel")
    elif name == "tau":
        if any(not r["tau_numeric"] <= r["tau_closed"] for r in rows):
            bad.append("tau: Thomas-Fermi quadrature above the separated-mode bound")
    elif name == "husimi":
        polar = sorted({r["polar"] for r in rows})
        azimuth = sorted({r["azimuth"] for r in rows})
        values = np.array([r["q_value"] for r in rows]).reshape(len(polar), len(azimuth))
        bad += check_husimi(name, polar, azimuth, values)
    elif name == "fringe":
        bad += check_signal(name, _cli_sequence(argv),
                            [(r["theta_rad"], r["sz_mean"], r["sz_var"]) for r in rows[::12]])
    return bad


def _cli_sequence(argv: list[str]) -> dict:
    """The sequence a ``--from-trap`` CLI command runs, rebuilt through the library."""
    hz = 2.0 * math.pi
    config = trap.AtomTrapConfig(
        n_atoms=int(_flag(argv, "--n-atoms")),
        omega_x=hz * float(_flag(argv, "--omega-x-hz")),
        omega_y=hz * float(_flag(argv, "--omega-y-hz")),
        omega_z=hz * float(_flag(argv, "--omega-z-hz")),
        oscillations=float(_flag(argv, "--oscillations")))
    seq = sequence.sequence_from_trap(config)
    return {"n_atoms": seq.n_atoms, "tau": seq.tau, "tau_tilde": seq.tau_tilde,
            "alpha": seq.alpha, "beta": seq.beta}
