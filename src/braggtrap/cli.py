"""Command-line front end: parse parameters, dispatch, emit CSV/JSON.

Inputs come from CLI flags, an optional flat key=value config file, and
documented defaults, in that precedence order.  Frequencies are accepted in
Hz (nu) and converted to angular frequencies internally (factor 2 pi).
Outputs are machine-readable data only: CSV for curves and scans, JSON for
scalar results; diagnostics go to stderr.  Identical resolved parameters
produce byte-identical data files, whatever the BLAS thread count except
under ``--alpha-policy scan``; each file written to disk is accompanied by
a ``<name>.manifest.json`` recording the resolved run.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closed_form import xi2_closed
from .dicke import husimi_grid, spin_moments
from .errors import BraggTrapError, ResourceLimitError
from .optimize import OptimizationSpec, optimized_gain, scan_m, scan_trap
from .sequence import (
    SequenceConfig,
    gain_at_zero,
    prepared_state,
    run_sequence,
    sequence_from_trap,
    signal_curve,
)
from .trap import (
    RB87_K0,
    RB87_MASS,
    RB87_SCATTERING_LENGTH,
    STANDARD_GRAVITY,
    AtomTrapConfig,
    chi_of_t,
    derive_trap,
    half_integer,
    tau_accumulated,
    tau_closed_form,
    tau_tilde,
)

TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    """Bad flags, config keys, or values; maps to exit code 1."""


def _positive(key: str, value):
    if not value > 0:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


def _half_integer(key: str, value):
    try:
        return half_integer(key, value)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _at_least_two(key: str, value):
    if value < 2:
        raise UsageError(f"{key} must be >= 2, got {value}")
    return value


def _choice(*allowed):
    def check(key, value):
        if value not in allowed:
            raise UsageError(f"{key} must be one of {allowed}, got {value!r}")
        return value
    return check


def _float_list(key: str, value):
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        items = [float(tok) for tok in str(value).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{key}: cannot parse number in {value!r}") from exc
    if not items:
        raise UsageError(f"{key} must contain at least one value")
    if not all(math.isfinite(v) for v in items):
        raise UsageError(f"{key} must contain finite numbers only, got {value!r}")
    return items


def _positive_list(key: str, value):
    return [_positive(key, v) for v in _float_list(key, value)]


def _half_integer_list(key: str, value):
    return [_half_integer(key, m) for m in _float_list(key, value)]


def _identity(key, value):
    return value


# name -> (python type, default, unit, help, validator); the single source of
# truth for flags, config-file keys, and --help text.
KEYS = {
    "n_atoms": (int, 1000, "dimensionless", "atom number N", _at_least_two),
    "atom_mass_kg": (float, RB87_MASS, "kg", "atomic mass M", _positive),
    "scattering_length_m": (float, RB87_SCATTERING_LENGTH, "m", "s-wave scattering length a", _positive),
    "omega_x_hz": (float, 20.0, "Hz", "radial trap frequency nu_x (angular = 2*pi*nu)", _positive),
    "omega_y_hz": (float, 20.0, "Hz", "radial trap frequency nu_y (must equal nu_x)", _positive),
    "omega_z_hz": (float, 100.0, "Hz", "axial trap frequency nu_z (angular = 2*pi*nu)", _positive),
    "omega_z_tilde_hz": (float, None, "Hz", "axial frequency during interrogation (default: nu_z)", _positive),
    "k0_inv_m": (float, RB87_K0, "1/m", "two-photon wave vector k0 = 2 k_L", _positive),
    "gravity_m_s2": (float, STANDARD_GRAVITY, "m/s^2", "gravitational acceleration g", _positive),
    "oscillations": (float, 0.5, "dimensionless", "preparation oscillations m (half-integer)", _half_integer),
    "model": (str, "gaussian", "enum", "density model: gaussian | thomas_fermi", _choice("gaussian", "thomas_fermi")),
    "tau": (float, 0.0, "rad", "preparation twisting strength", _identity),
    "tau_tilde": (float, 0.0, "rad", "interrogation twisting strength", _identity),
    "alpha_rad": (float, 0.0, "rad", "pre-interferometer rotation angle alpha", _identity),
    "beta_rad": (float, 0.0, "rad", "post-interferometer rotation angle beta", _identity),
    "theta_rad": (float, 0.0, "rad", "encoded interferometer phase theta", _identity),
    "from_trap": (bool, False, "flag", "derive tau/tau_tilde/theta from the trap parameters", _identity),
    "alpha_policy": (str, "fixed", "enum", "alpha selection: fixed | alpha-h | scan", _choice("fixed", "alpha-h", "scan")),
    "alpha_grid": (int, 181, "dimensionless", "coarse grid size for alpha scans (8 to 10^6)", _positive),
    "refine_tolerance_rad": (float, 1e-4, "rad", "optimizer refinement tolerance", _positive),
    "tau_min": (float, 1e-4, "rad", "squeeze sweep: smallest tau", _positive),
    "tau_max": (float, 0.03, "rad", "squeeze sweep: largest tau", _positive),
    "tau_steps": (int, 200, "dimensionless", "squeeze sweep: number of points", _positive),
    "theta_min_rad": (float, -math.pi, "rad", "fringe sweep: smallest theta", _identity),
    "theta_max_rad": (float, math.pi, "rad", "fringe sweep: largest theta", _identity),
    "theta_steps": (int, 73, "dimensionless", "fringe sweep: number of points", _positive),
    "m_values": (list, [0.5 * k for k in range(0, 11)], "dimensionless", "comma-separated oscillation counts", _half_integer_list),
    "sweep": (str, "omega-z", "enum", "scan-trap axis: gamma | omega-z", _choice("gamma", "omega-z")),
    "sweep_values": (list, None, "Hz or dimensionless", "comma-separated sweep values (Hz for omega-z, ratio for gamma)", _positive_list),
    "n_polar": (int, 64, "dimensionless", "Husimi polar grid size", _at_least_two),
    "n_azimuth": (int, 128, "dimensionless", "Husimi azimuth grid size", _at_least_two),
    "chi_curve": (str, None, "path", "also write chi(t) samples to this CSV file", _identity),
    "output": (str, "-", "path", "output file for the data ('-' = stdout)", _identity),
}

_TRAP_KEYS = (
    "n_atoms", "atom_mass_kg", "scattering_length_m", "omega_x_hz",
    "omega_y_hz", "omega_z_hz", "omega_z_tilde_hz", "k0_inv_m",
    "gravity_m_s2", "oscillations", "model",
)
_SEQ_KEYS = ("tau", "tau_tilde", "alpha_rad", "beta_rad", "theta_rad", "from_trap")
_OPT_KEYS = ("alpha_policy", "alpha_grid", "refine_tolerance_rad")

SUBCOMMANDS = {
    "squeeze": _TRAP_KEYS[:1] + ("tau_min", "tau_max", "tau_steps", "output"),
    "tau": _TRAP_KEYS + ("sweep", "sweep_values", "chi_curve", "output"),
    "gain": _TRAP_KEYS + _SEQ_KEYS + ("output",),
    "optimize": _TRAP_KEYS + _SEQ_KEYS + _OPT_KEYS + ("output",),
    "scan-m": _TRAP_KEYS + _OPT_KEYS + ("m_values", "output"),
    "scan-trap": _TRAP_KEYS + _OPT_KEYS + ("sweep", "sweep_values", "m_values", "output"),
    "fringe": _TRAP_KEYS + _SEQ_KEYS + ("theta_min_rad", "theta_max_rad", "theta_steps", "output"),
    "husimi": _TRAP_KEYS + _SEQ_KEYS + ("n_polar", "n_azimuth", "output"),
}

_SUBCOMMAND_HELP = {
    "squeeze": "sweep tau and tabulate the optimal squeezing xi(tau)",
    "tau": "trap sweep of twisting strengths: quadrature vs separated-mode estimate",
    "gain": "sensitivity gain of a single interferometer run (JSON)",
    "optimize": "gain optimized over the pulse angles (JSON)",
    "scan-m": "optimized gain versus the oscillation count m (CSV)",
    "scan-trap": "optimized gain versus trap aspect ratio or frequency (CSV)",
    "fringe": "signal curve <S_z>(theta) with variances (CSV)",
    "husimi": "Husimi Q distribution of the sequence output state (CSV)",
}


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braggtrap", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"braggtrap {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, keys in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=_SUBCOMMAND_HELP[name],
                             description=_SUBCOMMAND_HELP[name])
        sp.add_argument("--config", help="flat key=value config file (# comments allowed)")
        for key in keys:
            typ, default, unit, text, _ = KEYS[key]
            if typ is bool:
                sp.add_argument(_flag_name(key), action="store_const", const=True,
                                default=None, help=f"{text} [{unit}]")
            else:
                sp.add_argument(_flag_name(key), type=str, default=None, metavar="V",
                                help=f"{text} [{unit}; default {default}]")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def _coerce(key: str, raw):
    typ, _, _, _, validator = KEYS[key]
    if raw is None:
        return None
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{key}: cannot parse boolean from {raw!r}")
    if typ is list:
        return validator(key, raw)
    try:
        value = typ(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key}: cannot parse {typ.__name__} from {raw!r}") from exc
    if typ is float and not math.isfinite(value):
        raise UsageError(f"{key} must be a finite number, got {raw!r}")
    return validator(key, value)


def parse_config(argv: list[str]) -> tuple[str, dict, dict]:
    """Resolve (subcommand, parameters, manifest) from CLI args.

    Precedence: CLI flag > config file > documented default.  Unknown config
    keys, unparsable numbers, and domain violations raise UsageError naming
    the offending token.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required (see --help)")
    keys = SUBCOMMANDS[ns.subcommand]
    file_entries = _read_config_file(ns.config) if ns.config else {}
    params = {}
    for key in keys:
        value = KEYS[key][1]  # documented default; valid by construction
        if key in file_entries:
            value = _coerce(key, file_entries[key])
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            value = _coerce(key, cli_value)
        params[key] = value
    manifest = {
        "tool": "braggtrap",
        "version": __version__,
        "subcommand": ns.subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return ns.subcommand, params, manifest


def _trap_from_params(params: dict) -> AtomTrapConfig:
    tilde = params.get("omega_z_tilde_hz")
    try:
        return AtomTrapConfig(
            atom_mass=params["atom_mass_kg"],
            scattering_length=params["scattering_length_m"],
            n_atoms=params["n_atoms"],
            omega_x=TWO_PI * params["omega_x_hz"],
            omega_y=TWO_PI * params["omega_y_hz"],
            omega_z=TWO_PI * params["omega_z_hz"],
            omega_z_tilde=None if tilde is None else TWO_PI * tilde,
            gravity=params["gravity_m_s2"],
            k0=params["k0_inv_m"],
            oscillations=params["oscillations"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sequence_from_params(params: dict) -> SequenceConfig:
    if params.get("from_trap"):
        return sequence_from_trap(
            _trap_from_params(params), model=params["model"],
            alpha=params["alpha_rad"], beta=params["beta_rad"],
        )
    return SequenceConfig(
        n_atoms=params["n_atoms"],
        tau=params["tau"], tau_tilde=params["tau_tilde"],
        alpha=params["alpha_rad"], beta=params["beta_rad"],
        theta=params["theta_rad"],
    )


def _spec_from_params(params: dict) -> OptimizationSpec:
    policy = {"fixed": "fixed", "alpha-h": "alpha_H", "scan": "scan"}[params["alpha_policy"]]
    try:
        return OptimizationSpec(
            alpha_mode=policy,
            alpha_value=params.get("alpha_rad", 0.0),
            alpha_grid=params["alpha_grid"],
            refine_tolerance=params["refine_tolerance_rad"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.11e}"  # 12 significant digits, locale-independent


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _gain_json(result, extra: dict) -> str:
    payload = dict(extra)
    payload.update(dataclasses.asdict(result))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: str, manifest: dict) -> list[str]:
    if path == "-":
        sys.stdout.write(text)
        return []
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    manifest_path = path + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [path, manifest_path]


def _xi_optimal(n_atoms: int, tau: float) -> float:
    """Orientation-optimized Wineland xi from the exact twisted state."""
    mom = spin_moments(prepared_state(SequenceConfig(n_atoms=n_atoms, tau=tau)))
    return math.sqrt(mom.xi2(n_atoms, mom.squeezed_axis()[1]))


def _run_squeeze(params: dict, manifest: dict) -> list[str]:
    taus = np.linspace(params["tau_min"], params["tau_max"], params["tau_steps"])
    rows = [(t, _xi_optimal(params["n_atoms"], float(t)),
             math.sqrt(xi2_closed(params["n_atoms"], float(t)))) for t in taus]
    return _emit(_csv_text(["tau", "xi", "xi_closed"], rows), params["output"], manifest)


def _run_tau(params: dict, manifest: dict) -> list[str]:
    base = _trap_from_params(params)
    sweep = params["sweep"]
    values = params["sweep_values"]
    if values is None:
        values = ([0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
                  if sweep == "gamma" else
                  [20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0])
    m = base.oscillations
    rows = []
    for value in values:
        if sweep == "gamma":
            cfg = base.with_aspect_ratio(value)
        else:
            cfg = base.with_omega_z(TWO_PI * value)
        # the separated-mode estimate models the Thomas-Fermi rate over a
        # window of m half-periods, so that pairing is what gets compared;
        # tau_prep is the preparation value actually fed to the sequence
        closed = tau_closed_form(cfg, m)
        numeric = tau_accumulated(cfg, "thomas_fermi", m * 0.5 * cfg.period)
        prep = tau_accumulated(cfg, params["model"], m * cfg.period)
        rows.append((
            value, derive_trap(cfg, params["model"]).chi_max,
            numeric, closed, prep, tau_tilde(cfg, params["model"]),
        ))
    header = [("gamma" if sweep == "gamma" else "omega_z_hz"),
              "chi_max", "tau_numeric", "tau_closed", "tau_prep", "tau_tilde"]
    written = _emit(_csv_text(header, rows), params["output"], manifest)
    if params.get("chi_curve"):
        derived = derive_trap(base, params["model"])
        times = np.linspace(0.0, base.oscillations * base.period, 721)
        curve = [(float(t), chi_of_t(derived, base, float(t))) for t in times]
        written += _emit(_csv_text(["time_s", "chi_rad_s"], curve),
                         params["chi_curve"], manifest)
    return written


def _run_gain(params: dict, manifest: dict) -> list[str]:
    seq = _sequence_from_params(params)
    result = gain_at_zero(seq)
    extra = {"n_atoms": seq.n_atoms, "tau": seq.tau, "tau_tilde": seq.tau_tilde}
    return _emit(_gain_json(result, extra), params["output"], manifest)


def _run_optimize(params: dict, manifest: dict) -> list[str]:
    seq = _sequence_from_params(params)
    result = optimized_gain(seq, _spec_from_params(params))
    extra = {
        "n_atoms": seq.n_atoms, "tau": seq.tau, "tau_tilde": seq.tau_tilde,
        "alpha_policy": params["alpha_policy"],
    }
    return _emit(_gain_json(result, extra), params["output"], manifest)


_SCAN_HEADER = ["m", "gamma", "omega_z_hz", "n_atoms", "tau", "tau_tilde",
                "alpha_rad", "beta_rad", "gain", "gain_linear"]


def _scan_rows_csv(rows) -> str:
    table = [(r.m, r.gamma, r.omega_z / TWO_PI, r.n_atoms, r.tau, r.tau_tilde,
              r.alpha, r.beta, r.gain, r.gain_linear) for r in rows]
    return _csv_text(_SCAN_HEADER, table)


def _run_scan_m(params: dict, manifest: dict) -> list[str]:
    trap = _trap_from_params(params)
    rows = scan_m(trap, params["m_values"], _spec_from_params(params), params["model"])
    return _emit(_scan_rows_csv(rows), params["output"], manifest)


def _run_scan_trap(params: dict, manifest: dict) -> list[str]:
    trap = _trap_from_params(params)
    sweep = "gamma" if params["sweep"] == "gamma" else "omega_z"
    values = params["sweep_values"]
    if values is None:
        values = [0.2, 0.5, 1.0, 1.5, 2.0] if sweep == "gamma" else [50.0, 100.0, 150.0, 200.0]
    if sweep == "omega_z":
        values = [TWO_PI * v for v in values]  # accepted in Hz
    m_values = [m for m in params["m_values"] if m > 0]
    if not m_values:
        raise UsageError("m_values must contain at least one m > 0")
    rows = scan_trap(trap, sweep, values, m_values, _spec_from_params(params), params["model"])
    return _emit(_scan_rows_csv(rows), params["output"], manifest)


def _run_fringe(params: dict, manifest: dict) -> list[str]:
    seq = _sequence_from_params(params)
    thetas = np.linspace(params["theta_min_rad"], params["theta_max_rad"],
                         params["theta_steps"])
    rows = signal_curve(seq, thetas)
    return _emit(_csv_text(["theta_rad", "sz_mean", "sz_var"], rows),
                 params["output"], manifest)


def _run_husimi(params: dict, manifest: dict) -> list[str]:
    seq = _sequence_from_params(params)
    grid = husimi_grid(run_sequence(seq), params["n_polar"], params["n_azimuth"])
    rows = [(float(grid.polar[i]), float(grid.azimuth[j]), float(grid.values[i, j]))
            for i in range(len(grid.polar)) for j in range(len(grid.azimuth))]
    return _emit(_csv_text(["polar", "azimuth", "q_value"], rows),
                 params["output"], manifest)


_DISPATCH = {
    "squeeze": _run_squeeze,
    "tau": _run_tau,
    "gain": _run_gain,
    "optimize": _run_optimize,
    "scan-m": _run_scan_m,
    "scan-trap": _run_scan_trap,
    "fringe": _run_fringe,
    "husimi": _run_husimi,
}


def dispatch(subcommand: str, params: dict, manifest: dict) -> int:
    """Run one resolved subcommand; returns the process exit code."""
    try:
        _DISPATCH[subcommand](params, manifest)
    except (UsageError, ResourceLimitError) as exc:
        print(f"braggtrap: error: {exc}", file=sys.stderr)
        return 1
    except (BraggTrapError, ValueError) as exc:
        print(f"braggtrap: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        subcommand, params, manifest = parse_config(argv)
    except UsageError as exc:
        print(f"braggtrap: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    return dispatch(subcommand, params, manifest)


if __name__ == "__main__":
    sys.exit(main())
