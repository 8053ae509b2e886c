import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from braggtrap import cli
from braggtrap.cli import main, parse_config


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_defaults_manifest(self):
        sub, params, manifest = parse_config(["gain"])
        assert sub == "gain"
        assert params["n_atoms"] == 1000
        assert params["atom_mass_kg"] == pytest.approx(1.4431e-25)
        assert params["omega_x_hz"] == 20.0
        assert params["omega_y_hz"] == 20.0
        assert params["omega_z_hz"] == 100.0
        assert manifest["tool"] == "braggtrap"
        assert manifest["subcommand"] == "gain"
        assert manifest["parameters"]["scattering_length_m"] == pytest.approx(5.2e-9)

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_atoms = 1000\n")
        _, params, _ = parse_config(["gain", "--config", str(cfg), "--n-atoms", "100"])
        assert params["n_atoms"] == 100

    def test_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nomega_z_hz = 250  # trailing comment\n")
        _, params, _ = parse_config(["gain", "--config", str(cfg)])
        assert params["omega_z_hz"] == 250.0

    def test_unknown_key_is_hard_error(self, tmp_path):
        from braggtrap.cli import UsageError

        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_q_hz = 10\n")
        with pytest.raises(UsageError, match="omega_q_hz"):
            parse_config(["gain", "--config", str(cfg)])

    def test_negative_frequency_names_key(self, tmp_path):
        from braggtrap.cli import UsageError

        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_z_hz = -5\n")
        with pytest.raises(UsageError, match="omega_z_hz"):
            parse_config(["gain", "--config", str(cfg)])

    def test_unparsable_number(self):
        from braggtrap.cli import UsageError

        with pytest.raises(UsageError, match="n_atoms"):
            parse_config(["gain", "--n-atoms", "many"])


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(["gain", "--n-atoms", "-3"], capsys)
        assert code == 1
        assert "n_atoms" in err

    def test_numerical_failure_is_two(self, capsys):
        # beta = pi/2 makes the slope vanish: a numerical failure, not usage
        code, _, err = run_cli(["gain", "--beta-rad", str(math.pi / 2)], capsys)
        assert code == 2
        assert "slope" in err or "numerical" in err

    def test_huge_finite_tau_gives_result_or_clean_error(self, capsys):
        # tau * m^2 and 2 tau overflow unless tau is reduced by its period
        for n in ("3", "1000"):
            code, _, err = run_cli(["gain", "--tau", "1e308", "--n-atoms", n], capsys)
            assert code in (0, 2), n
            assert err == "" or err.startswith("braggtrap:"), err

    def test_non_finite_numbers_are_usage_errors(self, capsys):
        for args in (["scan-m", "--m-values", "nan"], ["scan-m", "--m-values", "inf"],
                     ["gain", "--tau", "nan"],
                     ["tau", "--sweep", "gamma", "--sweep-values", "nan"]):
            code, _, err = run_cli(args, capsys)
            assert code == 1, args
            assert "finite" in err

    def test_bad_scan_trap_m_is_usage_error(self, capsys):
        for args in (["--m-values", "0.3"], ["--m-values=-1,-2"], ["--m-values=0"]):
            code, _, err = run_cli(["scan-trap", *args], capsys)
            assert code == 1, args
            assert "m_values" in err

    def test_out_of_range_values_are_usage_errors(self, capsys):
        for args, key in (
            (["scan-trap", "--sweep", "gamma", "--sweep-values=-1"], "sweep_values"),
            (["husimi", "--n-polar", "1"], "n_polar"),
        ):
            code, _, err = run_cli(args, capsys)
            assert code == 1, args
            assert key in err

    def test_degenerate_squeeze_is_numerical_failure(self, capsys):
        # at N = 2, tau = pi/2 the twisted state has no mean spin
        code, _, err = run_cli(["squeeze", "--n-atoms", "2", "--tau-min", repr(math.pi / 2),
                                "--tau-max", repr(math.pi / 2), "--tau-steps", "1"], capsys)
        assert code == 2
        assert "mean spin length" in err

    def test_collapsed_mean_spin_is_numerical_failure(self, capsys):
        # tau = 93.8: xi would be a ratio of rounding noise (1.33e+53)
        code, out, err = run_cli(["gain", "--from-trap", "--omega-z-hz", "1e-6"], capsys)
        assert code == 2
        assert out == ""
        assert "mean spin length" in err

    def test_unrepresentable_trap_is_usage_error(self, capsys):
        # each overflowed or divided by an underflowed zero inside the trap
        # scales, and the sweep's gamma^2 overflows tau_closed_form too
        for args, key in (
            (["gain", "--from-trap", "--omega-z-hz", "1e300"], "omega_z"),
            (["gain", "--from-trap", "--omega-z-hz", "1e-300"], "omega_z"),
            (["tau", "--sweep", "gamma", "--sweep-values", "1e300"], "sweep_values"),
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 1, args
            assert out == ""
            assert err.startswith("braggtrap: error:") and key in err, err
            assert "Traceback" not in err

    def test_unrepresentable_interrogation_is_usage_error(self, capsys):
        # the interrogation amplitude divides by an underflowed M omega_z_tilde,
        # the gravity phase squares omega_z_tilde, and a^2 squares the
        # separation over the width
        for args, key in (
            (["--omega-z-tilde-hz", "1e-300"], "omega_z_tilde"),
            (["--omega-z-tilde-hz", "1e300"], "omega_z_tilde"),
            (["--k0-inv-m", "1e300"], "k0"),
        ):
            code, out, err = run_cli(["gain", "--from-trap", "--n-atoms", "10", *args], capsys)
            assert code == 1, args
            assert out == ""
            assert err.startswith("braggtrap: error:") and key in err, err

    def test_tau_runs_without_the_gravity_phase(self, capsys):
        # omega_z_tilde^2 overflows the gravity phase, which tau never uses;
        # its interrogation scales stay finite
        code, out, err = run_cli(["tau", "--omega-z-tilde-hz", "1e200", "--sweep", "gamma",
                                  "--sweep-values", "1"], capsys)
        assert code == 0, err
        assert out.count("\n") >= 1 and "nan" not in out

    def test_huge_husimi_grid_is_usage_error(self, capsys, monkeypatch):
        from braggtrap import dicke

        def small(allocate):
            def checked(shape, *args, **kwargs):
                if np.prod(shape, dtype=float) > 1e6:
                    raise AssertionError("an over-limit Husimi grid must not start")
                return allocate(shape, *args, **kwargs)
            return checked

        # the sequence before the grid allocates small arrays only
        monkeypatch.setattr(dicke.np, "empty", small(np.empty))
        monkeypatch.setattr(dicke.np, "zeros", small(np.zeros))
        code, out, err = run_cli(["husimi", "--n-atoms", "4", "--n-polar", "100000",
                                  "--n-azimuth", "100000"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("braggtrap: error:") and "Husimi grid" in err, err

    def test_huge_step_count_is_usage_error(self, capsys, monkeypatch):
        from braggtrap import dicke

        def small(count):
            def checked(start, stop, num=50, *args, **kwargs):
                if num > 1e6:
                    raise AssertionError("an over-limit sweep must not start")
                return count(start, stop, num, *args, **kwargs)
            return checked

        monkeypatch.setattr(np, "linspace", small(np.linspace))
        for command, key in (("squeeze", "tau_steps"), ("fringe", "theta_steps")):
            flag = "--" + key.replace("_", "-")
            code, out, err = run_cli([command, "--n-atoms", "4", flag, "99999999999"], capsys)
            assert code == 1
            assert out == ""
            assert err.startswith("braggtrap: error:"), err
            assert key in err and str(dicke._EIGENSYSTEM_MAX_BYTES) in err, err

    @pytest.mark.parametrize("policy", ["fixed", "scan"])
    def test_flat_landscape_outcomes(self, capsys, policy):
        # at N = 1000, tau = 0.003 a strong interrogation twist leaves
        # <S_x>_out near zero at alpha = 0: above 1e-12 S the run reports a
        # flat landscape with beta = 0, below it the working point is
        # insensitive; the scan finds a sensitive alpha except at tau_tilde = 1
        args = ["optimize", "--n-atoms", "1000", "--tau", "0.003", "--alpha-policy", policy]
        code, out, _ = run_cli(args + ["--tau-tilde", "0.05"], capsys)
        assert code == 0
        result = json.loads(out)
        if policy == "fixed":
            assert result["flat_landscape"] and result["beta"] == 0.0
            assert 0.0 < result["gain"] < 1e-6
        else:
            assert not result["flat_landscape"] and result["gain"] > 0.1
        for tau_tilde in ("0.1", "1"):
            code, out, err = run_cli(args + ["--tau-tilde", tau_tilde], capsys)
            if policy == "scan" and tau_tilde == "0.1":
                assert code == 0 and not json.loads(out)["flat_landscape"]
            else:
                assert code == 2 and out == ""
                assert "insensitive working point" in err, err

    def test_huge_eigensystem_is_usage_error(self, capsys, monkeypatch):
        from braggtrap import dicke

        def never(*args, **kwargs):
            raise AssertionError("an over-limit eigensystem must not start")

        monkeypatch.setattr(dicke.np.linalg, "eigh", never)
        code, out, err = run_cli(["optimize", "--alpha-policy", "scan", "--n-atoms", "20000",
                                  "--tau", "0.001"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("braggtrap: error:")
        assert "n_atoms = 20000" in err
        assert str(dicke._EIGENSYSTEM_MAX_BYTES) in err

    def test_retired_alpha_search_keys_are_unknown(self, capsys, tmp_path):
        # the alpha search has no grid or tolerance knobs left
        code, out, err = run_cli(["optimize", "--alpha-policy", "scan", "--alpha-grid", "5"],
                                 capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage:") and "--alpha-grid" in err, err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_grid = 5\n")
        code, out, err = run_cli(["optimize", "--alpha-policy", "scan", "--config", str(cfg)],
                                 capsys)
        assert (code, out) == (1, "")
        assert err.startswith("braggtrap: error:") and "unknown key 'alpha_grid'" in err, err

    def test_success_is_zero(self, capsys):
        code, out, err = run_cli(["gain"], capsys)
        assert code == 0
        assert err == ""


class TestGainCommand:
    def test_trivial_gain_json(self, capsys):
        code, out, _ = run_cli(["gain", "--tau", "0", "--tau-tilde", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["gain"] == pytest.approx(1.0, abs=1e-9)
        assert payload["delta_theta"] == pytest.approx(1.0 / math.sqrt(1000), rel=1e-9)

    def test_from_trap(self, capsys):
        code, out, _ = run_cli(["gain", "--from-trap", "--beta-rad", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == pytest.approx(0.0014390983947411562, rel=1e-6)
        assert payload["tau_tilde"] == pytest.approx(0.0014390983947411562, rel=1e-6)


class TestScanCommands:
    def test_scan_m_headline(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            ["scan-m", "--m-values", "1,1.5,2", "--output", str(out_file)], capsys
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["m", "gamma", "omega_z_hz", "n_atoms", "tau", "tau_tilde",
                          "alpha_rad", "beta_rad", "gain", "gain_linear"]
        gains = [float(line.split(",")[8]) for line in lines[1:]]
        assert max(gains) == pytest.approx(3.5, abs=0.5)
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "scan-m"

    def test_scan_trap_smoke(self, capsys):
        code, out, _ = run_cli(
            ["scan-trap", "--sweep", "gamma", "--sweep-values", "0.2",
             "--m-values", "0.5", "--alpha-policy", "fixed"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["gamma"]) == pytest.approx(0.2, rel=1e-9)
        assert float(row["gain"]) > 1.0

    def test_tau_columns_ordered(self, capsys):
        code, out, _ = run_cli(["tau", "--sweep", "omega-z",
                                "--sweep-values", "50,100,200"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "omega_z_hz"
        idx_num = lines[0].split(",").index("tau_numeric")
        idx_closed = lines[0].split(",").index("tau_closed")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[idx_num]) <= float(cells[idx_closed])

    def test_squeeze_curve(self, capsys):
        code, out, _ = run_cli(
            ["squeeze", "--n-atoms", "200", "--tau-min", "0.001",
             "--tau-max", "0.05", "--tau-steps", "30"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,xi,xi_closed"
        xis = [float(line.split(",")[1]) for line in lines[1:]]
        closed = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(xis, closed, rtol=1e-6)
        assert min(xis) < 0.5


class TestCurveCommands:
    def test_fringe(self, capsys):
        code, out, _ = run_cli(
            ["fringe", "--n-atoms", "40", "--theta-steps", "9"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_rad,sz_mean,sz_var"
        for line in lines[1:]:
            theta, sz, var = map(float, line.split(","))
            assert sz == pytest.approx(-20.0 * math.sin(theta), abs=1e-8)
            # rotated coherent state: Var S_z = (S/2) cos^2(theta)
            assert var == pytest.approx(10.0 * math.cos(theta) ** 2, abs=1e-8)

    def test_husimi(self, capsys):
        code, out, _ = run_cli(
            ["husimi", "--n-atoms", "30", "--n-polar", "16", "--n-azimuth", "8"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "polar,azimuth,q_value"
        assert len(lines) == 1 + 16 * 8
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= 0.0 for v in values)

    def test_husimi_streams_its_rows(self, tmp_path):
        # 10^5 cells make a 5.4 MB file; rows are formatted as they are
        # written, so the traced peak stays below the file size
        import tracemalloc

        out = tmp_path / "q.csv"
        tracemalloc.start()
        try:
            code = main(["husimi", "--n-atoms", "4", "--n-polar", "200", "--n-azimuth", "500",
                         "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 5e6
        assert peak < 8e6, peak


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["fringe", "--n-atoms", "30", "--theta-steps", "11", "--tau", "0.05"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(first)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    # every command whose output comes from per-state rotations, which call
    # no BLAS, and two under --alpha-policy scan, whose alpha search does
    THREAD_RUNS = [
        ("gain.json", ["gain", "--from-trap"]),
        ("fixed.json", ["optimize", "--from-trap", "--alpha-policy", "fixed"]),
        ("alpha_h.json", ["optimize", "--from-trap", "--alpha-policy", "alpha-h"]),
        ("fringe.csv", ["fringe", "--from-trap"]),
        ("husimi.csv", ["husimi", "--from-trap"]),
        ("scan_m.csv", ["scan-m", "--m-values", "0.5,1"]),
        ("scan_trap.csv", ["scan-trap", "--sweep", "gamma", "--sweep-values", "0.5,1.5",
                           "--m-values", "0.5,1"]),
        ("scan.json", ["optimize", "--from-trap", "--alpha-policy", "scan"]),
        ("scan_trap_scan.csv", ["scan-trap", "--alpha-policy", "scan", "--n-atoms", "200",
                                "--sweep", "gamma", "--sweep-values", "0.5,1.5",
                                "--m-values", "0.5,1"]),
        # N odd keeps the sector's eigenbasis; N = 2 mod 4 splits it with no
        # zero mode
        ("scan_odd.json", ["optimize", "--from-trap", "--alpha-policy", "scan",
                           "--n-atoms", "201"]),
        ("scan_2mod4.json", ["optimize", "--from-trap", "--alpha-policy", "scan",
                             "--n-atoms", "202"]),
    ]

    def test_data_files_independent_of_blas_threads(self, tmp_path):
        # per-state rotations call no BLAS, so their bytes cannot depend on
        # how BLAS splits a sum over threads; the scan runs check that its
        # alpha search picks the same alpha either way
        code = ("import json, os, sys\n"
                "from braggtrap.cli import main\n"
                "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
                "sys.exit(max(main(a + ['--output', os.path.join(out, f)]) for f, a in runs))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        procs = []
        for threads in ("1", "2"):  # both at once: each mostly waits on imports
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            procs.append(subprocess.Popen(
                [sys.executable, "-c", code, str(out), json.dumps(self.THREAD_RUNS)],
                env=env, stderr=subprocess.PIPE, text=True))
        for proc in procs:
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
        for name, _ in self.THREAD_RUNS:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["fringe", "--n-atoms", "10", "--theta-steps", "9"], capsys)
        cell = out.strip().splitlines()[1].split(",")[0]
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 12


class TestDependencies:
    def test_commands_import_no_scipy(self, tmp_path):
        # scipy is a test dependency only: no command, the alpha scan and
        # the partial-window quadrature of tau included, may load it, nor
        # numpy.polynomial
        code = ("import sys\n"
                "from braggtrap.cli import main\n"
                "out = sys.argv[1]\n"
                "for name, args in (('gain', ['gain', '--from-trap']),\n"
                "                   ('scan', ['optimize', '--alpha-policy', 'scan']),\n"
                "                   ('tau', ['tau'])):\n"
                "    assert main(args + ['--n-atoms', '40', '--output', out + name]) == 0\n"
                "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
                "          or m.split('.')[:2] == ['numpy', 'polynomial']]\n"
                "assert not loaded, loaded\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path) + os.sep],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "gain").stat().st_size > 0
        assert (tmp_path / "scan").stat().st_size > 0
        assert (tmp_path / "tau").stat().st_size > 0


class TestHelp:
    def test_help_documents_units(self, capsys):
        code = main(["gain", "--help"])
        assert code == 0
        text = capsys.readouterr().out
        assert "Hz" in text
        assert "2*pi" in text
        assert "kg" in text
        assert "rad" in text

    def test_subcommand_required(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "subcommand" in err
