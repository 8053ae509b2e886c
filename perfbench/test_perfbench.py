"""Self-tests of the benchmark: seeding, the result checker and BENCHMARK.json.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_TRAP = {"nu_z": 120.0, "gamma": 0.8, "m": 1.0}


def _cli(argv, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "braggtrap.cli", *argv, "--output", str(out)],
                   check=True, cwd=ROOT, env=env, timeout=120)
    return out


def _cli_task(name, seed=5):
    return next(t for t in workloads.task_list("cli-cold", seed) if t["name"] == name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_task_list(workload):
    assert workloads.task_list(workload, 5) == workloads.task_list(workload, 5)
    assert workloads.task_list(workload, 5) != workloads.task_list(workload, 6)


@pytest.mark.parametrize("name", ["gain", "husimi"])
def test_same_seed_byte_identical_cli_outputs(tmp_path, name):
    task = _cli_task(name)
    first = _cli(task["argv"], tmp_path / ("a_" + task["output"]))
    again = _cli(_cli_task(name)["argv"], tmp_path / ("b_" + task["output"]))
    assert first.read_bytes() == again.read_bytes()


def test_same_seed_identical_library_outputs():
    task = {"name": "n100", "n_atoms": 100, **SMALL_TRAP, "thetas": [-0.01, 0.02]}
    assert json.dumps(worker.n_point(task)) == json.dumps(worker.n_point(dict(task)))


def test_perturbed_n_sweep_result_fails():
    task = {"name": "n100", "n_atoms": 100, **SMALL_TRAP, "thetas": [-0.01, 0.02]}
    payload = json.loads(json.dumps(worker.n_point(task)))
    assert checks.check_n_sweep(task, payload) == []
    for mutate in (
        lambda p: p["fixed"].update(gain=p["fixed"]["gain"] * (1 + 1e-6)),
        lambda p: p["alpha_H"].update(beta=p["alpha_H"]["beta"] + 1e-3),
        lambda p: p["signal"][-1].__setitem__(1, p["signal"][-1][1] + 1e-3),
        lambda p: p["husimi"].update(values=[[2.0 * v for v in row]
                                             for row in p["husimi"]["values"]]),
    ):
        bad = copy.deepcopy(payload)
        mutate(bad)
        assert checks.check_n_sweep(task, bad)


def test_perturbed_joint_result_fails():
    task = {"name": "scan_trap.gamma", "n_atoms": 40, **SMALL_TRAP,
            "sweep": "gamma", "value": 0.6, "m": 1.0}
    payload = json.loads(json.dumps(worker.joint_point(task)))
    assert checks.check_joint_scan(task, payload) == []
    bad = copy.deepcopy(payload)
    bad["rows"][0]["gain"] *= 1 - 1e-6
    assert checks.check_joint_scan(task, bad)
    bad = copy.deepcopy(payload)
    bad["rows"][0]["alpha"] = 0.0
    bad["rows"][0]["gain"] = checks.stepwise_gain(40, bad["rows"][0]["tau"],
                                                  bad["rows"][0]["tau_tilde"], 0.0, 1.0)
    bad["rows"][0]["beta"] = 1.0
    assert checks.check_joint_scan(task, bad), "a sub-optimal point must fail the alpha=0 floor"


def test_perturbed_cli_result_fails(tmp_path):
    task = _cli_task("gain")
    path = _cli(task["argv"], tmp_path / task["output"])
    assert checks.check_cli(task, str(path)) == []
    data = json.loads(path.read_text())
    data["gain"] *= 1 + 1e-9
    path.write_text(json.dumps(data))
    assert checks.check_cli(task, str(path))

    task = _cli_task("squeeze")
    path = _cli(task["argv"], tmp_path / task["output"])
    assert checks.check_cli(task, str(path)) == []
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-8))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_cli(task, str(path))


def test_checker_counts_failures_and_changed_repeats():
    task = {"name": "n100", "n_atoms": 100, **SMALL_TRAP, "thetas": [0.01]}
    payload = json.loads(json.dumps(worker.n_point(task)))
    changed = copy.deepcopy(payload)
    changed["signal"][0][2] *= 1 + 1e-12
    lists = [{"tasks": [{"error": None, "output": payload}]},
             {"tasks": [{"error": None, "output": payload}]},
             {"tasks": [{"error": None, "output": changed}]},
             {"tasks": [{"error": "exit code 2", "output": None}]}]
    failures = run.check_lists("n-sweep", [task], lists)
    assert sorted(failures) == ["list 2 task 0 (n100)", "list 3 task 0 (n100)"]


def test_tail_latency_needs_ten_tasks_beyond():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail_latency([float(i) for i in range(1, 201)])
    assert pct == 90.0 and value == 180.0


def test_self_time_subtracts_children():
    proc = {"spans": [["optimize.optimize_beta", 0.0, 10.0, -1, 0, None],
                      ["dicke.apply_rotation", 2.0, 5.0, 0, 0, (1000, True, False)],
                      ["dicke.expectation", 6.0, 7.0, 0, 0, None]],
            "counts": {}, "eigensystem": [1, 0]}
    out = spans.summarize([proc])
    assert out["optimize.optimize_beta.self_s"] == 6.0
    assert out["dicke.apply_rotation.self_s"] == 3.0
    assert out["optimize.rotations_per_point"] == 1.0
    assert out["dicke.apply_rotation.call_s.n1000"] == 3.0
    assert out["dicke.apply_rotation.bytes_computed"] == spans.rotation_bytes(1000)


def test_benchmark_json_states_workloads_and_layer_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert [m["name"] for m in spec["per_layer"]] == spans.LAYER_METRICS
    names = set(workloads.WORKLOADS)
    for metrics, moves, on in spans.LAYERS:
        assert set(moves) <= set(e2e)
        assert on.startswith("all") or any(w in on for w in names)
