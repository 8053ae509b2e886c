"""braggtrap benchmark: run one workload for a fixed time and check every result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is ``cli-cold``, ``joint-scan``, ``n-sweep`` or ``all`` (each in
turn).  The seed fixes the workload's task list (see ``workloads.py``); the
program sees only the generated inputs.  Each workload is a closed loop with
one client and one task in flight.  The run repeats the task list the whole
number of times that best fills S seconds, judged from the first repetition,
and at least once.  ``cli-cold`` runs each task as a fresh ``python -m braggtrap.cli``
process; the library workloads run each list in one warm worker process that
has imported braggtrap before timing starts.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
lists and reports the per-layer metrics of the traced lists (``spans.py``),
the import breakdown from ``python -X importtime`` in a cold process, and
the tracing overhead: traced minus untraced list wall time.

Set-up time is the median of several fresh interpreters timed from start
until ``import braggtrap.cli`` is done.  The first list's outputs are checked
with the oracles in ``checks.py``; every later list must reproduce them
exactly.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and the machine and run record.  Everything
a run writes goes under ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".runs"
SCHEMA = "braggtrap-perfbench/1"
SETUP_PROBES = 5
IMPORT_PROBES = 3
TASK_TIMEOUT_S = 60.0
LIST_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def _blas_threads_env() -> str:
    """OpenBLAS thread count for every process of the run, never above nproc."""
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", NPROC))
    except ValueError:
        wanted = NPROC
    return str(min(max(wanted, 1), NPROC))


os.environ["OPENBLAS_NUM_THREADS"] = _blas_threads_env()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait(cmd: list[str], env: dict, stderr_path: Path, timeout: float) -> str | None:
    """Run a child to completion; returns None on exit 0, else the failure."""
    with open(stderr_path, "wb") as err, subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return f"timed out after {timeout:.0f} s"
    if code:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return f"exit code {code}: {tail.strip()}"
    return None


def import_probe(env: dict) -> float:
    """Seconds from starting a fresh interpreter until ``import braggtrap.cli`` is done."""
    code = "import braggtrap.cli, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        got = proc.stdout.read(2)
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=TASK_TIMEOUT_S)
    if got != b"ok" or proc.returncode:
        raise BenchError("a fresh interpreter could not import braggtrap.cli")
    return elapsed


def import_breakdown(env: dict) -> dict:
    """Import times from ``python -X importtime`` in one cold process, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import braggtrap.cli"],
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=TASK_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("python -X importtime could not import braggtrap.cli")
    total = scipy_self = own_self = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module.startswith("braggtrap") and not name[1:].startswith(" "):
            total += int(cum_us) / 1e6
        if module == "scipy" or module.startswith("scipy."):
            scipy_self += int(self_us) / 1e6
        if module == "braggtrap" or module.startswith("braggtrap."):
            own_self += int(self_us) / 1e6
    return {"import.total_s": total, "import.scipy_s": scipy_self,
            "import.braggtrap_self_s": own_self}


def run_cli_list(tasks: list[dict], listdir: Path, env: dict, traced: bool) -> dict:
    """One pass over the CLI task list, one fresh process per task."""
    listdir.mkdir(parents=True)
    results = []
    start = perf_counter()
    for i, task in enumerate(tasks):
        argv = [*task["argv"], "--output", str(listdir / task["output"])]
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"),
                   str(listdir / f"spans{i}.json"), str(i), *argv]
        else:
            cmd = [sys.executable, "-m", "braggtrap.cli", *argv]
        t0 = perf_counter()
        error = _wait(cmd, env, listdir / f"stderr{i}.txt", TASK_TIMEOUT_S)
        results.append({"latency_s": perf_counter() - t0, "error": error,
                        "output": str(listdir / task["output"])})
    wall = perf_counter() - start
    trace = None
    if traced:
        trace = [json.loads((listdir / f"spans{i}.json").read_text(encoding="utf-8"))
                 for i in range(len(tasks)) if (listdir / f"spans{i}.json").exists()]
    written = [p for p in listdir.iterdir() if p.name.endswith((".csv", ".json"))
               and not p.name.startswith("spans")]
    return {"wall_s": wall, "tasks": results, "trace": trace,
            "bytes_out": sum(p.stat().st_size for p in written)}


def run_worker_list(workload: str, tasks: list[dict], listdir: Path, env: dict,
                    traced: bool) -> dict:
    """One pass over a library task list in one warm worker process."""
    listdir.mkdir(parents=True)
    tasks_path, out_path = listdir / "tasks.json", listdir / "out.json"
    tasks_path.write_text(json.dumps(tasks), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(tasks_path),
           str(out_path), "1" if traced else "0"]
    start = perf_counter()
    error = _wait(cmd, env, listdir / "stderr.txt", LIST_TIMEOUT_S)
    if error:
        lost = perf_counter() - start
        return {"wall_s": lost, "trace": None, "bytes_out": 0,
                "tasks": [{"latency_s": lost / len(tasks), "error": f"worker: {error}",
                           "output": None} for _ in tasks]}
    data = json.loads(out_path.read_text(encoding="utf-8"))
    return {"wall_s": data["wall_s"], "bytes_out": 0,
            "trace": [data["trace"]] if data["trace"] else None,
            "tasks": [{"latency_s": t["latency_s"], "error": t["error"],
                       "output": t["payload"]} for t in data["tasks"]]}


def run_list(workload: str, tasks: list[dict], listdir: Path, env: dict, traced: bool) -> dict:
    if workload == "cli-cold":
        return run_cli_list(tasks, listdir, env, traced)
    return run_worker_list(workload, tasks, listdir, env, traced)


def _same_output(workload: str, a, b) -> bool:
    if workload == "cli-cold":
        return Path(a).read_bytes() == Path(b).read_bytes()
    return a == b


def check_lists(workload: str, tasks: list[dict], lists: list[dict]) -> dict:
    """Failures by (list, task); the first good output of a task is checked
    with the oracles and every later one must reproduce it exactly."""
    import checks
    checker = {"cli-cold": checks.check_cli, "joint-scan": checks.check_joint_scan,
               "n-sweep": checks.check_n_sweep}[workload]
    failures = {}
    reference = [None] * len(tasks)
    for k, done in enumerate(lists):
        for i, (task, res) in enumerate(zip(tasks, done["tasks"])):
            if res["error"]:
                bad = [res["error"]]
            elif reference[i] is None:
                try:
                    bad = checker(task, res["output"])
                except Exception as exc:  # an unreadable output fails its task
                    bad = [f"check raised {exc!r}"]
                if not bad:
                    reference[i] = res["output"]
            elif not _same_output(workload, reference[i], res["output"]):
                bad = ["output differs from the first list's"]
            else:
                bad = []
            if bad:
                failures[f"list {k} task {i} ({task['name']})"] = bad
    return failures


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of p99.9, p99 and p90 with at least ten
    tasks beyond it (nearest rank), else the slowest task as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes or {"L2": "unknown", "L3": "unknown"}


def _blas_threads_used() -> int | None:
    """Threads numpy's OpenBLAS will use, read from the library itself."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(args) -> dict:
    import numpy
    import scipy
    import spans
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = {}
    for n in (100, 1000, 2000, 4000):
        b, f = spans.rotation_bytes(n), spans.rotation_flops(n)
        model[f"n{n}"] = {"eigenvector_matrix_mb": 8 * (n + 1) ** 2 / 1e6,
                          "bytes_computed_per_rotation": b,
                          "flops_per_rotation": f, "ops_per_byte": f / b}
    return {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": _git_commit(),
        "nproc": NPROC, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads_used() or int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_cache": _cache_sizes(),
        "rotation_model_computed": model,
    }


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(workload: str, tasks: list[dict], seconds: float, traced: bool, env: dict,
            rundir: Path) -> tuple[dict, dict, list[dict]]:
    """Run the workload; returns (metrics, notes, lists)."""
    import spans
    if not traced:
        setup = statistics.median(import_probe(env) for _ in range(SETUP_PROBES))
    lists: list[dict] = []

    def one_round():
        for mode in ((False, True) if traced else (False,)):
            done = run_list(workload, tasks, rundir / f"list{len(lists)}", env, mode)
            done["traced"] = mode
            lists.append(done)

    start = perf_counter()
    one_round()
    # a whole number of rounds, judged from the first, so that the count does
    # not flip with small changes in speed
    for _ in range(max(1, round(seconds / (perf_counter() - start))) - 1):
        one_round()
    plain = [d for d in lists if not d["traced"]]
    latencies = [t["latency_s"] for d in plain for t in d["tasks"]]
    notes = {"lists": len(plain), "tasks": len(latencies)}
    if not traced:
        tail, pct = tail_latency(latencies)
        notes.update(task_tail_percentile=pct, setup_probes=SETUP_PROBES)
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(d["wall_s"] for d in plain),
            "task_p50_s": statistics.median(latencies),
            "task_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
        }
        return metrics, notes, lists
    traced_lists = [d for d in lists if d["traced"]]
    metrics = _median_of([spans.summarize(d["trace"] or [], d["bytes_out"])
                          for d in traced_lists])
    metrics.update(_median_of([import_breakdown(env) for _ in range(IMPORT_PROBES)]))
    untraced_wall = statistics.median(d["wall_s"] for d in plain)
    traced_wall = statistics.median(d["wall_s"] for d in traced_lists)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    notes.update(traced_lists=len(traced_lists), traced_wall_s=traced_wall,
                 untraced_wall_s=untraced_wall)
    return metrics, notes, lists


def run_workload(args, spec: dict, env: dict) -> dict:
    """Measure, check and report one workload; returns its result object."""
    import workloads
    workload = args.workload
    rundir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    traced = args.trace == 1
    tasks = workloads.task_list(workload, args.seed)
    metrics, notes, lists = measure(workload, tasks, args.seconds, traced, env, rundir)
    failures = check_lists(workload, tasks, lists)
    attempted = sum(len(d["tasks"]) for d in lists)
    failed = len(failures)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}
    record = machine_record(args)
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} tasks)")
    print(f"  notes {json.dumps(notes, sort_keys=True)}")
    print(f"  record {json.dumps(record, sort_keys=True)}")
    for where, bad in failures.items():
        print(f"  FAILED {where}: {'; '.join(bad)}")
    (rundir / "result.json").write_text(json.dumps(
        {"result": result, "notes": notes, "record": record, "failures": failures,
         "lists": [{"wall_s": d["wall_s"], "traced": d["traced"],
                    "latencies_s": [t["latency_s"] for t in d["tasks"]]} for d in lists]},
        indent=1), encoding="utf-8")
    return result


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that the peak
    memory of its child processes is its own."""
    import workloads
    finals = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode:
            return proc.returncode
        finals[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in finals.values()),
        "attempted": sum(r["attempted"] for r in finals.values()),
        "failed": sum(r["failed"] for r in finals.values()),
        "metrics": {f"{w}.{k}": v for w, r in finals.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "braggtrap" / "__init__.py").is_file():
            raise BenchError(f"no braggtrap sources under {SRC}")
        if args.workload == "all":
            return run_all(args)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        import braggtrap
        if Path(braggtrap.__file__).resolve().parent != (SRC / "braggtrap").resolve():
            raise BenchError(f"braggtrap imported from {braggtrap.__file__}, not {SRC}")
        result = run_workload(args, spec, child_env())
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
