"""semiprop benchmark: time to a certificate through the CLI, from outside.

    python3 perfbench/run.py --workload {ode,fields} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is taken from
``src/``).  Each repetition is a fresh interpreter (``worker.py``) that
imports ``semiprop.cli`` and runs the workload's CLI invocations back to
back: a closed loop with one client.  Repetitions continue until
``--seconds`` have passed; metrics are medians over repetitions.

Every invocation is checked: exit code 0, ``"pass": true`` in its
``report.json``, every expected output file present, well-formed CSV, and
output digests identical across repetitions of the run (traced ones
included).  A failed check counts the invocation as failed and makes
``correct`` false.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced repetitions and reports its per-layer
metrics; a layer or invocation the workload never reaches reads 0.  The
last stdout line is one JSON object; the lines before it are a readable
summary.  A full record (environment, every repetition, output digests)
goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# set-up samples per run, at least; a run with fewer repetitions adds probes
SETUP_SAMPLES = 7
# the trace run needs two: one untraced, one traced
MIN_REPETITIONS = 2
# every worker must be done by then, so the run ends within 180 s
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], deadline: float) -> float:
    """Run a worker to the end; return the seconds until it printed ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
    )
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - t0))[0]:
            raise subprocess.TimeoutExpired(proc.args, deadline - t0)
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within the run's time limit")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError("worker failed (exit {}):\n{}".format(proc.returncode, err[-3000:]))
    return setup


def _report_digest(path: Path) -> tuple[str, bool]:
    payload = json.loads(path.read_text())
    passed = payload.get("pass") is True
    payload.pop("runtime_seconds", None)
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest(), passed


def _csv_problem(path: Path) -> str:
    lines = path.read_text().splitlines()
    if len(lines) < 2:
        return "{} has no data rows".format(path.name)
    width = lines[0].count(",")
    if any(line.count(",") != width for line in lines[1:]):
        return "{} has ragged rows".format(path.name)
    return ""


def _check_outputs(inv: workloads.Invocation, out_dir: Path, exit_code) -> tuple[dict, list]:
    """Digests of an invocation's outputs and the problems found in them."""
    problems = []
    if exit_code != 0:
        problems.append("exit code {}".format(exit_code))
    digests = {}
    for rel in inv.outputs:
        path = out_dir / rel
        if not path.is_file():
            problems.append("missing " + rel)
            continue
        if path.name == "report.json":
            try:
                digests[rel], passed = _report_digest(path)
            except (ValueError, AttributeError) as exc:
                problems.append("unreadable {}: {}".format(rel, exc))
                continue
            if not passed:
                problems.append(rel + ' has "pass" other than true')
        else:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
            problem = _csv_problem(path)
            if problem:
                problems.append(problem)
    return digests, problems


def _repetition(invs, index: int, traced: bool, deadline: float) -> dict:
    rep_dir = OUT / "rep-{:03d}".format(index)
    shutil.rmtree(rep_dir, ignore_errors=True)
    job = []
    for n, inv in enumerate(invs):
        out_dir = rep_dir / "{:02d}".format(n)
        out_dir.mkdir(parents=True)
        argv = list(inv.argv) + ["--out", str(out_dir)]
        if inv.sweep_lines:
            sweep_file = out_dir / "sweep.txt"
            sweep_file.write_text("\n".join(inv.sweep_lines) + "\n")
            argv += ["--sweep", str(sweep_file)]
        job.append({"name": inv.name, "argv": argv})
    job_file, result_file = rep_dir / "job.json", rep_dir / "result.json"
    job_file.write_text(json.dumps({"trace": traced, "invocations": job}))
    setup = _spawn([str(job_file), str(result_file)], deadline)
    result = json.loads(result_file.read_text())
    result["setup_s"] = setup
    result["traced"] = traced
    for n, (inv, record) in enumerate(zip(invs, result["invocations"])):
        record["digests"], record["problems"] = _check_outputs(
            inv, rep_dir / "{:02d}".format(n), record["exit"]
        )
    shutil.rmtree(rep_dir)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _layer_metrics(reps: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions, or untraced where named."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def med(fn, pool):
        return _median([fn(r) for r in pool])

    def layer(name, key):
        return lambda r: r["trace"]["layers"].get(name, {}).get(key, 0.0)

    def per_step(name, steps):
        def fn(r):
            lay = r["trace"]["layers"].get(name, {})
            return 1e6 * lay["self_s"] / lay[steps] if lay.get(steps) else 0.0
        return fn

    def overlap(r):
        sweeps = [i["wall_s"] for i in r["invocations"] if i["name"].endswith(".sweep")]
        spans = sum(
            s for name, s in r["trace"]["run_scenario_s"].items() if name.endswith(".sweep")
        )
        return spans / sum(sweeps) if sweeps else 0.0

    m = {}
    for name in ALL_INVOCATIONS:
        m[name + ".wall_s"] = med(
            lambda r: sum(i["wall_s"] for i in r["invocations"] if i["name"] == name), plain
        )
    m["cli.cpu_per_wall"] = med(lambda r: r["cpu_s"] / r["wall_s"], plain)
    m["cli.sweep.overlap"] = med(overlap, traced)
    m["cli.main.self_s"] = med(layer("cli.main", "self_s"), traced)
    for name, keys in LAYER_KEYS.items():
        for key in keys:
            m["{}.{}".format(name, key)] = med(layer(name, key), traced)
    m["core.rk4_solve.us_per_step"] = med(per_step("core.rk4_solve", "steps"), traced)
    m["oracle.cn_evolve.us_per_step"] = med(per_step("oracle.cn_evolve", "steps"), traced)
    m["trace.wall_s"] = med(lambda r: r["wall_s"], traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - med(lambda r: r["wall_s"], plain)
    m["trace.attributed_share"] = med(lambda r: r["trace"]["main_layer_self_s"] / r["wall_s"], traced)
    return m


LAYER_KEYS = {
    "cli.run_scenario": ("calls", "self_s"),
    "core.rk4_solve": ("calls", "steps", "self_s"),
    "core.finite_difference": ("calls", "self_s"),
    "core.assemble_propagator": ("nodes", "self_s"),
    "quadratic.solve_prefactor_odes": ("calls", "self_s"),
    "cosmo.evolve_classical": ("calls", "self_s"),
    "oracle.cn_evolve": ("steps", "self_s"),
    "oracle.kernel_propagate": ("calls", "self_s", "bytes_computed"),
    "general_hj": ("self_s",),
    "lattice.lattice_greens_function": ("calls", "sites", "self_s", "bytes_computed"),
    "lattice.lattice_operator": ("calls", "self_s"),
    "lattice.functional_hj_residual": ("calls", "self_s"),
    "lattice.lattice_klein_gordon_check": ("steps", "self_s"),
    "report.write_csv": ("calls", "rows", "cells", "bytes", "self_s"),
    "report.write_json": ("self_s",),
}
ALL_INVOCATIONS = sorted(
    {inv.name for build in workloads.WORKLOADS.values() for inv in build(0)}
)


def _end_to_end(reps: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def _combined_digest(digests: dict) -> str:
    text = "\n".join("{} {}".format(k, digests[k]) for k in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "semiprop" / "cli.py").is_file():
        raise BenchError("no semiprop source under {}; run from a checkout".format(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    invs = workloads.WORKLOADS[workload](seed)
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + HARD_LIMIT_S
    _spawn(["--probe"], deadline)  # untimed: compiles bytecode, warms the file cache

    reps, setups, spent = [], [], []
    measure_from = time.perf_counter()
    # stop before a repetition that would likely end past --seconds
    while len(reps) < MIN_REPETITIONS or (
        time.perf_counter() - measure_from + _median(spent) <= seconds
    ):
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = _repetition(invs, len(reps), traced, deadline)
        spent.append(time.perf_counter() - t0)
        reps.append(rep)
        setups.append(rep["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(["--probe"], deadline))

    # determinism: every repetition of this run must produce the same outputs
    reference = {}
    attempted = failed = 0
    for rep in reps:
        for record in rep["invocations"]:
            attempted += 1
            for rel, digest in record["digests"].items():
                key = record["name"] + ":" + rel
                if reference.setdefault(key, digest) != digest:
                    record["problems"].append(rel + " differs from an earlier repetition")
            failed += bool(record["problems"])

    if trace:
        values = _layer_metrics(reps)
        declared = spec["per_layer"]
    else:
        values = _end_to_end([r for r in reps if not r["traced"]], setups)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(
            "metrics out of step with BENCHMARK.json: {}".format(
                sorted(set(values) ^ {m["name"] for m in declared})
            )
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    walls = [r["wall_s"] for r in reps if not r["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": reps[0]["environment"],
        "repetitions": [
            {k: v for k, v in r.items() if k != "environment"} for r in reps
        ],
        "setup_samples_s": setups,
        "output_digest": _combined_digest(reference),
        "output_digests": reference,
        "metrics": metrics,
    }
    name = "{}-seed{}-trace{}.json".format(workload, seed, int(trace))
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(
        "environment: python {python}, numpy {numpy}, scipy {scipy}, {blas} {blas_version} "
        "with {blas_threads} threads, {cpus_usable}/{cpu_count} cpus".format(**env)
    )
    q1, q3 = _quartiles(walls)
    print(
        "{} seed {}: {} repetitions of {} invocations, wall_s median {:.4f} s "
        "(q1 {:.4f}, q3 {:.4f})".format(workload, seed, len(reps), len(invs), _median(walls), q1, q3)
    )
    print("{:<44} {:>16.6g} ratio ({} of {} invocations failed)".format(
        "fail_ratio", failed / attempted, failed, attempted))
    for rep in reps:
        for inv in rep["invocations"]:
            for problem in inv["problems"]:
                print("FAILED {}: {}".format(inv["name"], problem))
                if inv["stderr"]:
                    print(inv["stderr"].rstrip())
    print("output digest: {}".format(record["output_digest"]))
    for key, metric in metrics.items():
        print("{:<44} {:>16.6g} {}".format(key, metric["value"], metric["unit"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
