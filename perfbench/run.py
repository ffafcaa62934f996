"""polystar benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload exact_grids --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from an extra traced pass.
Each workload runs in fresh processes (see ``worker.py``).  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give every metric with its unit and
sample count, and the run record.  The exit code is 1 when the correctness
gate fails and 2 when the program or the benchmark's files are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact_grids", "series_ladders", "mean_kernels", "cli_pool")
CLI_JOBS = 2
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "instance_ms_p50": "ms", "peak_rss_mb": "MB",
}
# Printed with its sample count but kept out of the result line: across
# seeds its quartile spread exceeds the largest bound a metric may have
# (see README.md, "Steadiness").
PRINTED_ONLY = {"instance_ms_p90": "ms"}
PER_LAYER = {f"{span}.{part}": unit for span in tracer.SPAN_NAMES
             for part, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "kernel.adaptive_quadrature.integrand_evals": "count",
    "chains.dp_chain_partials.points": "count",
    "chains.dp_q_coupled.cells": "count",
    "chains.adaptive_sum.levels": "count",
    "chains.adaptive_sum.converged_ratio": "ratio",
    "chains.adaptive_sum.useful_ratio": "ratio",
    "catalog.terms_ratio": "ratio",
    "cli.pool_busy_frac": "ratio",
    "cli.pool_idle_s": "s",
    "cli.longest_task_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
})


class BenchError(Exception):
    """The benchmark cannot run here (missing program, worker crash)."""


def _env():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _worker_cmd(workload, seed, seconds, *flags):
    return [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]


def _spawn_until_ready(cmd, deadline):
    """Start a worker; return (process, seconds until it printed READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith("READY"):
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up: {' '.join(cmd)}")
    if time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise BenchError("set-up ran past the run deadline")
    return proc, ready


def _finish(proc, deadline):
    """Wait for a started worker; return its remaining stdout lines."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def run_workload(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = _spawn_until_ready(
                _worker_cmd(workload, seed, seconds, "--setup-only"), deadline)
            _finish(proc, deadline)
            setups.append(ready)
    flags = ("--trace",) if trace else ()
    proc, ready = _spawn_until_ready(_worker_cmd(workload, seed, seconds, *flags), deadline)
    setups.append(ready)
    lines = _finish(proc, deadline)
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    res["setup_s"] = setups
    return res


def end_to_end(res):
    walls = [p["wall_s"] for p in res["passes"]]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "wall_s": statistics.median(walls),
        "instance_ms_p50": res["instance_ms"]["p50"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(workload, res):
    layers = dict(res["layers"])
    self_sum = layers.pop("self_sum_s")
    work = layers["chains.dp_chain_partials.points"] + layers["chains.dp_q_coupled.cells"]
    layers["catalog.terms_ratio"] = res["traced_terms"] / work if work else 0.0
    untraced = statistics.median(p["wall_s"] for p in res["passes"])
    traced = res["traced_wall_s"]
    if workload == "cli_pool":
        def med(fn):
            return statistics.median(fn(p) for p in res["passes"])
        layers["cli.pool_busy_frac"] = med(lambda p: p["task_sum_s"] / (CLI_JOBS * p["wall_s"]))
        layers["cli.pool_idle_s"] = med(lambda p: CLI_JOBS * p["wall_s"] - p["task_sum_s"])
        layers["cli.longest_task_s"] = med(lambda p: p["task_max_s"])
        layers["trace.accounted_frac"] = self_sum / (CLI_JOBS * traced)
    else:
        layers.update({"cli.pool_busy_frac": 0.0, "cli.pool_idle_s": 0.0,
                       "cli.longest_task_s": 0.0})
        layers["trace.accounted_frac"] = self_sum / traced
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers


def run_record(workload, seed, res):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "instances": res["instances"],
        "passes": len(res["passes"]), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": commit,
    }


def report(workload, seed, res, trace):
    """Print the readable lines for one workload; return its metrics."""
    if trace:
        values, units, shown = per_layer(workload, res), PER_LAYER, PER_LAYER
    else:
        values, units = end_to_end(res), END_TO_END
        values["instance_ms_p90"] = res["instance_ms"]["p90"]
        shown = dict(END_TO_END, **PRINTED_ONLY)
    notes = {
        "setup_s": f"median of {len(res['setup_s'])} fresh processes",
        "wall_s": f"median of {len(res['passes'])} passes",
        "instance_ms_p50": f"n={res['instance_ms']['n']}",
        "instance_ms_p90": f"n={res['instance_ms']['n']}",
    }
    print(f"== {workload} (seed {seed}): {res['instances']} instances, "
          f"{len(res['passes'])} passes, failed {res['failed']}/{res['attempted']}"
          f" (failed_ratio {res['failed'] / res['attempted']:.4g})")
    for name, unit in shown.items():
        print(f"  {name:44s} {values[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print("record " + json.dumps(run_record(workload, seed, res)))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polystar", "catalog.py")):
        print(f"error: no polystar sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    correct = True
    try:
        for workload in names:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            shown = report(workload, args.seed, res, bool(args.trace))
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["failed"] == 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
