"""One workload in one fresh process: set up, run the closed loop, check.

    python3 perfbench/worker.py --workload W --seed S --seconds T [--trace] [--setup-only]

Set-up imports polystar (which builds the identity registry), loads the
reference and generates the workload's instances, then prints ``READY`` so
the parent can time it.  The timed body is a single closed-loop client that
sends the next instance when the last one returns, in whole passes over
the workload: at least one, at least ``MIN_SAMPLES`` instance times (so the
p90 has ten samples beyond it), and more while another pass fits in ``T``
seconds.  With
``--trace`` one more pass runs under the tracer.  The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from polystar import catalog  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 100
OUT_DIR = os.path.join(HERE, "out")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
CLI_TIMEOUT_S = 150
MAX_LISTED_FAILURES = 20


class Pass:
    """Outcome of one pass over the workload."""

    def __init__(self):
        self.wall_s = 0.0
        self.instance_s = []
        self.outcomes = []       # (instance key, gate.outcome dict)
        self.terms = 0
        self.exit_code = 0


def _terms(cost):
    return cost.get("terms_lhs", 0) + cost.get("terms_rhs", 0)


def run_inprocess(insts):
    p = Pass()
    verify_results = []
    start = time.perf_counter()
    for ident, params, tol in insts:
        t0 = time.perf_counter()
        try:
            result = catalog.verify(ident, params, tol)
        except Exception as exc:  # noqa: BLE001
            # verify lets NonConvergenceError, BudgetExceededError,
            # RescaleRequiredError and ZeroDivisionError escape; one instance
            # must not abort the run, so each is named and counted as failed
            result = exc
        p.instance_s.append(time.perf_counter() - t0)
        verify_results.append(result)
    p.wall_s = time.perf_counter() - start
    for (ident, params, _), result in zip(insts, verify_results):
        key = workloads.instance_key(ident, params)
        if isinstance(result, Exception):
            p.outcomes.append((key, {"status": f"error:{type(result).__name__}"}))
        else:
            p.outcomes.append((key, gate.outcome(result)))
            p.terms += _terms(result.cost)
    return p


def run_cli(insts, trace_dir=None, cli_args=workloads.CLI_ARGS):
    p = Pass()
    cmd = [sys.executable, CLI_ENTRY]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    cmd += list(cli_args)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    p.wall_s = time.perf_counter() - start
    p.exit_code = proc.returncode
    rows = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            row = json.loads(line)
            rows[workloads.instance_key(row["id"], row["params"])] = row
    for ident, params, _ in insts:
        key = workloads.instance_key(ident, params)
        row = rows.get(key)
        if row is None:
            p.outcomes.append((key, {"status": "error:missing_from_cli_output"}))
            continue
        p.outcomes.append((key, gate.outcome_from_json(row)))
        p.instance_s.append(row["cost"].get("wall_ms", 0.0) / 1e3)
        p.terms += _terms(row["cost"])
    return p


def check_pass(p, reference, failures):
    """Gate every outcome of the pass; returns the number of failed instances."""
    failed = 0
    for key, got in p.outcomes:
        reason = gate.check(got, reference.get(key))
        status = got["status"]
        bad_status = status in ("fail", "not_converged") or status.startswith("error:")
        if reason is not None or bad_status:
            failed += 1
            if len(failures) < MAX_LISTED_FAILURES:
                failures.append(f"{key}: {reason or got['status']}")
    if p.exit_code != 0:
        failed += 1
        failures.append(f"cli exit code {p.exit_code}")
    return failed


def traced_pass(workload, insts, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    if workload == "cli_pool":
        trace_dir = tempfile.mkdtemp(prefix=f"cli_pool-{seed}-", dir=OUT_DIR)
        p = run_cli(insts, trace_dir)
        dumps = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
            with open(path) as fh:
                dumps.append(json.load(fh))
        return p, dumps
    t = tracer.Tracer().install()
    try:
        p = run_inprocess(insts)
    finally:
        t.uninstall()
    t.dump(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"))
    return p, [t.dump_dict()]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # the series sample is drawn from the reference's strata
    reference = None
    if args.workload == "series_ladders":
        reference = gate.load_reference("numeric")
    insts = workloads.instances(args.workload, args.seed, reference)
    print("READY", len(insts), flush=True)
    if args.setup_only:
        return 0
    if reference is None:
        reference = gate.load_reference(gate.reference_kind(args.workload))

    run = run_cli if args.workload == "cli_pool" else run_inprocess
    # each pass is gated as soon as it ends and its outcomes dropped, so the
    # peak RSS does not depend on the number of passes
    passes = []
    failures = []
    failed = attempted = 0
    start = time.perf_counter()
    while True:
        passes.append(run(insts))
        failed += check_pass(passes[-1], reference, failures)
        attempted += len(passes[-1].outcomes)
        passes[-1].outcomes = None
        if not passes[-1].instance_s:
            break  # nothing was measured; the gate reports why
        enough = sum(len(p.instance_s) for p in passes) >= MIN_SAMPLES
        if enough and time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    if args.workload == "cli_pool":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = sorted(t for p in passes for t in p.instance_s)
    result = {
        "instances": len(insts),
        "passes": [{"wall_s": p.wall_s, "task_sum_s": sum(p.instance_s),
                    "task_max_s": max(p.instance_s, default=0.0)} for p in passes],
        "instance_ms": {"n": len(samples),
                        "p50": statistics.median(samples) * 1e3 if samples else 0.0,
                        "p90": (statistics.quantiles(samples, n=10)[8] * 1e3
                                if len(samples) > 1 else 0.0)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if args.trace:
        p, dumps = traced_pass(args.workload, insts, args.seed)
        result["attempted"] += len(p.outcomes)
        result["failed"] += check_pass(p, reference, failures)
        result["traced_wall_s"] = p.wall_s
        result["traced_terms"] = p.terms
        result["layers"] = tracer.layer_stats(dumps)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
