"""Tests of the benchmark itself (not part of the Tier-1 suite):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- series_ladders sample ----------------------------------------------------

def test_series_sample_is_a_function_of_the_seed():
    ref = gate.load_reference("numeric")
    first = workloads.series_sample(7, ref)
    again = workloads.series_sample(7, ref)
    keys = [workloads.instance_key(i, p) for i, p, _ in first]
    assert keys == [workloads.instance_key(i, p) for i, p, _ in again]
    assert len(set(keys)) == len(keys)
    others = {tuple(workloads.instance_key(i, p) for i, p, _ in
                    workloads.series_sample(seed, ref)) for seed in range(1, 6)}
    assert len(others) > 1


def test_series_sample_covers_every_stratum():
    ref = gate.load_reference("numeric")
    strata = {(i, ref[workloads.instance_key(i, p)]["kind"])
              for i, p, _ in workloads.series_grid()}
    assert {i for i, _ in strata} == set(workloads.SERIES_IDS)
    assert {"poly", "geo"} <= {k for _, k in strata}
    for seed in (1, 2, 3):
        sample = workloads.series_sample(seed, ref)
        got = {(i, ref[workloads.instance_key(i, p)]["kind"]) for i, p, _ in sample}
        assert got == strata
        assert 140 <= len(sample) <= 170


# --- printed metrics match BENCHMARK.json ---------------------------------------

def _fake_result(trace):
    res = {
        "instances": 3, "attempted": 3, "failed": 0, "failures": [],
        "setup_s": [1.0, 1.1, 1.2],
        "passes": [{"wall_s": 2.0, "task_sum_s": 3.0, "task_max_s": 1.5}],
        "instance_ms": {"n": 3, "p50": 1.0, "p90": 2.0}, "peak_rss_mb": 100.0,
    }
    if trace:
        res["layers"] = tracer.layer_stats([tracer.Tracer().dump_dict()])
        res["traced_wall_s"] = 2.1
        res["traced_terms"] = 10
    return res


def _printed(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        metrics = run.report(workload, 1, _fake_result(trace), trace)
    return metrics, out.getvalue()


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark_json()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        for workload in run.WORKLOADS:
            metrics, text = _printed(workload, trace)
            assert {k: v["unit"] for k, v in metrics.items()} == declared
            shown = dict(declared, **({} if trace else run.PRINTED_ONLY))
            for name, unit in shown.items():
                assert any(line.split()[:1] == [name] and f" {unit} " in line
                           for line in text.splitlines()), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.CLI_JOBS == workloads.CLI_JOBS


# --- correctness gate --------------------------------------------------------------

def test_gate_rejects_changed_outcomes():
    exact_ref = {"status": "pass", "digest": "abc"}
    assert gate.check({"status": "pass", "digest": "abc"}, exact_ref) is None
    assert gate.check({"status": "pass", "digest": "abd"}, exact_ref)
    assert gate.check({"status": "fail", "digest": "abc"}, exact_ref)
    num_ref = {"status": "pass", "lhs": 1.0, "rhs": 1.0, "tol": 1e-8}
    assert gate.check({"status": "pass", "lhs": 1.0 + 5e-9, "rhs": 1.0}, num_ref) is None
    assert gate.check({"status": "pass", "lhs": 1.0 + 2e-8, "rhs": 1.0}, num_ref)
    assert gate.check({"status": "error:ZeroDivisionError"}, num_ref)
    assert gate.check({"status": "pass"}, None)


def test_escaping_exception_is_counted_not_raised(monkeypatch):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("singular fit")

    monkeypatch.setattr(worker.catalog, "verify", boom)
    inst = workloads.grid("MEAN_SUM_HK")[:2]
    p = worker.run_inprocess(inst)
    failures = []
    ref = gate.load_reference("exact")
    assert worker.check_pass(p, ref, failures) == 2
    assert "ZeroDivisionError" in failures[0]


# --- smoke runs over a slice of each workload ------------------------------------------

def _gate(p, kind):
    failures = []
    assert worker.check_pass(p, gate.load_reference(kind), failures) == 0, failures
    assert len(p.outcomes) > 0


def test_smoke_exact_grids_slice():
    insts = workloads.exact_grids()[::400]
    assert {i for i, _, _ in insts} >= {"MAIN_TRANSFORM", "PAN_XU"}
    _gate(worker.run_inprocess(insts), "exact")


def test_smoke_series_ladders_slice_traced():
    ref = gate.load_reference("numeric")
    sample = workloads.series_sample(1, ref)
    by_cost = sorted(sample, key=lambda i: ref[workloads.instance_key(i[0], i[1])]["ms"])
    insts = [i for kind in ("poly", "geo") for i in
             [i for i in by_cost if ref[workloads.instance_key(i[0], i[1])]["kind"] == kind][:3]]
    t = tracer.Tracer().install()
    try:
        p = worker.run_inprocess(insts)
    finally:
        t.uninstall()
    _gate(p, "numeric")
    stats = tracer.layer_stats([t.dump_dict()])
    assert stats["catalog.verify.calls"] == len(insts)
    assert stats["chains.dp_chain_partials.points"] > 0
    # uninstall restores every binding
    from polystar import catalog, polylog, chains
    assert not hasattr(catalog.verify, "__wrapped__")
    assert not hasattr(polylog.dp_chain_partials, "__wrapped__")
    assert polylog.dp_chain_partials is chains.dp_chain_partials


def test_smoke_mean_kernels_slice():
    insts = [i for i in workloads.mean_kernels() if i[0] in ("AUX1", "AUX2")][::9]
    _gate(worker.run_inprocess(insts), "numeric")


def test_smoke_cli_pool_slice(tmp_path):
    insts = workloads.grid("LI1_EX")
    p = worker.run_cli(insts, trace_dir=str(tmp_path),
                       cli_args=("verify", "LI1_EX", "--jobs", "2", "--json"))
    _gate(p, "numeric")
    dumps = [json.loads(f.read_text()) for f in tmp_path.glob("trace-*.json")]
    assert len(dumps) >= 2  # the CLI process and at least one pool worker
    stats = tracer.layer_stats(dumps)
    assert stats["catalog.verify.calls"] == len(insts)


# --- contract ----------------------------------------------------------------------

def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = _benchmark_json()["command"] + ["--workload", "exact_grids", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
