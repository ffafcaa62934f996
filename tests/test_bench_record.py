import importlib.util
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _row(ident, params, mode="NUMERIC", status="pass", lhs="1.0", rhs="1.0",
         err_lhs="1e-12", err_rhs="1e-12", tolerance=1e-8, **terms):
    return {"id": ident, "params": params, "mode": mode, "status": status,
            "lhs": lhs, "rhs": rhs, "err_lhs": err_lhs, "err_rhs": err_rhs,
            "tolerance": None if mode == "EXACT" else tolerance, "cost": dict(terms)}


def test_src_lines_counts_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "polystar"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3\n")
    # neither a non-Python file nor a subpackage module counts
    (pkg / "notes.txt").write_text("one\ntwo\n")
    (pkg / "sub").mkdir()
    (pkg / "sub" / "c.py").write_text("w = 4\n")
    assert bench_record.module_lines(str(tmp_path)) == {"a.py": 3, "b.py": 1}
    assert bench_record.src_lines(str(tmp_path)) == 4


def test_diff_reports_counts_each_kind_of_change():
    parent = [
        _row("EX", {"n": "1"}, "EXACT", lhs="1/2", rhs="1/2", err_lhs=None, err_rhs=None),
        _row("EX", {"n": "2"}, "EXACT", lhs="1/3", rhs="1/3", err_lhs=None, err_rhs=None),
        _row("NUM", {"a": "1"}, lhs="2.0", rhs="2.0000000001", tolerance=1e-12,
             terms_lhs=10, terms_rhs=5),
        _row("NUM", {"a": "2"}, lhs="0.5", err_rhs="1e-9", tolerance=1e-3, terms_rhs=7),
        _row("NUM", {"a": "3"}, status="skip", lhs=None, rhs=None,
             err_lhs=None, err_rhs=None),
        _row("GONE", {}),
    ]
    change = [
        # the order of the rows does not matter; the pairing is by (id, params)
        _row("NUM", {"a": "3"}, status="not_converged", lhs=None, rhs=None,
             err_lhs=None, err_rhs=None),
        _row("EX", {"n": "2"}, "EXACT", lhs="1/3", rhs="2/3", err_lhs=None, err_rhs=None),
        _row("EX", {"n": "1"}, "EXACT", lhs="1/2", rhs="1/2", err_lhs=None, err_rhs=None),
        _row("NUM", {"a": "1"}, lhs="2.0000000000000004", rhs="2.0000000001",
             tolerance=1e-12, terms_lhs=10, terms_rhs=6),
        _row("NUM", {"a": "2"}, lhs="0.5000001", err_lhs="1e-13",
             err_rhs="1e-10", tolerance=1e-3, terms_rhs=7),
        _row("NEW", {}),
    ]
    diff = bench_record.diff_reports(parent, change)
    assert diff["paired"] == 5
    assert diff["unpaired"] == 2
    assert diff["status_changed"] == 1
    assert diff["terms_changed"] == 1
    assert (diff["terms_fell"], diff["terms_rose"]) == (0, 1)
    assert diff["terms_by_identity"] == {"NUM": {"fell": 0, "rose": 1}}
    assert diff["exact_sides_changed"] == 1
    assert diff["numeric_sides_moved"] == 2
    assert diff["moved_by_identity"] == {"NUM": 2}
    assert diff["max_abs_move"] == {"id": "NUM", "params": {"a": "2"}, "side": "lhs",
                                    "value": 0.5000001 - 0.5}
    assert diff["max_rel_move"]["params"] == {"a": "2"}
    assert diff["max_rel_move"]["value"] == (0.5000001 - 0.5) / 0.5
    # a move of 4.4e-16 at tolerance 1e-12 outweighs 1e-7 at tolerance 1e-3
    assert diff["max_tol_move"] == {"id": "NUM", "params": {"a": "1"}, "side": "lhs",
                                    "value": (2.0000000000000004 - 2.0) / 1e-12}
    assert diff["err_shrank"] == 2


def test_diff_reports_identical_runs():
    rows = [_row("NUM", {"a": "1"}, terms_lhs=3),
            _row("EX", {}, "EXACT", lhs="1", rhs="1", err_lhs=None, err_rhs=None)]
    diff = bench_record.diff_reports(rows, [dict(r) for r in rows])
    assert diff["paired"] == 2
    assert diff["max_abs_move"] is None and diff["max_rel_move"] is None
    assert diff["max_tol_move"] is None
    assert all(diff[k] == 0 for k in ("unpaired", "status_changed", "terms_changed",
                                      "terms_fell", "terms_rose", "exact_sides_changed",
                                      "numeric_sides_moved", "err_shrank"))
    assert diff["terms_by_identity"] == {}


def test_diff_reports_counts_terms_by_counter():
    # a report whose counters move both ways counts once in terms_changed and
    # once per counter in terms_fell / terms_rose; a missing counter is 0
    parent = [_row("A", {"n": "1"}, terms_lhs=896, terms_rhs=10),
              _row("A", {"n": "2"}, terms_lhs=1344, terms_rhs=10),
              _row("B", {}, terms_lhs=5, terms_rhs=7),
              _row("C", {}, terms_lhs=4),
              _row("D", {}, terms_lhs=3)]
    change = [_row("A", {"n": "1"}, terms_lhs=512, terms_rhs=10),
              _row("A", {"n": "2"}, terms_lhs=768, terms_rhs=10),
              _row("B", {}, terms_lhs=4, terms_rhs=9),
              _row("C", {}, terms_lhs=4, terms_rhs=2),
              _row("D", {}, terms_lhs=3)]
    diff = bench_record.diff_reports(parent, change)
    assert diff["terms_changed"] == 4
    assert (diff["terms_fell"], diff["terms_rose"]) == (3, 2)
    assert diff["terms_by_identity"] == {"A": {"fell": 2, "rose": 0},
                                         "B": {"fell": 1, "rose": 1},
                                         "C": {"fell": 0, "rose": 1}}


def test_cold_start_samples_the_two_sides_in_turn(monkeypatch):
    order = []

    def timed(cmd, tree, stdout=None):
        command = cmd[3]
        order.append((command, tree))
        wall = {"list": 1.0, "--help": 3.0, "verify": 5.0, "eval": 7.0}[command]
        return wall + (tree == "c"), SimpleNamespace(returncode=0)

    monkeypatch.setattr(bench_record, "timed", timed)
    got = bench_record.cold_start({"parent": "p", "change": "c"})
    n = bench_record.COLD_START_SAMPLES
    assert order == [(command, tree) for command in ("list", "--help", "verify", "eval")
                     for tree in "pc"] * n
    assert got == {name: {"parent": {"median_s": wall, "runs": [wall] * n},
                          "change": {"median_s": wall + 1, "runs": [wall + 1.0] * n}}
                   for name, wall in (("list", 1.0), ("help", 3.0), ("verify_exact", 5.0),
                                      ("eval_zetastar", 7.0))}


def test_verify_all_records_the_peak_rss_of_each_run(monkeypatch, tmp_path):
    # per sample: serial then --jobs 2, parent first in samples 0 and 2 and
    # change first in sample 1
    peaks = iter([250.0, 120.0, 215.0, 110.0, 121.0, 247.0, 111.0, 216.0,
                  249.0, 119.0, 214.0, 109.0])

    def timed(cmd, tree, stdout=None):
        if stdout is not subprocess.DEVNULL:
            stdout.write(json.dumps({"id": "X", "params": {}, "cost": {}}) + "\n")
        return 1.0, SimpleNamespace(returncode=0, peak_rss_mb=next(peaks))

    monkeypatch.setattr(bench_record, "VERIFY_ALL_SAMPLES", 3)
    monkeypatch.setattr(bench_record, "timed", timed)
    out, _ = bench_record.verify_all({"parent": "p", "change": "c"}, str(tmp_path))
    parent, change = out["parent"], out["change"]
    assert parent["serial_peak_rss_mb_runs"] == [250.0, 247.0, 249.0]
    assert parent["jobs2_peak_rss_mb_runs"] == [215.0, 216.0, 214.0]
    assert change["serial_peak_rss_mb_runs"] == [120.0, 121.0, 119.0]
    assert change["jobs2_peak_rss_mb_runs"] == [110.0, 111.0, 109.0]
    assert (parent["serial_peak_rss_mb"], parent["jobs2_peak_rss_mb"]) == (249.0, 215.0)
    assert (change["serial_peak_rss_mb"], change["jobs2_peak_rss_mb"]) == (120.0, 110.0)


def test_timed_peak_rss_covers_a_reaped_grandchild(tmp_path):
    # timed() runs in a fresh small process, because a child's ru_maxrss
    # starts at its launcher's peak; the 48 MB live in a grandchild that the
    # timed child waits for, and a bare child stays below them
    grandchild = "b = b'x' * (48 * 2 ** 20)"
    child = (f"import subprocess, sys; subprocess.run([sys.executable, '-c', {grandchild!r}], "
             "check=True); print('done')")
    probe = (f"import importlib.util, json, sys; spec = importlib.util.spec_from_file_location("
             f"'bench_record', {bench_record.__file__!r}); "
             "br = importlib.util.module_from_spec(spec); spec.loader.exec_module(br); "
             "runs = [br.timed([sys.executable, '-c', c], '.')[1] for c in sys.argv[1:]]; "
             "print(json.dumps([[p.returncode, p.stdout, p.peak_rss_mb] for p in runs]))")
    out = subprocess.run([sys.executable, "-c", probe, child, "import sys; sys.exit(3)"],
                         cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    (code, stdout, big), (bare_code, _, bare) = json.loads(out)
    assert (code, stdout, bare_code) == (0, "done\n", 3)
    assert big >= 48 > bare


def test_cold_start_refuses_a_failed_command(monkeypatch):
    monkeypatch.setattr(bench_record, "timed", lambda cmd, tree, stdout=None:
                        (0.1, SimpleNamespace(returncode=2, stderr="error: boom")))
    with pytest.raises(RuntimeError, match="cold start list in p exited 2"):
        bench_record.cold_start({"parent": "p", "change": "c"})


def test_wall_ms_by_identity_sums_the_serial_reports():
    rows = [{"id": "MEAN_INF_A", "cost": {"wall_ms": 1701.5, "terms_rhs": 3}},
            {"id": "MEAN_INF_A", "cost": {}}]
    assert bench_record.wall_ms_by_identity(rows) == {"MEAN_INF_A": 1701.5}
    rows.append({"id": "MN1", "cost": {"wall_ms": 0.25}})
    assert bench_record.wall_ms_by_identity(rows) == {"MEAN_INF_A": 1701.5, "MN1": 0.25}


def test_verify_all_samples_the_two_sides_in_turn(monkeypatch, tmp_path):
    order = []
    # per sample: serial then --jobs 2, parent first in samples 0 and 2 and
    # change first in sample 1
    walls = iter([3.0, 30.0, 2.0, 20.0, 10.0, 1.0, 50.0, 5.0, 2.5, 25.0, 1.5, 15.0])

    def timed(cmd, tree, stdout=None):
        jobs = "--jobs" in cmd
        order.append((tree, jobs))
        if stdout is not subprocess.DEVNULL:
            for n in (1, 2):
                # the change's --jobs 2 run counts other terms than its serial run
                terms = n + (tree == "c" and jobs)
                stdout.write(json.dumps({"id": "X", "params": {"n": str(n)},
                                         "cost": {"wall_ms": 10.0 * n + jobs,
                                                  "terms_lhs": terms}}) + "\n")
        return next(walls), SimpleNamespace(returncode=0, peak_rss_mb=100.0)

    monkeypatch.setattr(bench_record, "VERIFY_ALL_SAMPLES", 3)
    monkeypatch.setattr(bench_record, "timed", timed)
    out, reports = bench_record.verify_all({"parent": "p", "change": "c"}, str(tmp_path))
    n = bench_record.VERIFY_ALL_SAMPLES
    parent_first = [("p", False), ("c", False), ("p", True), ("c", True)]
    change_first = [("c", False), ("p", False), ("c", True), ("p", True)]
    assert order == parent_first + change_first + parent_first
    parent, change = out["parent"], out["change"]
    assert (parent["serial_s_runs"], parent["serial_s"]) == ([3.0, 1.0, 2.5], 2.5)
    assert (parent["jobs2_s_runs"], parent["jobs2_s"]) == ([2.0, 5.0, 1.5], 2.0)
    assert (change["serial_s_runs"], change["serial_s"]) == ([30.0, 10.0, 25.0], 25.0)
    assert (change["jobs2_s_runs"], change["jobs2_s"]) == ([20.0, 50.0, 15.0], 20.0)
    assert parent["serial_s_exits"] == change["jobs2_s_exits"] == [0] * n
    # the serial runs' reports, summed by identity, and the first sample's
    # reports without wall times
    assert parent["wall_ms_by_identity"] == change["wall_ms_by_identity"] == {"X": 30.0}
    assert parent["reports"] == change["reports"] == 2
    assert parent["jobs_match_serial"] and not change["jobs_match_serial"]
    assert reports["parent"] == reports["change"] == [
        {"id": "X", "params": {"n": str(n)}, "cost": {"terms_lhs": n}} for n in (1, 2)]


def test_wall_ms_by_identity_is_the_median_of_the_serial_samples(monkeypatch, tmp_path):
    # a side's serial samples read X 5, 1, 3 ms and Y 1, 9, 2 ms; the
    # --jobs 2 runs do not count
    serial = {"p": iter([(5.0, 1.0), (1.0, 9.0), (3.0, 2.0)]),
              "c": iter([(2.0, 4.0), (8.0, 4.0), (6.0, 0.5)])}
    events = []

    def timed(cmd, tree, stdout=None):
        events.append("run")
        x, y = (100.0, 100.0) if "--jobs" in cmd else next(serial[tree])
        for ident, ms in (("X", x), ("Y", y)):
            stdout.write(json.dumps({"id": ident, "params": {}, "cost": {"wall_ms": ms}}) + "\n")
        return 1.0, SimpleNamespace(returncode=0, peak_rss_mb=100.0)

    read = bench_record.read_reports

    def recording_read(path):
        events.append("read")
        return read(path)

    monkeypatch.setattr(bench_record, "VERIFY_ALL_SAMPLES", 3)
    monkeypatch.setattr(bench_record, "timed", timed)
    monkeypatch.setattr(bench_record, "read_reports", recording_read)
    out, _ = bench_record.verify_all({"parent": "p", "change": "c"}, str(tmp_path))
    assert out["parent"]["wall_ms_by_identity"] == {"X": 3.0, "Y": 2.0}
    assert out["change"]["wall_ms_by_identity"] == {"X": 6.0, "Y": 4.0}
    # every report file is read after the last run has ended
    assert events[:12] == ["run"] * 12 and set(events[12:]) == {"read"}


def test_fuzz_statuses_count_each_id_in_both_modes(tmp_path):
    # a stub package: fuzz reports its mode's statuses, and its second id
    # raises, which counts once as an error
    pkg = tmp_path / "src" / "polystar"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "catalog.py").write_text(
        "from types import SimpleNamespace as NS\n"
        "def list_identities():\n"
        "    return [NS(id='B'), NS(id='A')]\n"
        "def fuzz(ident, seed, trials, outside=False):\n"
        "    if ident == 'A':\n"
        "        raise ValueError(ident)\n"
        "    status = 'not_converged' if outside else 'pass'\n"
        "    return [NS(status=status)] * trials + [NS(status='skip')] * seed\n")
    got = bench_record.fuzz_statuses(str(tmp_path), seed=1, trials=3)
    assert got == {"inside": {"A": {"error:ValueError": 1}, "B": {"pass": 3, "skip": 1}},
                   "outside": {"A": {"error:ValueError": 1},
                               "B": {"not_converged": 3, "skip": 1}}}


def test_fuzz_statuses_refuses_a_failed_sweep(tmp_path):
    pkg = tmp_path / "src" / "polystar"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "catalog.py").write_text("raise ImportError('no catalog')\n")
    with pytest.raises(RuntimeError, match=r"(?s)fuzz sweep .* exited 1: .*no catalog"):
        bench_record.fuzz_statuses(str(tmp_path))


def test_diff_fuzz_counts_the_moved_statuses():
    parent = {"inside": {"A": {"pass": 4}, "B": {"pass": 2, "fail": 2}},
              "outside": {"A": {"not_converged": 4}}}
    change = {"inside": {"A": {"pass": 4}, "B": {"pass": 2, "not_converged": 2}},
              "outside": {"A": {"not_converged": 3, "error:DomainError": 1}}}
    assert bench_record.diff_fuzz(parent, parent) == {"moved": 0, "by_id": {}}
    assert bench_record.diff_fuzz(parent, change) == {
        "moved": 3,
        "by_id": {"inside/B": {"parent": {"pass": 2, "fail": 2},
                               "change": {"pass": 2, "not_converged": 2}},
                  "outside/A": {"parent": {"not_converged": 4},
                                "change": {"not_converged": 3, "error:DomainError": 1}}}}
