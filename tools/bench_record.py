"""Record a before/after benchmark file for two commits.

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD --out BENCH_x.json
    python3 tools/bench_record.py --parent HEAD~1 --pairs 5 --seed 11 --out BENCH_x.json

Both commits are exported with ``git archive`` into fresh directories, so
each side runs the committed files only.  The file records:

* every end-to-end metric of the four ``perfbench`` workloads, from
  ``--pairs`` alternating parent/change pairs (pair i uses seed
  ``--seed + i``; the side that runs first alternates), as per-run values,
  medians and quartiles per side, and the change's wins per metric;
* the wall time of ``polystar verify --all --json``, serial and with
  ``--jobs 2`` (median and every run of 7 samples, the two sides sampled
  in turn, the side that runs first alternating), the peak RSS of each of those runs (``serial_peak_rss_mb``,
  ``jobs2_peak_rss_mb`` and their ``_runs``; a pool's workers count, see
  :func:`timed`), whether the reports of the two sides are identical once
  ``cost.wall_ms`` is dropped, a per-report summary of how they differ
  (:func:`diff_reports`), and ``wall_ms_by_identity``: each serial run's
  ``cost.wall_ms`` summed by identity, the median over the samples;
* ``fuzz``: the status counts of a seeded ``catalog.fuzz`` of every id,
  in-domain and with ``outside=True`` (``FUZZ_TRIALS`` samples each, one
  process per side), by mode, id and side, and their diff
  (:func:`diff_fuzz`);
* ``probes``: the exit code and the last output line (stdout, else
  stderr) of each ``python -m polystar`` argv of ``PROBES`` on each tree,
  and ``moved``, the probes whose exit code differs (:func:`diff_probes`);
* the wall time and the summary line of the Tier-1 suite;
* the cold start of four ``python -m polystar`` commands (median of 5
  each, the two sides sampled in turn): ``list`` and ``--help``, which
  evaluate nothing; an EXACT ``verify PAN_XU --param ...``, which loads
  numpy but neither mpmath nor SciPy; and ``eval zetastar --s 2,2 --tol
  1e-8``, which loads all three and runs a float DP;
* ``src_lines``, the line count of ``src/polystar/*.py`` in each tree, and
  ``module_lines``, the count of each of those modules by file name;
* ``nproc`` and the Python, numpy and SciPy versions.

Everything runs one process at a time, so the pool of ``--jobs 2`` is the
only parallel part.  A full record takes about 25 minutes on 2 cores with
the default 3 pairs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact_grids", "series_ladders", "mean_kernels", "cli_pool")
COLD_START_SAMPLES = 5
COLD_START_COMMANDS = {
    "list": ["list"],
    "help": ["--help"],
    "verify_exact": ["verify", "PAN_XU", "--param", "n=6", "--param", "r=1",
                     "--param", "u=1,0", "--param", "m=1", "--param", "x=2",
                     "--param", "y=1"],
    "eval_zetastar": ["eval", "zetastar", "--s", "2,2", "--tol", "1e-8"],
}
VERIFY_ALL_SAMPLES = 7
VERIFY_ALL_RUNS = (("serial_s", []), ("jobs2_s", ["--jobs", "2"]))
# points at the edges of float64 (exact values that round to 1, tiny and
# huge ones, one past its range) and a scan of series points at small p,
# whose first rhs argument 1 - p rounds to, or lies close to, 1
PROBES = (
    ["verify", "INTRO_RED_R", "--param", "s=2", "--param", "a=-1/3", "--param", "p=3/4"],
    ["eval", "li", "--s", "2", "--x", "1.00000000000000000001"],
    ["eval", "listar", "--s", "2", "--x", "1.00000000000000000001"],
    ["eval", "li", "--s", "1", "--x", "0.99999999999999999999"],
    ["verify", "MEAN_INF_A", "--param", "s=1", "--param", "a=0.99999999999999999999"],
    ["verify", "AUX1", "--param", "n=2", "--param", "a=1e-30", "--param", "x=1e30"],
    ["verify", "AUX2", "--param", "n=1", "--param", "a=1e-30", "--param", "x=1e30"],
    ["verify", "AUX2", "--param", "n=2", "--param", "a=1e-30", "--param", "x=1e300"],
    ["verify", "AUX1", "--param", "n=1", "--param", "a=1", "--param", "x=1e400"],
    ["verify", "AUX2", "--param", "n=7", "--param", "a=1e30", "--param", "x=1/2"],
    ["eval", "listar", "--s", "2,1", "--x", "1e400,1"],
    # diverges, but its first prefix product is within the pairing slack
    ["eval", "listar", "--s", "2,1", "--x", "1.0000000001,1"],
    *(["verify", ident, *(arg for pair in fixed + [f"p={p}"] for arg in ("--param", pair))]
      for ident, fixed in (("INTRO_SERIES", ["s=2", "a=1"]), ("INTRO_SERIES", ["s=3", "a=1/2"]),
                           ("LI1_A1", ["shape=A:m=0;u="]))
      for p in ("1e-30", "1e-17", "1e-13", "1.01e-12", "1.1e-12", "2e-12", "1e-9")),
)
FUZZ_SEED = 5
FUZZ_TRIALS = 20
# one process: the status counts of every id's fuzz reports, by mode; an
# exception that ends a fuzz run counts once, as error:<its class>
FUZZ_SCRIPT = """if True:
    import json, sys
    from polystar import catalog
    seed, trials = int(sys.argv[1]), int(sys.argv[2])
    out = {}
    for mode in ("inside", "outside"):
        for entry in catalog.list_identities():
            counts = out.setdefault(mode, {}).setdefault(entry.id, {})
            try:
                statuses = [r.status for r in catalog.fuzz(entry.id, seed, trials,
                                                          outside=mode == "outside")]
            except Exception as exc:
                statuses = ["error:" + type(exc).__name__]
            for status in statuses:
                counts[status] = counts.get(status, 0) + 1
    print(json.dumps(out, sort_keys=True))
"""


def export(rev, dest):
    """Write the committed tree of ``rev`` into ``dest``; return its sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return sha


def env_for(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed(cmd, tree, stdout=subprocess.PIPE):
    """Run ``cmd`` in ``tree``; return (wall seconds, completed process).

    The process also carries ``peak_rss_mb``, the ``ru_maxrss`` that
    ``os.wait4`` reports for the child: the largest resident set of the
    child and of every descendant it reaped, such as a pool's workers.
    Linux starts the child's count at this process's own peak resident set
    (the memory the child shares until it execs), so it is a floor on the
    reading: start measured runs while this process is small.  Output goes
    through temporary files, so a large one cannot block the child while it
    is waited for.
    """
    with tempfile.TemporaryFile("w+") as err, tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=tree, env=env_for(tree), text=True, stderr=err,
                                 stdout=out if stdout is subprocess.PIPE else stdout)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(cmd, child.returncode, out.read(), err.read())
    # ru_maxrss is in KiB on Linux
    proc.peak_rss_mb = usage.ru_maxrss / 1024.0
    return wall, proc


def perfbench(tree, workload, seed):
    """One ``perfbench`` run; its metric values by name, and failures."""
    _, proc = timed([sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--trace", "0"], tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"], result["attempted"]


def summary(runs):
    """Median and quartiles of a list of numbers."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive") \
        if len(runs) > 1 else (runs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def bench_workloads(trees, pairs, seed0):
    out = {}
    for workload in WORKLOADS:
        per_side = {side: [] for side in trees}
        failed = {side: 0 for side in trees}
        seeds = []
        for i in range(pairs):
            seed = seed0 + i
            seeds.append(seed)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values, n_failed, _ = perfbench(trees[side], workload, seed)
                per_side[side].append(values)
                failed[side] += n_failed
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{side} wall_s {per_side[side][-1]['wall_s']:.3f}"
                              for side in trees), flush=True)
        metrics = {}
        for name in per_side["parent"][0]:
            entry = {side: summary([v[name] for v in per_side[side]]) for side in trees}
            # every end-to-end metric of the benchmark is lower-is-better
            entry["change_wins"] = sum(
                c[name] < p[name] for p, c in zip(per_side["parent"], per_side["change"]))
            metrics[name] = entry
        out[workload] = {"seeds": seeds, "failed": failed, "metrics": metrics}
    return out


def wall_ms_by_identity(rows):
    """The sum of ``cost.wall_ms`` over the reports of each identity (a
    report without one, such as a skip, adds 0)."""
    out = {}
    for row in rows:
        out[row["id"]] = out.get(row["id"], 0.0) + row.get("cost", {}).get("wall_ms", 0.0)
    return out


def verify_all(trees, workdir):
    """Wall time and peak RSS of ``verify --all --json`` on each tree,
    serial and with ``--jobs 2``: the median and every run of
    ``VERIFY_ALL_SAMPLES`` samples.  Each sample runs the two sides in
    turn, parent first in even samples and change first in odd ones, so
    that neither side always runs on a machine the other has just warmed
    (three samples could not tell a 5% shift from drift).  Every run's reports are kept in a file and read
    only after the last run, so that this process stays small while it
    starts the runs (see :func:`timed`): the serial runs give the median
    per-identity sum of ``cost.wall_ms``, and the first sample's reports
    say whether the ``--jobs 2`` ones match the serial ones.  Returns
    the record by side and each side's first serial reports without their
    wall times."""
    out = {side: {} for side in trees}
    paths = {}
    for i in range(VERIFY_ALL_SAMPLES):
        sides = list(trees.items())
        for label, extra in VERIFY_ALL_RUNS:
            for side, tree in sides if i % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, "-m", "polystar", "verify", "--all", "--json"] + extra
                path = os.path.join(workdir, f"verify-{side}-{label}-{i}.jsonl")
                paths[side, label, i] = path
                with open(path, "w") as fh:
                    wall, proc = timed(cmd, tree, stdout=fh)
                out[side].setdefault(f"{label}_runs", []).append(wall)
                out[side].setdefault(f"{label}_exits", []).append(proc.returncode)
                out[side].setdefault(_rss_key(label) + "_runs", []).append(proc.peak_rss_mb)
    reports = {side: {label: read_reports(paths[side, label, 0]) for label, _ in VERIFY_ALL_RUNS}
               for side in trees}
    for side, rec in out.items():
        sums = [wall_ms_by_identity(read_reports(paths[side, "serial_s", i]))
                for i in range(VERIFY_ALL_SAMPLES)]
        rec["wall_ms_by_identity"] = {
            ident: statistics.median(s.get(ident, 0.0) for s in sums) for ident in sums[0]}
        for label, _ in VERIFY_ALL_RUNS:
            rec[label] = statistics.median(rec[f"{label}_runs"])
            rec[_rss_key(label)] = statistics.median(rec[_rss_key(label) + "_runs"])
            for row in reports[side][label]:
                row.get("cost", {}).pop("wall_ms", None)
        serial = reports[side]["serial_s"]
        rec["reports"] = len(serial)
        rec["jobs_match_serial"] = _canonical(serial) == _canonical(reports[side]["jobs2_s"])
    return out, {side: reports[side]["serial_s"] for side in trees}


def read_reports(path):
    """The JSON reports of one ``verify --json`` run, one per line."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _rss_key(label):
    """``serial_peak_rss_mb`` for ``serial_s``, and so on."""
    return label.removesuffix("_s") + "_peak_rss_mb"


def _canonical(rows):
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def _report_key(row):
    return row["id"], json.dumps(row["params"], sort_keys=True)


def diff_reports(parent, change):
    """How the ``verify --all --json`` reports of a change differ from the
    parent's, paired by ``(id, params)``.

    Counts the reports whose ``status`` changed, whose ``cost.terms_*``
    changed and, for EXACT reports, whose ``lhs``/``rhs`` strings changed.
    The ``terms_*`` counters that changed are also counted one by one, as
    ``terms_fell`` and ``terms_rose`` and by identity (a missing counter
    counts as 0).
    For the other modes it counts the sides whose ``lhs``/``rhs`` string
    moved, by identity, with the largest absolute and relative move, the
    largest move as a fraction of the report's ``tolerance``
    (``max_tol_move``, the quantity the perfbench gate bounds) and the
    instance where each happens, and the ``err_*`` values that shrank.
    """
    old = {_report_key(row): row for row in parent}
    new = {_report_key(row): row for row in change}
    out = {"paired": 0, "unpaired": len(old.keys() ^ new.keys()),
           "status_changed": 0, "terms_changed": 0, "terms_fell": 0, "terms_rose": 0,
           "terms_by_identity": {}, "exact_sides_changed": 0,
           "numeric_sides_moved": 0, "moved_by_identity": {},
           "max_abs_move": None, "max_rel_move": None, "max_tol_move": None,
           "err_shrank": 0}
    for key in sorted(old.keys() & new.keys()):
        p, c = old[key], new[key]
        out["paired"] += 1
        out["status_changed"] += p["status"] != c["status"]
        terms = {k for k in list(p["cost"]) + list(c["cost"]) if k.startswith("terms_")}
        out["terms_changed"] += any(p["cost"].get(k) != c["cost"].get(k) for k in terms)
        for k in sorted(terms):
            before, after = p["cost"].get(k, 0), c["cost"].get(k, 0)
            if before != after:
                way = "fell" if after < before else "rose"
                out["terms_" + way] += 1
                out["terms_by_identity"].setdefault(p["id"], {"fell": 0, "rose": 0})[way] += 1
        if p["mode"] == "EXACT":
            out["exact_sides_changed"] += (p["lhs"], p["rhs"]) != (c["lhs"], c["rhs"])
            continue
        for side in ("lhs", "rhs"):
            if p[side] == c[side] or p[side] is None or c[side] is None:
                continue
            out["numeric_sides_moved"] += 1
            out["moved_by_identity"][p["id"]] = out["moved_by_identity"].get(p["id"], 0) + 1
            before, after = float(p[side]), float(c[side])
            move = abs(after - before)
            rel = move / abs(before) if before else float("inf")
            per_tol = move / p["tolerance"] if p.get("tolerance") else float("inf")
            where = {"id": p["id"], "params": p["params"], "side": side}
            for name, amount in (("max_abs_move", move), ("max_rel_move", rel),
                                 ("max_tol_move", per_tol)):
                if out[name] is None or amount > out[name]["value"]:
                    out[name] = dict(where, value=amount)
        for side in ("err_lhs", "err_rhs"):
            if p[side] is not None and c[side] is not None:
                out["err_shrank"] += float(c[side]) < float(p[side])
    return out


def fuzz_statuses(tree, seed=FUZZ_SEED, trials=FUZZ_TRIALS):
    """The status counts of the seeded fuzz of every id on ``tree``:
    ``{mode: {id: {status: count}}}`` for the modes ``inside`` and
    ``outside``."""
    _, proc = timed([sys.executable, "-c", FUZZ_SCRIPT, str(seed), str(trials)], tree)
    if proc.returncode != 0:
        raise RuntimeError(f"fuzz sweep in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def diff_fuzz(parent, change):
    """Where the fuzz status counts of two sides differ: ``moved``, the
    number of reports whose status moved (per id, the counts the change
    gained), and ``by_id``, the two sides' counts of each (mode, id) that
    differs, keyed ``mode/id``."""
    out = {"moved": 0, "by_id": {}}
    for mode in sorted(parent.keys() | change.keys()):
        before, after = parent.get(mode, {}), change.get(mode, {})
        for ident in sorted(before.keys() | after.keys()):
            p, c = before.get(ident, {}), after.get(ident, {})
            if p != c:
                out["moved"] += sum(max(0, n - p.get(status, 0)) for status, n in c.items())
                out["by_id"][f"{mode}/{ident}"] = {"parent": p, "change": c}
    return out


def probes(tree):
    """The exit code and the last output line (of stdout, else of stderr)
    of each of ``PROBES`` on ``tree``, keyed by its argv joined by spaces."""
    out = {}
    for argv in PROBES:
        _, proc = timed([sys.executable, "-m", "polystar"] + argv, tree)
        lines = (proc.stdout.strip() or proc.stderr.strip()).splitlines()
        out[" ".join(argv)] = {"exit": proc.returncode, "last": lines[-1] if lines else ""}
    return out


def diff_probes(parent, change):
    """The probes whose exit code differs, with the two sides' records."""
    return {key: {"parent": parent[key], "change": change[key]} for key in parent
            if parent[key]["exit"] != change[key]["exit"]}


def tier1(tree):
    wall, proc = timed([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors"], tree)
    lines = [line for line in proc.stdout.strip().splitlines() if line.strip()]
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "exit": proc.returncode}


def cold_start(trees):
    """Cold start of each of ``COLD_START_COMMANDS`` on each tree, by
    command and side.  Each sample runs every command on the two sides in
    turn (parent, change, parent, ...) so that drift on the machine falls
    on both sides alike; a command that fails is an error, not a time."""
    runs = {name: {side: [] for side in trees} for name in COLD_START_COMMANDS}
    for _ in range(COLD_START_SAMPLES):
        for name, args in COLD_START_COMMANDS.items():
            for side, tree in trees.items():
                wall, proc = timed([sys.executable, "-m", "polystar"] + args, tree)
                if proc.returncode != 0:
                    raise RuntimeError(f"cold start {name} in {tree} exited "
                                       f"{proc.returncode}: {proc.stderr[-2000:]}")
                runs[name][side].append(wall)
    return {name: {side: {"median_s": statistics.median(r), "runs": r}
                   for side, r in by_side.items()}
            for name, by_side in runs.items()}


def module_lines(tree):
    """Newlines in each ``src/polystar/*.py`` under ``tree``, as ``wc -l``
    counts, by file name."""
    out = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "polystar", "*.py"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read().count(b"\n")
    return out


def src_lines(tree):
    """Newlines in ``src/polystar/*.py`` under ``tree``: the sum of
    :func:`module_lines`."""
    return sum(module_lines(tree).values())


def versions():
    out = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the baseline")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench-record-") as workdir:
        trees = {side: os.path.join(workdir, side) for side in ("parent", "change")}
        shas = {side: export(rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        record = {"commits": shas, "machine": versions(), "pairs": args.pairs,
                  "src_lines": {side: src_lines(trees[side]) for side in trees},
                  "module_lines": {side: module_lines(trees[side]) for side in trees}}
        record["workloads"] = bench_workloads(trees, args.pairs, args.seed)
        record["verify_all"], reports = verify_all(trees, workdir)
        print(f"verify --all: {record['verify_all']}", flush=True)
        record["verify_all"]["identical_without_wall_ms"] = (
            _canonical(reports["parent"]) == _canonical(reports["change"]))
        record["verify_all"]["diff"] = diff_reports(reports["parent"], reports["change"])
        fuzz = {side: fuzz_statuses(trees[side]) for side in trees}
        record["fuzz"] = {"seed": FUZZ_SEED, "trials": FUZZ_TRIALS, "counts": fuzz,
                          "diff": diff_fuzz(fuzz["parent"], fuzz["change"])}
        print(f"fuzz: {record['fuzz']['diff']}", flush=True)
        runs = {side: probes(trees[side]) for side in trees}
        record["probes"] = {"runs": runs, "moved": diff_probes(runs["parent"], runs["change"])}
        print(f"probes moved: {record['probes']['moved']}", flush=True)
        record["tier1"] = {side: tier1(trees[side]) for side in trees}
        print(f"tier-1: {record['tier1']}", flush=True)
        record["cold_start"] = cold_start(trees)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
