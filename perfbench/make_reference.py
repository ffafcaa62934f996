"""Record the per-instance reference outcomes the correctness gate compares
against.  Run once on the commit whose outputs define "correct":

    python3 perfbench/make_reference.py

It verifies every exact grid instance, the full series grids and the
mean_kernels instances in-process (about two minutes on two cores) and
writes ``perfbench/reference/{exact,numeric}.json.gz``.  Numeric entries also
carry the instance's reference time and ladder kind, which define the
``series_ladders`` strata; rewriting them changes which instances a seed
draws.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from polystar import catalog, chains  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _record_ladder_kinds(kinds):
    orig = chains.adaptive_sum

    def recording(evaluator, schedule, *args, **kwargs):
        kinds.add("poly" if schedule.extrapolate or kwargs.get("tail") == "polynomial"
                  else "geo")
        return orig(evaluator, schedule, *args, **kwargs)

    tracer.rebind(orig, recording)


def main():
    exact = {}
    for ident, params, tol in workloads.exact_grids():
        exact[workloads.instance_key(ident, params)] = gate.outcome(
            catalog.verify(ident, params, tol))

    kinds = set()
    _record_ladder_kinds(kinds)
    numeric = {}
    for ident, params, tol in workloads.series_grid() + workloads.mean_kernels():
        kinds.clear()
        start = time.perf_counter()
        report = catalog.verify(ident, params, tol)
        ms = (time.perf_counter() - start) * 1e3
        entry = gate.outcome(report)
        entry["ms"] = round(ms, 3)
        entry["kind"] = "poly" if "poly" in kinds else ("geo" if kinds else "none")
        numeric[workloads.instance_key(ident, params)] = entry
        print(f"{ident:14s} {entry['status']:6s} {ms:9.1f} ms {entry['kind']}",
              file=sys.stderr)

    for kind, data in (("exact", exact), ("numeric", numeric)):
        with gzip.GzipFile(gate.reference_path(kind), "wb", mtime=0) as fh:
            fh.write(json.dumps(data, sort_keys=True, indent=0).encode())
        print(f"{kind}: {len(data)} instances", file=sys.stderr)


if __name__ == "__main__":
    main()
