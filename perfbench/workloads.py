"""The four benchmark workloads: which identity instances each one sends.

An instance is ``(identity_id, params, tol)`` exactly as ``catalog.verify``
takes it.  Instances come only from the catalog's public functions
(``list_identities``, ``default_grid``); the benchmark never edits the
program.  The seed picks the ``series_ladders`` sample and the order in
which every in-process workload sends its instances.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict

from polystar import catalog
from polystar.compositions import Composition

WORKLOADS = ("exact_grids", "series_ladders", "mean_kernels", "cli_pool")

SERIES_IDS = ("INTRO_SERIES", "INTRO_RED_L", "INTRO_RED_R",
              "LI1_MAIN", "LI2_MAIN", "LI1_RED1", "LI2_RED1",
              "LI1_RED2", "LI2_RED2", "LI1_A1", "LI2_A1", "LI1_EX", "LI2_EX")
# share of the 1,275 series grid instances one sample holds (about 150)
SERIES_FRACTION = 150 / 1275

MEAN_INF_A_POINTS = ({"s": "2", "a": 0.5}, {"s": "2,1", "a": 0.5})

CLI_IDS = ("MEAN_EX2", "MEAN_INF_1", "LI1_EX", "LI2_EX", "LI1_A1", "LI2_A1")
CLI_JOBS = 2
CLI_ARGS = ("verify",) + CLI_IDS + ("--jobs", str(CLI_JOBS), "--json")


def instance_key(identity, params):
    """Stable text key of an instance; the same text ``polystar verify
    --json`` prints for its params."""
    return identity + "|" + json.dumps({k: str(v) for k, v in params.items()},
                                       sort_keys=True)


def grid(identity):
    """The identity's pinned grid as instances."""
    return [(identity, params, tol) for params, tol in catalog.default_grid(identity)]


def exact_ids():
    return [d.id for d in catalog.list_identities() if d.mode == "EXACT"]


def exact_grids():
    return [inst for ident in exact_ids() for inst in grid(ident)]


def series_grid():
    return [inst for ident in SERIES_IDS for inst in grid(ident)]


def series_sample(seed, reference):
    """Seeded stratified sample of the series grids.

    The grid is ordered by each instance's reference cost and cut into
    equal-count cost strata, one instance drawn per stratum from a seeded
    systematic start, so every seed draws the same number of instances from
    every cost range.  Each identity and ladder kind (``poly`` when a side
    runs a polynomial, extrapolated ladder, ``geo`` for geometric ladders
    only, ``none`` for closed-form sides, as the reference run recorded it)
    that the draw missed gets one seeded instance of its own.
    """
    rng = random.Random(f"series_ladders:{seed}")
    members = []
    for order, inst in enumerate(series_grid()):
        ref = reference[instance_key(inst[0], inst[1])]
        members.append((ref["ms"], order, (inst[0], ref["kind"]), inst))
    members.sort(key=lambda m: m[:2])
    k = round(len(members) * SERIES_FRACTION)
    step = len(members) / k
    start = rng.random() * step
    picked = [members[int(start + i * step)] for i in range(k)]
    by_stratum = defaultdict(list)
    for m in members:
        by_stratum[m[2]].append(m)
    drawn = {m[2] for m in picked}
    for stratum in sorted(by_stratum):
        if stratum not in drawn:
            picked.append(rng.choice(by_stratum[stratum]))
    return [m[3] for m in sorted(picked, key=lambda m: m[1])]


def mean_kernels():
    out = grid("MEAN_INF_1") + grid("MEAN_EX2")
    out += [("MEAN_INF_A", {"s": Composition.parse(p["s"]), "a": p["a"]}, None)
            for p in MEAN_INF_A_POINTS]
    return out + grid("AUX1") + grid("AUX2")


def cli_tasks():
    """The tasks ``polystar verify`` runs for ``CLI_ARGS``, in its order."""
    return [inst for ident in CLI_IDS for inst in grid(ident)]


def instances(workload, seed, reference):
    """The workload's instances in the order the client sends them.

    In-process workloads send them in a seeded random order, so every kind of
    instance is timed across the whole pass rather than in one contiguous
    window of it.  ``cli_pool`` keeps the CLI's own order.
    """
    if workload == "cli_pool":
        return cli_tasks()
    if workload == "exact_grids":
        out = exact_grids()
    elif workload == "series_ladders":
        out = series_sample(seed, reference)
    elif workload == "mean_kernels":
        out = mean_kernels()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}:order:{seed}").shuffle(out)
    return out
