"""Correctness gate: compare each instance's outcome with the per-instance
reference recorded at commit 5937cdb, before the benchmark existed.

An outcome is ``{"status", "digest"}`` for exact identities (a digest of the
two rational sides) and ``{"status", "lhs", "rhs", "tol"}`` for numeric ones
(the sides as floats).  A run fails the gate on any status change or exact
digest change, or when a numeric side moves from its reference by more than
the instance's tolerance.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_FILES = {"exact": "exact.json.gz", "numeric": "numeric.json.gz"}


def reference_path(kind):
    return os.path.join(REFERENCE_DIR, REFERENCE_FILES[kind])


def load_reference(kind):
    with gzip.open(reference_path(kind), "rt") as fh:
        return json.load(fh)


def reference_kind(workload):
    return "exact" if workload == "exact_grids" else "numeric"


def digest(lhs, rhs):
    return hashlib.sha256(f"{lhs}|{rhs}".encode()).hexdigest()[:16]


def _side(value):
    return None if value is None else float(value)


def outcome(report):
    """The gate's view of an ``IdentityReport``."""
    if report.mode == "EXACT":
        return {"status": report.status,
                "digest": None if report.lhs is None else digest(report.lhs, report.rhs)}
    return {"status": report.status, "lhs": _side(report.lhs),
            "rhs": _side(report.rhs), "tol": report.tolerance}


def outcome_from_json(row):
    """The gate's view of one ``polystar verify --json`` line."""
    if row["mode"] == "EXACT":
        lhs = row["lhs"]
        return {"status": row["status"],
                "digest": None if lhs is None else digest(lhs, row["rhs"])}
    return {"status": row["status"], "lhs": _side(row["lhs"]),
            "rhs": _side(row["rhs"]), "tol": row["tolerance"]}


def check(got, ref):
    """None when ``got`` matches the reference entry ``ref``, else a reason."""
    if ref is None:
        return "no reference entry"
    if got["status"] != ref["status"]:
        return f"status {got['status']} != reference {ref['status']}"
    if "digest" in ref:
        if got.get("digest") != ref["digest"]:
            return "exact value changed"
        return None
    tol = ref["tol"]
    for side in ("lhs", "rhs"):
        g, r = got.get(side), ref[side]
        if (g is None) != (r is None):
            return f"{side} presence changed"
        if r is not None and not abs(g - r) <= tol:
            return f"{side} moved by {abs(g - r):.3g} > tol {tol:g}"
    return None
