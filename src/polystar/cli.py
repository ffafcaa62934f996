"""Command-line front end: list the identity catalog, evaluate single
quantities, run the verification suite and fuzz identities.

Exit codes: 0 success (passes and skips only), 1 identity failure, 2 usage
error (a DomainError), 3 convergence failure (a NonConvergenceError too).

Only the commands that evaluate import the evaluating modules (and with
them numpy, mpmath and SciPy's recurrence core); ``list``, ``--help`` and a
usage error found while parsing load none of them; only ``verify --jobs``
imports the process pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog
from .compositions import Composition, ShapeBlocks
from .kernel import DomainError, EvalResult, NonConvergenceError, check_tolerance, fmt

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def _parse(convert, text, what):
    """``convert(text)``, a malformed value being a usage error."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"bad {what}: {text!r}") from exc


def _read_config(path):
    """Simple key=value overrides; unknown keys, # comments and lines
    without ``=`` are ignored."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc.strerror}") from exc
    pairs = (line.split("=", 1) for line in lines if "=" in line and line[0] != "#")
    return {key.strip(): value.strip() for key, value in pairs}


# config key -> (the attribute of its flag, parser, default); a command
# reads the keys of the flags it takes and no others
_RUN_SETTINGS = {
    "tolerance": ("tol", float, None),
    "seed": ("seed", int, 0),
    "jobs": ("jobs", int, 1),
}


def _resolve_run_config(args):
    """The run settings of the flags the command takes, by attribute: the
    flag, else the config key, else the default.  A config key is parsed
    and checked only when the command takes its flag."""
    cfg = _read_config(args.config) if args.config else {}
    settings = {}
    for key, (name, convert, default) in _RUN_SETTINGS.items():
        if not hasattr(args, name):
            continue
        value = _parse(convert, cfg[key], f"config {key}") if key in cfg else default
        if getattr(args, name) is not None:
            value = getattr(args, name)
        settings[name] = value
    if settings["tol"] is not None:
        check_tolerance(settings["tol"])
    if settings.get("jobs", 1) < 1:
        raise DomainError(f"jobs must be >= 1, got {settings['jobs']}")
    return settings


def _fmt_numeric(result: EvalResult):
    return f"{fmt(result.value, 12)} (err <= {fmt(result.error_estimate, 3)})"


# --param value parsers, by the identity's parameter type
_PARAM_PARSERS = {
    "int": int,
    "rational": Fraction,
    "float": lambda t: float(Fraction(t)),
    "composition": Composition.parse,
    "shape": ShapeBlocks.parse,
    "intlist": lambda t: tuple(int(v) for v in t.split(",") if v != ""),
}


def _parse_params(entry, pairs):
    types = entry.param_types
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise DomainError(f"--param expects key=value, got {pair!r}")
        key, text = pair.split("=", 1)
        if key not in types:
            raise DomainError(f"unknown parameter {key!r} for {entry.id}")
        params[key] = _parse(_PARAM_PARSERS.get(types[key], str), text,
                             f"parameter {key}")
    return params


def cmd_list(args):
    identities = catalog.list_identities()
    if args.mode:
        identities = [d for d in identities if d.mode.lower() == args.mode.lower()]
    if args.json:
        payload = [{"id": d.id, "mode": d.mode, "anchor": d.anchor,
                    "constraint": d.constraint_id,
                    "params": d.param_types} for d in identities]
        print(json.dumps(payload, indent=2))
    else:
        for d in identities:
            print(f"{d.id:16s} {d.mode:10s} {d.anchor}")
        print(f"{len(identities)} identities")
    return EXIT_OK


def cmd_eval(args):
    from . import exact, polylog

    kind = args.kind
    if args.tol is not None and kind not in ("listar", "zetastar"):
        raise DomainError(f"eval {kind} takes no --tol")
    run = _resolve_run_config(args)
    tol = run["tol"] if run["tol"] is not None else 1e-9

    def required(name):
        value = getattr(args, name)
        if value is None:
            raise DomainError(f"eval {kind} needs --{name}")
        return value

    def rational(name):
        return _parse(Fraction, getattr(args, name), f"--{name}")

    res = None
    if kind == "mhsv":
        print(exact.mhsv(required("k"), Composition.parse(args.s), rational("a")))
    elif kind == "mneimneh":
        print(exact.mneimneh_lhs(required("n"), Composition.parse(args.s),
                                 rational("a"), rational("p")))
    elif kind == "li":
        res = polylog.li(_parse(int, args.s, "--s"),
                         _parse(_PARAM_PARSERS["float"], args.x, "--x"))
    elif kind == "listar":
        xs = _parse(lambda t: tuple(Fraction(v) for v in t.split(",")), args.x, "--x")
        res = polylog.li_star(Composition.parse(args.s), xs, tol)
    elif kind == "zetastar":
        res = polylog.zeta_star(Composition.parse(args.s), tol)
    elif kind == "mean":
        print(exact.mean_lhs(required("n"), Composition.parse(args.s), rational("a")))
    else:
        raise DomainError(f"unknown eval kind {kind!r}")
    if res is None:
        return EXIT_OK
    print(_fmt_numeric(res))
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _load_evaluators(entries):
    """Import what evaluating ``entries`` needs, before the first task: so
    no instance's wall_ms books an import, and forked workers share the
    parent's pages.  That is ``exact`` (and numpy, through ``chains``) for
    any identity, and ``polylog`` (mpmath) with SciPy's recurrence core for
    one that is not EXACT; a run of EXACT identities loads neither."""
    from . import chains, exact  # noqa: F401

    if any(entry.mode != "EXACT" for entry in entries):
        from . import polylog  # noqa: F401

        chains.load_lfilter()


def _verify_task(task):
    identity, params, tol, outside = task
    return catalog.verify(identity, params, tol, outside=outside)


def _report_key(report):
    return (report.id, json.dumps({k: str(v) for k, v in report.params.items()},
                                  sort_keys=True))


def _print_reports(reports, as_json, verbose, summary):
    """Print each report: its JSON object with ``as_json``; else the text
    line (status, id, params, then |diff| and the reason when the report has
    them) of each report that did not pass, or of every report with
    ``verbose``, and then ``summary`` filled in with the count of each status
    and the ``total``.  Return the exit code: a fail gives 1, else a
    not_converged gives 3, else 0."""
    counts = dict.fromkeys(("pass", "fail", "skip", "not_converged"), 0)
    for report in reports:
        counts[report.status] += 1
        if as_json:
            print(json.dumps(report.to_json_dict()))
        elif report.status != "pass" or verbose:
            print(f"{report.status.upper():14s} {report.id} {report.params}"
                  + ("" if report.abs_diff is None else f" |diff|={report.abs_diff}")
                  + ("" if report.reason is None else f" ({report.reason})"))
    if not as_json:
        print(summary.format(total=len(reports), **counts))
    if counts["fail"]:
        return EXIT_FAIL
    return EXIT_NOT_CONVERGED if counts["not_converged"] else EXIT_OK


def cmd_verify(args):
    run = _resolve_run_config(args)
    tol_override, jobs = run["tol"], run["jobs"]
    ids = args.ids
    if args.all:
        ids = [d.id for d in catalog.list_identities()]
    if not ids:
        raise DomainError("give identity ids or --all")
    entries = [catalog.get_entry(i) for i in ids]

    tasks = []
    for entry in entries:
        ident = entry.id
        if args.param:
            params = _parse_params(entry, args.param)
            entry.check_params(params)
            tasks.append((ident, params, tol_override, args.outside))
        else:
            for params, grid_tol in entry.grid():
                tol = tol_override if tol_override is not None else grid_tol
                tasks.append((ident, params, tol, args.outside))

    _load_evaluators(entries)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        exact_ids = {entry.id for entry in entries if entry.mode == "EXACT"}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # a non-EXACT task can take seconds, so each one goes alone to
            # the next free worker, ahead of the EXACT tasks, which take
            # milliseconds and go eight to a chunk
            runs = [pool.map(_verify_task, [t for t in tasks if t[0] not in exact_ids],
                             chunksize=1),
                    pool.map(_verify_task, [t for t in tasks if t[0] in exact_ids],
                             chunksize=8)]
            reports = [report for run in runs for report in run]
    else:
        reports = [_verify_task(t) for t in tasks]
    reports.sort(key=_report_key)

    return _print_reports(reports, args.json, args.verbose,
                          "summary: {pass} pass, {fail} fail, {skip} skipped, "
                          "{not_converged} not converged ({total} total)")


def cmd_fuzz(args):
    run = _resolve_run_config(args)
    _load_evaluators([catalog.get_entry(args.id)])
    reports = catalog.fuzz(args.id, run["seed"], args.trials, run["tol"],
                           outside=args.outside)
    return _print_reports(reports, args.json, False,
                          f"fuzz {args.id}: {{pass}}/{{total}} pass")


def build_parser():
    # the flags of the commands that evaluate; each command takes only the
    # flags it reads
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--tol", type=float, help="tolerance override")

    parser = argparse.ArgumentParser(
        prog="polystar",
        description="Evaluate nested harmonic sums and multiple polylogarithms, "
                    "and verify their transformation identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the identity catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.add_argument("--mode", choices=["exact", "numeric", "quadrature"])
    p_list.set_defaults(fn=cmd_list)

    p_eval = sub.add_parser("eval", parents=[run], help="evaluate a single quantity")
    p_eval.add_argument("kind", choices=["mhsv", "mneimneh", "li", "listar",
                                         "zetastar", "mean"])
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--s", required=True)
    p_eval.add_argument("--a", default="1")
    p_eval.add_argument("--p", default="1")
    p_eval.add_argument("--x", default="1")
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", parents=[run], help="verify identities on their grids")
    p_verify.add_argument("ids", nargs="*")
    p_verify.add_argument("--jobs", type=int, help="parallel verification workers")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--param", action="append",
                          help="key=value; run a single instance instead of the grid")
    p_verify.add_argument("--outside", action="store_true",
                          help="skip domain gating; a rejected or divergent "
                               "evaluation is reported as not_converged (exit 3)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", parents=[run], help="deterministically sample and verify")
    p_fuzz.add_argument("id")
    p_fuzz.add_argument("--seed", type=int, help="fuzzing seed")
    p_fuzz.add_argument("--trials", type=int, default=20)
    p_fuzz.add_argument("--outside", action="store_true")
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
