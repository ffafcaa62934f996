import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

import polystar
from polystar import catalog, chains, cli
from polystar.cli import main

CLI = [sys.executable, "-m", "polystar.cli"]


def run_cli(args, **kw):
    return subprocess.run(CLI + args, capture_output=True, text=True, **kw)


def test_list_count(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "33 identities" in out


def test_list_json_and_mode_filter(capsys):
    assert main(["list", "--json", "--mode", "exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["mode"] == "EXACT" for entry in payload)
    assert any(entry["id"] == "MAIN_TRANSFORM" for entry in payload)


def test_eval_mhsv(capsys):
    assert main(["eval", "mhsv", "--k", "2", "--s", "2,1", "--a", "1"]) == 0
    assert capsys.readouterr().out.strip() == "11/8"


def test_eval_mneimneh(capsys):
    assert main(["eval", "mneimneh", "--n", "3", "--s", "2", "--a", "1",
                 "--p", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "73/72"


def test_eval_zetastar(capsys):
    assert main(["eval", "zetastar", "--s", "2,2", "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1.89406565")


def test_eval_li_negative_argument(capsys):
    assert main(["eval", "li", "--s", "2", "--x", "-1"]) == 0
    assert capsys.readouterr().out.startswith("-0.822467033")


def test_eval_mean(capsys):
    assert main(["eval", "mean", "--n", "3", "--s", "1", "--a", "1"]) == 0
    assert capsys.readouterr().out.strip() == "13/12"


def test_eval_listar(capsys):
    assert main(["eval", "listar", "--s", "1,1", "--x", "1/2,1"]) == 0
    assert capsys.readouterr().out.startswith("0.82246703")


def test_eval_listar_not_converged_exit(capsys):
    # tolerance below the double-precision ladder floor: honest exit 3
    assert main(["eval", "listar", "--s", "2,2", "--x", "1,1",
                 "--tol", "1e-14"]) == 3


def test_eval_listar_unpaired_is_usage_error(capsys):
    # prefix products 2 and 1.8 leave the unit disc: refused with one error
    # line and the usage exit, not the identity-failure exit or a traceback
    assert main(["eval", "listar", "--s", "1,1", "--x", "2,0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_single_identity(capsys):
    assert main(["verify", "MEAN_SUM_HK"]) == 0
    out = capsys.readouterr().out
    assert "50 pass" in out


def test_verify_param_instance(capsys):
    assert main(["verify", "LI1_EX", "--param", "d=2", "--param", "p=0.5"]) == 0
    out = capsys.readouterr().out
    assert "1 pass" in out


def test_verify_text_line_gives_the_reason(monkeypatch, capsys):
    # a Q-coupled ladder capped at N = 2,048 ends short of the samples a fit
    # needs; the text line says so, as the JSON report's reason does
    monkeypatch.setattr(polystar.polylog, "Q_MAX_N", 2048)
    assert main(["verify", "MEAN_INF_1", "--param", "s=3,3,3"]) == cli.EXIT_NOT_CONVERGED
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("NOT_CONVERGED  MEAN_INF_1 ")
    assert line.endswith(" (rhs did not converge: ladder ended at truncation_level 2048 "
                         f"with error estimate {line.split()[-1][:-1]})")
    assert main(["verify", "MEAN_INF_A", "--param", "s=1,1", "--param", "a=0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "SKIP           MEAN_INF_A {'s': Composition(parts=(1, 1)), 'a': Fraction(1, 2)} (left side diverges)"


def test_verify_json_roundtrip(capsys):
    assert main(["verify", "BINOM_RATIO", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(line) for line in lines]
    assert all(r["pass"] for r in reports)
    assert len(reports) == 325


def test_verify_unknown_id(capsys):
    assert main(["verify", "NO_SUCH_ID"]) == 2


def test_verify_usage_error(capsys):
    assert main(["verify"]) == 2


def test_verify_missing_param_is_usage_error(capsys):
    assert main(["verify", "INTRO_SERIES", "--param", "s=2", "--param", "p=1/2"]) == 2
    assert "missing parameter 'a'" in capsys.readouterr().err


def test_verify_missing_param_of_a_later_id_fails_before_any_work(monkeypatch, capsys):
    # every id's parameters are checked while the tasks are built, before
    # SciPy is loaded, the pool starts or the first instance runs
    def refuse(*args, **kw):
        raise AssertionError("work started")

    monkeypatch.setattr(catalog, "verify", refuse)
    monkeypatch.setattr(chains, "load_lfilter", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    argv = ["verify", "MEAN_SUM_HK", "DILCHER_A2", "--param", "n=3", "--jobs", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: missing parameter 'd' for DILCHER_A2\n")


@pytest.mark.parametrize("argv, config", [
    (["verify", "MEAN_SUM_HK", "--param", "n=abc"], None),
    (["eval", "li", "--s", "2", "--x", "abc"], None),
    (["verify", "AUX1", "--param", "n=2", "--param", "a=1", "--param", "x=1/0"], None),
    # exact values Python cannot print: an int past 4,300 digits
    (["verify", "AUX1", "--param", "n=2", "--param", "a=1", "--param", "x=1e5000"], None),
    (["eval", "li", "--s", "2", "--x", "1e5000"], None),
    (["eval", "listar", "--s", "2,1", "--x", "1e-5000,1"], None),
    (["eval", "mhsv", "--s", "2"], None),
    (["eval", "li", "--s", "2", "--x", "1/2"], False),
    (["verify", "MEAN_SUM_HK", "--param", "n=3", "--jobs", "0"], None),
    (["verify", "MEAN_SUM_HK", "--param", "n=3", "--jobs", "-1"], None),
    (["verify", "MEAN_SUM_HK", "--param", "n=3"], "jobs = 0\n"),
    (["fuzz", "DILCHER_CLASSIC", "--trials", "1"], "seed = x\n"),
    (["verify", "LI1_EX", "--param", "d=1", "--param", "p=0.5", "--tol", "nan"], None),
    (["verify", "LI1_EX", "--param", "d=1", "--param", "p=0.5", "--tol", "inf"], None),
    (["eval", "zetastar", "--s", "2", "--tol", "0"], None),
    (["fuzz", "DILCHER_CLASSIC", "--trials", "1"], "tolerance = nan\n"),
    (["eval", "li", "--s", "2", "--x", "1/2", "--tol", "1e-300"], None),
    (["eval", "mhsv", "--k", "2", "--s", "2,1", "--tol", "1e-8"], None),
    (["eval", "mneimneh", "--n", "3", "--s", "2", "--p", "1/2", "--tol", "1e-8"], None),
    (["eval", "mean", "--n", "3", "--s", "2", "--tol", "1e-8"], None),
    (["verify"], None),
    (["verify", "NO_SUCH_ID"], None),
    (["fuzz", "NO_SUCH_ID"], None),
], ids=["int-param", "eval-x", "zero-denominator", "unprintable-param", "unprintable-li-x",
        "unprintable-listar-x", "eval-without-k", "missing-config",
        "jobs-0", "jobs-negative", "config-jobs-0", "config-seed", "tol-nan", "tol-inf",
        "tol-0", "config-tol-nan", "eval-li-tol", "eval-mhsv-tol", "eval-mneimneh-tol",
        "eval-mean-tol", "verify-no-ids", "verify-unknown-id", "fuzz-unknown-id"])
def test_malformed_input_is_one_usage_error_line(tmp_path, capsys, argv, config):
    # config None: no --config, False: a --config file that does not exist
    if config is not None:
        path = tmp_path / "run.cfg"
        if config:
            path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["list", "--config", "run.cfg"], ["list", "--precision", "5"], ["list", "--tol", "1e-8"],
    ["list", "--seed", "1"], ["list", "--jobs", "-3"],
    ["eval", "li", "--s", "2", "--seed", "1"], ["eval", "li", "--s", "2", "--jobs", "2"],
    ["eval", "li", "--s", "2", "--precision", "200"],
    ["verify", "MEAN_SUM_HK", "--seed", "1"],
    ["fuzz", "DILCHER_CLASSIC", "--jobs", "4"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["eval", "li", "--s", "2", "--x", "1/2"], "jobs = 0\n"),
    (["verify", "MEAN_SUM_HK", "--param", "n=3"], "seed = x\n"),
], ids=["eval-jobs", "verify-seed"])
def test_config_key_a_command_does_not_read_is_not_checked(tmp_path, capsys, argv, config):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(argv + ["--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_fuzz_exit_code(capsys):
    assert main(["fuzz", "DILCHER_CLASSIC", "--trials", "5", "--seed", "11"]) == 0
    assert "5/5 pass" in capsys.readouterr().out


def test_fuzz_text_lines_give_the_reason(capsys):
    # outside its domain the sampler draws points whose prefix products
    # leave the unit disc; the text line says why, as the JSON report does
    args = ["fuzz", "INTRO_SERIES", "--outside", "--trials", "8", "--seed", "3"]
    assert main(args) == cli.EXIT_NOT_CONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("NOT_CONVERGED  INTRO_SERIES ")
    assert "(evaluation rejected: prefix products" in lines[0]
    assert main(args + ["--json"]) == cli.EXIT_NOT_CONVERGED
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reasons = [r["reason"] for r in reports if r["status"] != "pass"]
    assert [line[line.index(" (") + 2:-1] for line in lines[:-1]] == reasons


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "dp-vs-naive"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-6\nseed = 9\n")
    assert main(["eval", "zetastar", "--s", "2", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("1.644934")
    # the config key stays shared: a kind that reads no tolerance ignores it
    assert main(["eval", "li", "--s", "2", "--x", "-1", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("-0.822467033")


def test_scipy_is_loaded_at_the_first_float_gap_dp():
    # a fresh process: the test session has imported SciPy already
    script = """if True:
        import sys
        import polystar
        from polystar import cli
        loaded = ["scipy" in sys.modules]
        for argv in (["list"],
                     ["verify", "MN1", "--param", "n=3", "--param", "d=2",
                      "--param", "a=1/2", "--param", "p=1/3"],
                     ["eval", "zetastar", "--s", "2,2", "--tol", "1e-8"]):
            assert cli.main(argv) == 0
            loaded.append("scipy" in sys.modules)
        print(loaded, "scipy.signal" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # only the recurrence core is loaded: scipy.signal is never imported
    assert proc.stdout.strip().splitlines()[-1] == "[False, False, False, True] False"


EVALUATORS = ("exact", "polylog")


def _evaluators_loaded():
    return {name for name in EVALUATORS if f"polystar.{name}" in sys.modules}


@pytest.fixture
def unloaded_evaluators(monkeypatch):
    """The session has imported the evaluating modules already: take them
    out of ``sys.modules`` and the package for one test, so that a command
    imports them afresh (the originals are put back after it)."""
    for name in EVALUATORS:
        monkeypatch.delitem(sys.modules, f"polystar.{name}")
        monkeypatch.delattr(polystar, name)
    assert _evaluators_loaded() == set()


def test_commands_load_numpy_mpmath_and_scipy_only_where_they_evaluate():
    # a fresh process: the test session has imported all three already
    script = """if True:
        import contextlib, io, sys
        LIBS = ("numpy", "mpmath", "scipy")
        def loaded():
            return "".join("y" if lib in sys.modules else "n" for lib in LIBS)
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return cli.main(argv)
                except SystemExit as exc:
                    return exc.code
        import polystar
        from polystar import catalog, cli
        for entry in catalog.list_identities():
            list(catalog.default_grid(entry.id))
        steps = [loaded()]
        codes = [run(["list"]), run(["--help"]), run(["verify", "NO_SUCH_ID"])]
        steps.append(loaded())
        codes.append(run(["verify", "MN1", "--param", "n=3", "--param", "d=2",
                          "--param", "a=1/2", "--param", "p=1/3"]))
        steps.append(loaded())
        codes.append(run(["eval", "zetastar", "--s", "2,2", "--tol", "1e-8"]))
        steps.append(loaded())
        print(codes, steps)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # numpy, mpmath, SciPy after: the registry and its grids; list, --help
    # and a usage error; an EXACT verify; eval zetastar
    assert proc.stdout.split("\n")[-2] == "[0, 0, 2, 0, 0] ['nnn', 'nnn', 'ynn', 'yyy']"


def test_only_a_verify_pool_imports_the_process_pool():
    # a fresh process: list, a serial verify and eval never import
    # concurrent.futures; verify --jobs 2 imports it for its pool
    script = """if True:
        import contextlib, io, sys
        from polystar import cli
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        mn1 = ["verify", "MN1", "--param", "n=3", "--param", "d=2",
               "--param", "a=1/2", "--param", "p=1/3"]
        codes = [run(["list"]), run(["verify", "LI1_EX", "--param", "d=2",
                                     "--param", "p=1/2"]),
                 run(["eval", "zetastar", "--s", "2,2", "--tol", "1e-8"]), run(mn1)]
        before = "concurrent.futures" in sys.modules
        codes.append(run(mn1 + ["--jobs", "2"]))
        print(codes, before, "concurrent.futures.process" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] False True"


def test_the_package_api_resolves_lazily():
    # a fresh process: importing the package loads none of its modules
    script = """if True:
        import sys
        import polystar
        loaded = sorted(m for m in sys.modules if m.startswith("polystar."))
        names = polystar.__all__
        same = [name for name in names if getattr(polystar, name) is
                getattr(sys.modules[getattr(polystar, name).__module__], name)]
        star = {}
        exec("from polystar import *", star)
        from polystar import chains, kernel
        try:
            polystar.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        print(loaded, len(names), len(same), sorted(set(names) - set(star)),
              chains.PairingUnavailableError is kernel.PairingUnavailableError, unknown)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("[] 44 44 [] True "
                                   "module 'polystar' has no attribute 'no_such_name'")


@pytest.mark.parametrize("argv, preloaded, maps", [
    (["verify", "LI1_EX", "--param", "d=2", "--param", "p=0.5"], True,
     [(["LI1_EX"], 1), ([], 8)]),
    (["verify", "MN1", "--param", "n=3", "--param", "d=2", "--param", "a=1/2",
      "--param", "p=1/3"], False, [([], 1), (["MN1"], 8)]),
    (["verify", "EX_FIRST", "LI1_EX"], True, [(["LI1_EX"] * 6, 1), (["EX_FIRST"] * 8, 8)]),
], ids=["numeric", "exact", "mixed"])
def test_verify_pool_loads_scipy_before_the_fork(monkeypatch, capsys, unloaded_evaluators,
                                                 argv, preloaded, maps):
    # the forked workers share the parent's SciPy pages, and its evaluating
    # modules, only when they were loaded before the pool started; a run of
    # EXACT identities never loads SciPy or polylog.  The non-EXACT tasks
    # are mapped first, one per chunk, and the EXACT ones in chunks of
    # eight, in the same pool
    events, mapped, at_fork = [], [], []
    load = chains.load_lfilter

    def recording_load():
        events.append("load")
        return load()

    class RecordingPool:
        def __init__(self, max_workers):
            events.append("pool")
            at_fork.append(_evaluators_loaded())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            mapped.append(([task[0] for task in tasks], chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(chains, "load_lfilter", recording_load)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(argv + ["--jobs", "2"]) == 0
    assert events[:2] == (["load", "pool"] if preloaded else ["pool"])
    assert at_fork == [{"exact", "polylog"} if preloaded else {"exact"}]
    assert mapped == maps


@pytest.mark.parametrize("argv, preloaded", [
    (["verify", "LI1_EX", "--param", "d=2", "--param", "p=0.5"], True),
    (["verify", "MEAN_SUM_HK", "--param", "n=3"], False),
    (["fuzz", "LI1_EX", "--trials", "1"], True),
    (["fuzz", "DILCHER_CLASSIC", "--trials", "1"], False),
], ids=["verify-numeric", "verify-exact", "fuzz-numeric", "fuzz-exact"])
def test_serial_run_loads_scipy_before_the_first_instance(monkeypatch, capsys,
                                                         unloaded_evaluators, argv, preloaded):
    # no import is booked in the first instance's wall_ms; a run of EXACT
    # identities never loads SciPy or polylog
    events, at_first = [], []
    load, verify = chains.load_lfilter, catalog.verify

    def recording_load():
        events.append("load")
        return load()

    def recording_verify(*args, **kw):
        events.append("verify")
        at_first.append(_evaluators_loaded())
        return verify(*args, **kw)

    monkeypatch.setattr(chains, "load_lfilter", recording_load)
    monkeypatch.setattr(catalog, "verify", recording_verify)
    assert main(argv) == 0
    assert events[0] == ("load" if preloaded else "verify")
    assert ("load" in events) == preloaded
    assert at_first[0] == ({"exact", "polylog"} if preloaded else {"exact"})


def test_parallel_verify_subprocess():
    proc = run_cli(["verify", "MEAN_EX1", "--jobs", "2"])
    assert proc.returncode == 0
    assert "48 pass" in proc.stdout


# the six reduced identities at p = 0, where their argument 1 - 1/p is
# undefined: RED1 (INTRO_RED_L, LI*_RED1) and RED2 (INTRO_RED_R, LI*_RED2)
RED_AT_P0 = {
    "INTRO_RED_L": ["s=2"],
    "LI1_RED1": ["shape=A:m=0;u="],
    "LI2_RED1": ["shape=B:m=0;u=1"],
    "INTRO_RED_R": ["s=2", "a=0"],
    "LI1_RED2": ["shape=A:m=0;u=", "a=0"],
    "LI2_RED2": ["shape=B:m=0;u=1", "a=0"],
}


@pytest.mark.parametrize("outside", (False, True), ids=("in-domain", "outside"))
@pytest.mark.parametrize("ident", RED_AT_P0)
def test_reduced_identities_at_p_zero_skip_or_are_rejected(capsys, ident, outside):
    # p = 0 is outside every RED region, and the sides refuse it with a
    # DomainError: a skip (exit 0), or under --outside an evaluation
    # rejected (exit 3); never a traceback
    pairs = RED_AT_P0[ident] + ["p=0"]
    entry = catalog.get_entry(ident)
    params = cli._parse_params(entry, pairs)
    report = catalog.verify(ident, params, outside=outside)
    if outside:
        assert report.status == "not_converged"
        assert report.reason == (f"evaluation rejected: {ident} needs p != 0: "
                                 "its argument 1 - 1/p is undefined")
    else:
        assert (report.status, report.reason) == ("skip", "outside validity region")
    argv = ["verify", ident] + [arg for pair in pairs for arg in ("--param", pair)]
    assert main(argv + ["--outside"] * outside) == (3 if outside else 0)
    out = capsys.readouterr().out
    assert out.startswith("NOT_CONVERGED " if outside else "SKIP ")


# in-domain points whose rhs difference a p is lost when 1 - p + a p and
# 1 - p round to one float64
COLLAPSED = {
    "INTRO_SERIES": ["s=2", "a=1", "p=1e-30"],
    "LI1_EX": ["d=2", "p=1e-30"],
    "LI1_MAIN": ["shape=A:m=0;u=", "a=-1", "p=1e-30"],
    "LI2_A1": ["shape=B:m=0;u=1", "p=1e-17"],
}


@pytest.mark.parametrize("ident", COLLAPSED)
def test_a_collapsed_rhs_difference_is_not_converged(capsys, ident):
    # the float sides would read the lost difference as an exact zero and
    # report a fail; the report names the collapse and the CLI exits 3
    entry = catalog.get_entry(ident)
    params = cli._parse_params(entry, COLLAPSED[ident])
    assert entry.domain is None or entry.domain(params)[0]
    report = catalog.verify(ident, params)
    assert report.status == "not_converged"
    assert report.reason.startswith("NonConvergenceError: float64 rounding collapses "
                                    "the rhs difference")
    argv = ["verify", ident] + [arg for pair in COLLAPSED[ident] for arg in ("--param", pair)]
    assert main(argv) == 3
    assert capsys.readouterr().out.startswith(f"NOT_CONVERGED  {ident} ")


def test_an_eval_that_cannot_resolve_its_sum_exits_3(capsys):
    # the sum needs about 2e10 terms, past every ladder level; an exact
    # (s_1, x_1) = (1, 1) still diverges, a usage error
    assert main(["eval", "listar", "--s", "1,1", "--x", "0.999999999,0.9"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("not converged: ")
    assert "needs about 2.07e+10 terms" in err
    assert main(["eval", "listar", "--s", "1,1", "--x", "1,0.5"]) == 2
    assert "diverges" in capsys.readouterr().err


def test_reduced_identity_keeps_its_exact_zero():
    # RED2 at a = 1 - 1/p: both rhs arguments are equal exactly, so the
    # zero difference is right and the instance passes
    params = {"s": 2, "a": -1.0, "p": 0.5}
    report = catalog.verify("INTRO_RED_R", params)
    assert (report.status, report.rhs, report.err_rhs) == ("pass", 0.0, 0.0)
    assert main(["verify", "INTRO_RED_R", "--param", "s=2", "--param", "a=-1",
                 "--param", "p=1/2"]) == 0


def test_exit_code_failure_subprocess():
    # outside-domain single instance that diverges: exit communicates failure
    proc = run_cli(["verify", "INTRO_SERIES", "--param", "s=2", "--param",
                    "a=-1", "--param", "p=1.5", "--outside"])
    assert proc.returncode == 3


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "polystar", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "33 identities" in proc.stdout


def test_package_exports_resolve():
    names = polystar.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(polystar, name)] == []


def _status_report(ident, status):
    return catalog.IdentityReport(
        id=ident, params={"n": 3, "d": 1}, mode="EXACT", status=status,
        reason={"skip": "a domain", "not_converged": "a ladder"}.get(status),
        abs_diff={"pass": 0, "fail": 1}.get(status))


# one identity per status, every one with parameters n and d
_STATUS_IDS = {"pass": "DILCHER_A2", "fail": "DILCHER_CLASSIC", "skip": "MEAN_EX1",
               "not_converged": "ODD_BINOM"}
_STATUS_LINES = {
    "pass": "PASS           DILCHER_A2 {'n': 3, 'd': 1} |diff|=0",
    "fail": "FAIL           DILCHER_CLASSIC {'n': 3, 'd': 1} |diff|=1",
    "skip": "SKIP           MEAN_EX1 {'n': 3, 'd': 1} (a domain)",
    "not_converged": "NOT_CONVERGED  ODD_BINOM {'n': 3, 'd': 1} (a ladder)",
}


@pytest.mark.parametrize("statuses, code", [
    (("pass", "fail", "skip", "not_converged"), cli.EXIT_FAIL),
    (("pass", "fail"), cli.EXIT_FAIL),
    (("pass", "skip", "not_converged"), cli.EXIT_NOT_CONVERGED),
    (("pass", "skip"), cli.EXIT_OK),
], ids=["all", "fail", "not_converged", "pass-skip"])
def test_statuses_map_to_one_output_and_exit_code(monkeypatch, capsys, statuses, code):
    # verify and fuzz print a report and choose their exit code by its status
    # alone: a fail gives 1 over a not_converged's 3 over 0
    reports = [_status_report(_STATUS_IDS[status], status) for status in statuses]
    monkeypatch.setattr(catalog, "verify", lambda ident, *args, **kw: next(
        r for r in reports if r.id == ident))
    monkeypatch.setattr(catalog, "fuzz", lambda *args, **kw: reports)
    lines = [_STATUS_LINES[status] for status in statuses]
    count = {status: statuses.count(status) for status in _STATUS_IDS}
    summary = (f"summary: {count['pass']} pass, {count['fail']} fail, {count['skip']} "
               f"skipped, {count['not_converged']} not converged ({len(statuses)} total)")
    verify = ["verify", *(r.id for r in reports), "--param", "n=3", "--param", "d=1"]

    assert main(verify + ["--verbose"]) == code
    assert capsys.readouterr().out.splitlines() == lines + [summary]
    assert main(verify) == code
    assert capsys.readouterr().out.splitlines() == lines[1:] + [summary]
    assert main(["fuzz", "DILCHER_CLASSIC", "--trials", str(len(reports))]) == code
    assert capsys.readouterr().out.splitlines() == \
        lines[1:] + [f"fuzz DILCHER_CLASSIC: 1/{len(statuses)} pass"]
    for argv in (verify, ["fuzz", "DILCHER_CLASSIC"]):
        assert main(argv + ["--json"]) == code
        payload = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["status"], r["pass"]) for r in payload] == \
            [(status, {"pass": True, "skip": None}.get(status, False))
             for status in statuses]
