"""The verdict contract: every identity instance ends in one of the four
statuses, or in a DomainError for input outside its domain, and the CLI
maps each ending to one exit code without a traceback."""

import contextlib
import io
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polystar import catalog
from polystar.cli import _parse_params, main
from polystar.compositions import Composition, ShapeBlocks
from polystar.kernel import DomainError, EvalResult

STATUS_EXIT = {"pass": 0, "skip": 0, "fail": 1, "not_converged": 3}
EDGE_FLOATS = (0.0, 1.0, -1.0, 1e-30, -1e-30, 1.1e-12, 1e-9, 0.5, 0.75, 1.5, 2.0,
               1e300, -1e300)
# exact values on both sides of 1 that round to it, and one past float64's
# range, beside tiny and huge ones
RATIONALS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(1, 10 ** 30), F(11, 10 ** 13),
             F(10 ** 30), F(-10 ** 30), 1 + F(1, 10 ** 20), 1 - F(1, 10 ** 20), F(10 ** 400))
# small ints, compositions and shapes: an n or weight in the thousands is
# in-domain and costs its exact or Q-coupled work, which no bound refuses
VALUES = {
    "int": st.sampled_from((-1, 0, 1, 2, 3, 7)),
    "rational": st.sampled_from(RATIONALS),
    "composition": st.sampled_from([Composition(p) for p in
                                    ((1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2))]),
    "shape": st.sampled_from([ShapeBlocks.parse(t) for t in
                              ("A:m=0;u=", "A:m=1;u=", "A:m=0,0;u=0", "B:m=0;u=1",
                               "B:m=0,1;u=2,1")]),
    "intlist": st.sampled_from(((), (0,), (1, 0), (-1,), (2, 1))),
}


def _value(mode, kind):
    # the numeric ids' grids and samplers give floats, each the rational it
    # denotes: those draw arbitrary floats too
    if mode == "NUMERIC" and kind == "rational":
        return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), VALUES[kind])
    return VALUES[kind]


def _text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, float) and math.isfinite(value):
        return str(F(value))  # the exact rational the float denotes
    return repr(value) if isinstance(value, float) else str(value)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("ident", [entry.id for entry in catalog.list_identities()])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_instance_ends_in_a_status_or_a_domain_error(ident, data):
    entry = catalog.get_entry(ident)
    params = {key: data.draw(_value(entry.mode, kind), label=key)
              for key, kind in entry.param_types.items()}
    try:
        want = STATUS_EXIT[catalog.verify(ident, params).status]
    except DomainError:
        want = 2
    argv = ["verify", ident] + [arg for key, value in params.items()
                                for arg in ("--param", f"{key}={_text(value)}")]
    code, _, err = _cli(argv)
    assert "Traceback" not in err
    # the CLI parses each value as the catalog caller passed it, except a
    # float that is no rational (nan, inf): a usage error
    assert code == want or (code == 2 and "bad parameter" in err)


# a series point whose first rhs argument 1 - p lies within about
# ln(1/tol) / POLY_MAX_N of 1, or rounds to 1: its ladder cannot reach the
# tolerance, and no point may end in a fail or a usage error
P_SCAN = ("1e-30", "1e-17", "1e-13", "1.01e-12", "1.1e-12", "2e-12", "1e-9")
P_POINTS = (("INTRO_SERIES", ["s=2", "a=1"]), ("INTRO_SERIES", ["s=3", "a=1/2"]),
            ("LI1_A1", ["shape=A:m=0;u="]))


@pytest.mark.parametrize("p", P_SCAN)
@pytest.mark.parametrize("ident, fixed", P_POINTS, ids=("s=2,a=1", "s=3,a=1/2", "LI1_A1"))
def test_small_p_ends_not_converged(ident, fixed, p):
    pairs = fixed + [f"p={p}"]
    params = _parse_params(catalog.get_entry(ident), pairs)
    report = catalog.verify(ident, params)
    assert report.status == "not_converged"
    assert report.reason.startswith("NonConvergenceError: ")
    code, out, _ = _cli(["verify", ident] + [a for pair in pairs for a in ("--param", pair)])
    assert code == 3 and out.startswith(f"NOT_CONVERGED  {ident} ")


def test_an_aux_rhs_float64_cannot_hold_to_half_the_tolerance_is_refused():
    # the rhs, 14282750.761270434, is held to half an ulp (9.3e-10), over
    # tol/2 = 5e-11: no quadrature can decide the comparison, so none runs
    params = {"n": 12, "a": F(-3, 2), "x": F(-5, 2)}
    report = catalog.verify("AUX1", params)
    assert report.status == "not_converged"
    assert report.reason == ("NonConvergenceError: float64 holds the rhs "
                             "14282750.761270434 only to 9.31e-10, over tol/2")
    code, out, _ = _cli(["verify", "AUX1", "--param", "n=12", "--param", "a=-3/2",
                         "--param", "x=-5/2"])
    assert code == 3 and out.startswith("NOT_CONVERGED  AUX1 ")


def test_a_side_whose_estimate_exceeds_half_the_tolerance_cannot_decide(monkeypatch):
    # sides 2 ulp apart (3.7e-9), each rounded to within half an ulp
    # (9.3e-10), over tol/2 = 5e-11: not a fail
    lhs = EvalResult.rounded(14282750.76127043)
    rhs = EvalResult.rounded(14282750.761270434)
    entry = catalog.get_entry("AUX1")
    monkeypatch.setattr(entry, "evaluate", lambda params, tol: (lhs, rhs))
    report = catalog.verify("AUX1", {"n": 12, "a": F(-3, 2), "x": F(-5, 2)})
    assert report.status == "not_converged"
    assert report.abs_diff > report.tolerance
    assert report.reason == ("lhs cannot decide at tolerance 1e-10: its error estimate "
                             "9.31e-10 exceeds tol/2; rhs cannot decide at tolerance "
                             "1e-10: its error estimate 9.31e-10 exceeds tol/2")


def test_aux_edges_end_without_a_fail_or_a_traceback():
    # every rational is in the AUX domain: tiny, huge, past float64's range,
    # or an interval that rounds to a point, each ends pass or not_converged
    start = time.perf_counter()
    statuses = {catalog.verify(ident, {"n": n, "a": a, "x": x}).status
                for ident in ("AUX1", "AUX2") for n in (1, 2, 3, 7)
                for a in RATIONALS for x in RATIONALS}
    assert statuses == {"pass", "not_converged"}
    assert time.perf_counter() - start < 5


# each argv, with the exit code and the start of its last output line (on
# stdout, else on stderr)
PROBES = (
    # the exact zero at a = 1 - 1/p
    (["verify", "INTRO_RED_R", "--param", "s=2", "--param", "a=-1/3", "--param", "p=3/4"],
     0, "summary: 1 pass"),
    (["eval", "li", "--s", "2", "--x", "1.00000000000000000001"], 2, "error: |x| <= 1"),
    (["eval", "listar", "--s", "2", "--x", "1.00000000000000000001"], 2, "error: |x| <= 1"),
    (["eval", "li", "--s", "1", "--x", "0.99999999999999999999"], 3,
     "not converged: float64 rounding collapses Li_1(x): x and its pole 1 differ by 1e-20"),
    (["verify", "MEAN_INF_A", "--param", "s=1", "--param", "a=0.99999999999999999999"],
     3, "summary: 0 pass, 0 fail, 0 skipped, 1 not converged"),
    (["verify", "AUX1", "--param", "n=2", "--param", "a=1e-30", "--param", "x=1e30"],
     0, "summary: 1 pass"),
    (["verify", "AUX2", "--param", "n=1", "--param", "a=1e-30", "--param", "x=1e30"],
     3, "summary: 0 pass, 0 fail, 0 skipped, 1 not converged"),
    (["verify", "AUX2", "--param", "n=2", "--param", "a=1e-30", "--param", "x=1e300"],
     3, "summary: 0 pass, 0 fail, 0 skipped, 1 not converged"),
    (["verify", "AUX1", "--param", "n=1", "--param", "a=1", "--param", "x=1e400"],
     3, "summary: 0 pass, 0 fail, 0 skipped, 1 not converged"),
    (["eval", "listar", "--s", "2,1", "--x", "1e400,1"], 2,
     "error: argument x_1 of about 1e400 is beyond float64's range"),
)


@pytest.mark.parametrize("argv, code, last", PROBES, ids=[" ".join(p[0]) for p in PROBES])
def test_probe_ends_in_its_exit_code(argv, code, last):
    got, out, err = _cli(argv)
    lines = (out or err).splitlines()
    assert (got, len(err.splitlines()) <= 1) == (code, True)
    assert lines[-1].startswith(last)
