"""The verdict contract: every identity instance ends in one of the four
statuses, or in a DomainError for input outside its domain, and the CLI
maps each ending to one exit code without a traceback."""

import contextlib
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polystar import catalog
from polystar.cli import _parse_params, main
from polystar.compositions import Composition, ShapeBlocks
from polystar.kernel import DomainError

STATUS_EXIT = {"pass": 0, "skip": 0, "fail": 1, "not_converged": 3}
EDGE_FLOATS = (0.0, 1.0, -1.0, 1e-30, -1e-30, 1.1e-12, 1e-9, 0.5, 0.75, 1.5, 2.0,
               1e300, -1e300)
# a QUADRATURE side integrates to an absolute tolerance, so a huge a or x
# runs the quadrature to its panel budget (1-3 s a point): those draw the
# bounded rationals only
BOUNDED_RATIONALS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(1, 10 ** 30), F(11, 10 ** 13))
HUGE_RATIONALS = (F(10 ** 30), F(-10 ** 30))
# small ints, compositions and shapes: an n or weight in the thousands is
# in-domain and costs its exact or Q-coupled work, which no bound refuses
VALUES = {
    "int": st.sampled_from((-1, 0, 1, 2, 3, 7)),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "composition": st.sampled_from([Composition(p) for p in
                                    ((1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2))]),
    "shape": st.sampled_from([ShapeBlocks.parse(t) for t in
                              ("A:m=0;u=", "A:m=1;u=", "A:m=0,0;u=0", "B:m=0;u=1",
                               "B:m=0,1;u=2,1")]),
    "intlist": st.sampled_from(((), (0,), (1, 0), (-1,), (2, 1))),
}


def _value(mode, kind):
    if kind != "rational":
        return VALUES[kind]
    pool = BOUNDED_RATIONALS + (HUGE_RATIONALS if mode != "QUADRATURE" else ())
    return st.sampled_from(pool)


def _text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
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
    # float it cannot read back (nan, inf): a usage error
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


def test_a_side_whose_estimate_exceeds_half_the_tolerance_cannot_decide():
    # the two sides are 2 ulp apart (3.7e-9) and each is rounded to within
    # half an ulp (9.3e-10), over tol/2 = 5e-11: not a fail
    params = {"n": 12, "a": F(-3, 2), "x": F(-5, 2)}
    report = catalog.verify("AUX1", params)
    assert report.status == "not_converged"
    assert report.abs_diff > report.tolerance
    assert report.reason == ("lhs cannot decide at tolerance 1e-10: its error estimate "
                             "9.31e-10 exceeds tol/2; rhs cannot decide at tolerance "
                             "1e-10: its error estimate 9.31e-10 exceeds tol/2")
    code, out, _ = _cli(["verify", "AUX1", "--param", "n=12", "--param", "a=-3/2",
                         "--param", "x=-5/2"])
    assert code == 3 and out.startswith("NOT_CONVERGED  AUX1 ")
