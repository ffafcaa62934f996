import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polystar import catalog, chains, kernel, polylog
from polystar.chains import PairingUnavailableError
from polystar.compositions import Composition, ShapeBlocks
from polystar.kernel import (BudgetExceededError, DomainError, NonConvergenceError,
                             SingularFitError)

F = Fraction

EXPECTED_IDS = {
    "MNEIMNEH_ORIG", "GENCEV_D1", "MAIN_TRANSFORM", "EX_FIRST", "MN1",
    "DILCHER_PLUS", "DILCHER_A2", "ODD_BINOM", "DILCHER_CLASSIC",
    "P_DEGENERATE", "AUX1", "AUX2", "PAN_XU", "INTRO_SERIES", "INTRO_RED_L",
    "INTRO_RED_R", "LI1_MAIN", "LI1_A1", "LI1_EX", "LI1_RED1", "LI1_RED2",
    "LI2_MAIN", "LI2_A1", "LI2_EX", "LI2_RED1", "LI2_RED2", "MEAN_FINITE",
    "MEAN_EX1", "MEAN_SUM_HK", "MEAN_INF_A", "MEAN_INF_1", "MEAN_EX2",
    "BINOM_RATIO",
}


def test_catalog_complete_and_unique():
    descriptors = catalog.list_identities()
    ids = [d.id for d in descriptors]
    assert len(ids) == 33
    assert len(set(ids)) == 33
    assert set(ids) == EXPECTED_IDS


def test_list_identities_returns_the_registry_records():
    for record in catalog.list_identities():
        assert catalog.get_entry(record.id) is record
        assert callable(record.evaluate) and callable(record.sample)


def test_catalog_modes():
    by_id = {d.id: d for d in catalog.list_identities()}
    assert by_id["MAIN_TRANSFORM"].mode == "EXACT"
    assert by_id["AUX1"].mode == "QUADRATURE"
    assert by_id["LI1_EX"].mode == "NUMERIC"
    assert by_id["LI1_EX"].constraint_id == "A1_P"
    assert by_id["LI1_RED1"].constraint_id == "RED_BOX"


def test_verify_main_transform_example():
    r = catalog.verify("MAIN_TRANSFORM", dict(n=3, s=Composition((2,)), a=F(1), p=F(1, 2)))
    assert r.status == "pass"
    assert r.lhs == r.rhs == F(73, 72)
    assert r.abs_diff == 0


def test_verify_mean_sum_hk_example():
    r = catalog.verify("MEAN_SUM_HK", dict(n=3))
    assert r.status == "pass"
    assert r.lhs == F(13, 3)


def test_verify_li1_ex_against_closed_form():
    r = catalog.verify("LI1_EX", dict(d=2, p=0.5), 1e-8)
    assert r.status == "pass"
    assert float(r.abs_diff) <= 1e-8


def test_verify_skips_domain_violations():
    r = catalog.verify("MEAN_INF_A", dict(s=Composition((1, 1)), a=0.5))
    assert r.status == "skip"
    assert r.passed is None
    r = catalog.verify("INTRO_SERIES", dict(s=2, a=1.0, p=2.5), 1e-8)
    assert r.status == "skip"


def test_verify_unknown_identity():
    with pytest.raises(DomainError):
        catalog.verify("NOT_AN_ID", {})


@pytest.mark.parametrize("a", (math.nan, math.inf), ids=("nan", "inf"))
def test_verify_refuses_non_finite_parameter_in_domain_check(a):
    # the region test coerces a to a Fraction, which has no NaN or infinity
    with pytest.raises(DomainError):
        catalog.verify("INTRO_SERIES", {"s": 2, "a": a, "p": 0.5})


@pytest.mark.parametrize("ident, key", [(entry.id, key) for entry in catalog.list_identities()
                                        for key in entry.param_types])
def test_verify_refuses_a_missing_parameter(ident, key):
    # no identity defaults a declared parameter, and none reaches its domain
    # check or its sides without one
    params, tol = next(iter(catalog.default_grid(ident)))
    params = {k: v for k, v in params.items() if k != key}
    with pytest.raises(DomainError, match=f"^missing parameter '{key}' for {ident}$"):
        catalog.verify(ident, params, tol)


@pytest.mark.parametrize("ident", ("LI1_EX", "LI2_EX"))
def test_example_ids_gate_on_the_a1_region(ident):
    r = catalog.verify(ident, dict(d=1, p=1.5))
    assert (r.status, r.reason) == ("skip", "outside validity region")
    with pytest.raises(DomainError):
        catalog.verify(ident, dict(d=1, p=math.nan))


def test_report_json_roundtrip():
    r = catalog.verify("MAIN_TRANSFORM", dict(n=2, s=Composition((1, 1)), a=F(1), p=F(1, 3)))
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert payload["id"] == "MAIN_TRANSFORM"
    assert payload["pass"] is True
    assert payload["mode"] == "EXACT"
    assert payload["lhs"] == payload["rhs"]
    assert "anchor" in payload and payload["anchor"]


def test_verify_deterministic():
    kw = dict(params=dict(d=1, p=0.5), tol=1e-8)
    r1 = catalog.verify("LI1_EX", **kw)
    r2 = catalog.verify("LI1_EX", **kw)
    assert r1.to_json_dict()["lhs"] == r2.to_json_dict()["lhs"]
    assert r1.cost["terms_rhs"] == r2.cost["terms_rhs"]


def test_fuzz_deterministic_and_passing():
    a = catalog.fuzz("DILCHER_PLUS", 42, 50)
    b = catalog.fuzz("DILCHER_PLUS", 42, 50)
    assert [r.params for r in a] == [r.params for r in b]
    assert all(r.status == "pass" for r in a)
    c = catalog.fuzz("DILCHER_PLUS", 43, 5)
    assert [r.params for r in c] != [r.params for r in a[:5]]


def test_fuzz_main_transform():
    reports = catalog.fuzz("MAIN_TRANSFORM", 7, 30)
    assert all(r.status == "pass" for r in reports)


def test_fuzz_red1_red_box_samples():
    reports = catalog.fuzz("LI1_RED1", 1, 10, 1e-8)
    assert len(reports) == 10
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_verify_and_fuzz_refuse_a_tolerance_not_finite_and_positive(tol):
    # the numeric instance would not converge at nan and would pass at inf;
    # the exact one and the skipped one read no tolerance, and refuse it too
    for ident, params in (("LI1_EX", dict(d=1, p=0.5)), ("MEAN_SUM_HK", dict(n=3)),
                          ("MEAN_INF_A", dict(s=Composition((1, 1)), a=0.5))):
        with pytest.raises(DomainError, match="tolerance must be finite and > 0"):
            catalog.verify(ident, params, tol)
    for ident in ("LI1_EX", "DILCHER_CLASSIC"):
        with pytest.raises(DomainError, match="tolerance must be finite and > 0"):
            catalog.fuzz(ident, 1, 2, tol)


def test_fuzz_requires_trials():
    with pytest.raises(DomainError):
        catalog.fuzz("MAIN_TRANSFORM", 1, 0)


def test_fuzz_in_domain_never_skips():
    for ident in ("GENCEV_D1", "PAN_XU", "INTRO_SERIES"):
        reports = catalog.fuzz(ident, 3, 8)
        assert all(r.status != "skip" for r in reports)


def test_intro_series_fuzz_reaches_the_grid_side_of_p_1():
    # the grid points have p < 1; in-domain draws must reach them, on
    # both sides of p = 1, and never draw p = 0 or p = 1
    entry = catalog.get_entry("INTRO_SERIES")
    rng = random.Random("INTRO_SERIES:0")
    ps = [params["p"] for params in (entry.sample(rng) for _ in range(400))
          if entry.domain(params)[0]]
    assert any(p < 1 for p in ps) and any(p > 1 for p in ps)
    assert all(0 < p <= 2 and p != 1 for p in ps)


def test_outside_mode_reports_failure_without_abort():
    # divergent series outside the validity region: a failure, not an error
    r = catalog.verify("INTRO_SERIES", dict(s=2, a=-1.0, p=1.5), 1e-8, outside=True)
    assert r.passed is False
    assert r.reason and "rejected" in r.reason


@pytest.mark.parametrize("exc_type", [NonConvergenceError, BudgetExceededError,
                                      SingularFitError])
def test_budget_exceptions_report_not_converged(monkeypatch, exc_type):
    def evaluate(params, tol):
        raise exc_type("out of budget")

    monkeypatch.setattr(catalog.get_entry("AUX1"), "evaluate", evaluate)
    r = catalog.verify("AUX1", dict(n=2, a=F(1), x=F(1, 2)))
    assert r.status == "not_converged"
    assert r.passed is False
    assert r.reason == f"{exc_type.__name__}: out of budget"
    assert "wall_ms" in r.cost
    assert r.to_json_dict()["reason"] == r.reason


def test_exact_sides_that_differ_report_fail(monkeypatch):
    monkeypatch.setattr(catalog.get_entry("MEAN_SUM_HK"), "evaluate",
                        lambda params, tol: (F(1), F(3, 2)))
    r = catalog.verify("MEAN_SUM_HK", dict(n=3))
    assert (r.status, r.passed, r.reason) == ("fail", False, None)
    assert (r.lhs, r.rhs, r.abs_diff) == (F(1), F(3, 2), F(1, 2))
    assert r.rel_diff == 1 / 3


def test_refused_evaluation_raises_unless_outside(monkeypatch):
    def evaluate(params, tol):
        raise PairingUnavailableError("unpaired")

    monkeypatch.setattr(catalog.get_entry("AUX1"), "evaluate", evaluate)
    with pytest.raises(PairingUnavailableError, match="^unpaired$"):
        catalog.verify("AUX1", dict(n=2, a=F(1), x=F(1, 2)))
    r = catalog.verify("AUX1", dict(n=2, a=F(1), x=F(1, 2)), outside=True)
    assert (r.status, r.reason) == ("not_converged", "evaluation rejected: unpaired")


def test_aux_grids_hand_out_fresh_points():
    # a caller that edits a grid point edits only its own copy
    first = next(iter(catalog.default_grid("AUX1")))[0]
    want = {ident: list(catalog.default_grid(ident)) for ident in ("AUX1", "AUX2")}
    first["n"] = 99
    del first["a"]
    for ident in ("AUX1", "AUX2"):
        assert list(catalog.default_grid(ident)) == want[ident]
        assert next(iter(catalog.default_grid(ident)))[0] == dict(n=1, a=F(1, 2), x=F(-1, 2))


def test_zero_division_still_raises(monkeypatch):
    def evaluate(params, tol):
        raise ZeroDivisionError("singular")

    monkeypatch.setattr(catalog.get_entry("AUX1"), "evaluate", evaluate)
    with pytest.raises(ZeroDivisionError):
        catalog.verify("AUX1", dict(n=2, a=F(1), x=F(1, 2)))


def test_geometric_error_estimate_floored():
    # both ladder levels agree in double precision; the estimate must still
    # not claim less than the float64 rounding floor
    r = catalog.verify("INTRO_SERIES", dict(s=2, a=0.5, p=0.5))
    assert r.status == "pass"
    assert float(r.err_rhs) >= 1e-12 * (1 + abs(float(r.rhs)))


def test_skip_reason_in_json():
    r = catalog.verify("MEAN_INF_A", dict(s=Composition((1, 1)), a=0.5))
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert payload["status"] == "skip"
    assert payload["reason"] == "left side diverges"
    passed = catalog.verify("MEAN_SUM_HK", dict(n=3)).to_json_dict()
    assert passed["reason"] is None


def test_unconverged_ladder_reason_names_its_side(monkeypatch):
    # a Q-coupled ladder capped at N = 2,048 ends after 6 levels, short of
    # the 7 samples a fit needs
    monkeypatch.setattr(catalog.polylog, "Q_MAX_N", 2048)
    r = catalog.verify("MEAN_INF_1", dict(s=Composition((3, 3, 3))))
    assert r.status == "not_converged"
    assert r.reason == ("rhs did not converge: ladder ended at truncation_level "
                             f"2048 with error estimate {r.err_rhs:.3g}")
    assert json.loads(json.dumps(r.to_json_dict()))["reason"] == r.reason


def test_q_state_budget_reaches_the_seventh_level_up_to_weight_11(monkeypatch):
    # weight 9 reaches N = 4,096 and passes; weight 12 would need more than
    # Q_STATE_BUDGET at N = 4,096, so its one sweep refuses before it seeds
    # a cell
    r = catalog.verify("MEAN_INF_1", dict(s=Composition((3, 3, 3))))
    assert r.status == "pass" and r.reason is None
    seeds = []
    monkeypatch.setattr(chains, "_q_seed", lambda *args: seeds.append(args))
    r = catalog.verify("MEAN_INF_1", dict(s=Composition((3, 3, 3, 3))))
    assert r.status == "not_converged" and seeds == []
    assert r.reason == ("BudgetExceededError: Q-coupled DP needs ~201326592 cell "
                        "updates, over budget 200000000")


@pytest.mark.parametrize("s, a", (((2,), 1.0), ((2,), 0.5), ((2,), -1.0), ((2, 1), 1.0)),
                         ids=("1.0", "0.5", "-1.0", "s=2,1-1.0"))
def test_mean_inf_a_rhs_error_covers_dilogarithm(s, a):
    # at s = (2,) the mean kernel equals Li_2(a), and at (2,1), a = 1 it
    # equals zeta*(2,1) = 2 zeta(3); its quadrature must resolve the
    # integrand's layers at p = 0 and p = 1 for the rhs error estimate to
    # cover the distance to the closed form (a tolerance below the default,
    # where a mesh graded toward p = 0 alone leaves, at a = -1, a distance
    # twice the estimate)
    r = catalog.verify("MEAN_INF_A", dict(s=Composition(s), a=a), 1e-7)
    assert r.status == "pass"
    with mpmath.mp.workprec(160):
        closed = mpmath.polylog(2, a) if s == (2,) else 2 * mpmath.zeta(3)
        distance = abs(mpmath.mpf(r.rhs) - closed)
    assert distance <= r.err_rhs


def test_aux_sides_run_float64_quadrature(monkeypatch):
    # the AUX integrals run the float64 rule on array integrands, over the
    # grid and a fuzz sample holding empty intervals (a = 0) and intervals
    # with t = 0 inside (AUX2 with a > 1)
    intervals, calls = [], []
    quadrature = catalog.adaptive_quadrature

    def recording_quadrature(f, lo, hi, *args, **kw):
        def integrand(t):
            calls.append(t)
            return f(t)
        intervals.append((lo, hi))
        return quadrature(integrand, lo, hi, *args, **kw)

    monkeypatch.setattr(catalog, "adaptive_quadrature", recording_quadrature)
    reports = []
    for identity in ("AUX1", "AUX2"):
        reports += [catalog.verify(identity, params)
                    for params, _ in catalog.get_entry(identity).grid()]
        reports += catalog.fuzz(identity, 3, 50)
    assert len(reports) == 2 * (54 + 50)
    assert all(r.status == "pass" and r.abs_diff <= 1e-12 for r in reports)
    assert any(lo == hi == 0 for lo, hi in intervals)
    assert any(lo < 0 < hi for lo, hi in intervals)
    assert calls and all(isinstance(t, np.ndarray) and t.ndim == 1
                         and t.dtype == np.float64 for t in calls)


@pytest.mark.parametrize("ident, params", [
    ("INTRO_SERIES", dict(s=2, a=0.5, p=0.5)),
    ("LI1_EX", dict(d=1, p=0.5)),
    ("MEAN_INF_1", dict(s=(2,))),
    ("MEAN_EX2", dict(d=1)),
    ("AUX1", dict(n=3, a=F(1, 2), x=F(1, 2))),
    ("MEAN_INF_A", dict(s=(2,), a=0.5)),
])
def test_numeric_sides_are_honest_floats(ident, params):
    # float64 values whose error estimates cover at least their own rounding,
    # printed to 17 significant digits
    r = catalog.verify(ident, params)
    assert r.status == "pass"
    payload = r.to_json_dict()
    for side, err in (("lhs", "err_lhs"), ("rhs", "err_rhs")):
        value, estimate = getattr(r, side), getattr(r, err)
        assert type(value) is float and type(estimate) is float
        assert estimate >= math.ulp(value) / 2
        assert payload[side] == mpmath.nstr(mpmath.mpf(value), 17)
        assert payload[err] == mpmath.nstr(mpmath.mpf(estimate), 17)


# each INTRO_* identity is one LI1 kind at the one-block family-A shape
INTRO_KINDS = {"INTRO_SERIES": "LI1_MAIN", "INTRO_RED_L": "LI1_RED1",
               "INTRO_RED_R": "LI1_RED2"}


@pytest.mark.parametrize("ident, params", [
    (ident, params) for ident in INTRO_KINDS for params, _ in catalog.default_grid(ident)],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v)
def test_intro_sides_are_the_one_block_li1_sides(ident, params):
    # at a = -1, p = 1/2 the two INTRO_RED_R arguments a and 1 - 1/p are
    # equal, and both sides take the exact-zero difference
    s, a, p = params["s"], params.get("a", 1), params["p"]
    shape = ShapeBlocks("A", (s - 2,), ())
    assert (polylog.li_identity_sides(ident, s, a, p, 1e-8)
            == polylog.li_identity_sides(INTRO_KINDS[ident], shape, a, p, 1e-8))


def test_side_error_estimates_in_json():
    tol = 1e-8
    params = dict(s=2, a=0.5, p=0.5)
    payload = catalog.verify("INTRO_SERIES", params, tol).to_json_dict()
    assert payload["status"] == "pass"
    for side in ("err_lhs", "err_rhs"):
        assert 0 <= float(payload[side]) <= tol
    exact = catalog.verify("MEAN_SUM_HK", dict(n=3)).to_json_dict()
    assert exact["lhs"] == exact["rhs"]
    assert exact["err_lhs"] is None and exact["err_rhs"] is None


def test_grid_tolerance_overrides():
    grids = list(catalog.default_grid("MEAN_INF_1"))
    tols = {str(params["s"]): tol for params, tol in grids}
    assert tols["2"] == 1e-6
    assert tols["2,2"] == 1e-5


# --- the catalog pinned: fields, grids in order, seeded fuzz samples --------

PIN_SEED = 2024
PIN_SAMPLES = 40


def _pin_values(params):
    return [[key, type(value).__name__, repr(value)] for key, value in params.items()]


def _pin_verdict(entry, params):
    if entry.domain is None:
        return None
    ok, reason = entry.domain(params)
    return [bool(ok), None if ok else reason]


def _catalog_fingerprints():
    """Per identity id: its grid size and a digest of its listed fields (a
    tolerance only where the mode has one), its default grid in order with
    value types, grid tolerances and domain verdicts, and its first
    ``PIN_SAMPLES`` fuzz samples for ``PIN_SEED`` (drawn from the ``rng``
    that ``fuzz`` seeds) with their verdicts."""
    out = {}
    for record in catalog.list_identities():
        entry = catalog.get_entry(record.id)
        fields = [record.id, record.anchor, record.mode, list(record.param_types.items()),
                  record.constraint_id,
                  None if record.mode == "EXACT" else record.default_tol]
        grid = [[_pin_values(params), tol, _pin_verdict(entry, params)]
                for params, tol in catalog.default_grid(record.id)]
        rng = random.Random(f"{record.id}:{PIN_SEED}")
        samples = []
        for _ in range(PIN_SAMPLES):
            params = entry.sample(rng)
            samples.append([_pin_values(params), _pin_verdict(entry, params)])
        text = json.dumps([fields, grid, samples])
        out[record.id] = (len(grid), hashlib.sha256(text.encode()).hexdigest()[:16])
    return out


# a change that moves a grid point, a grid tolerance, a sampler draw, a domain
# verdict or a listed field changes the identity's digest
CATALOG_PIN = {
    'AUX1': (54, 'd331085b6c56b98a'),
    'AUX2': (54, 'f091121c2602868a'),
    'BINOM_RATIO': (325, '3ffe5453a7b83d64'),
    'DILCHER_A2': (125, '31e8eac5f9a15bc5'),
    'DILCHER_CLASSIC': (125, '7b5ca59af9e0851d'),
    'DILCHER_PLUS': (875, '9bfc1012be7e3440'),
    'EX_FIRST': (8, '83cabef1fd01a743'),
    'GENCEV_D1': (640, '9b68d46f78c6246a'),
    'INTRO_RED_L': (6, '0ba85b1f3e9a56ee'),
    'INTRO_RED_R': (18, '662a0b87291062eb'),
    'INTRO_SERIES': (9, '49a06c3d63edf541'),
    'LI1_A1': (30, '2c7f76f2e7ad040f'),
    'LI1_EX': (6, '121cf40749c2cfdf'),
    'LI1_MAIN': (150, 'e1ecd8168ead7252'),
    'LI1_RED1': (60, 'f68acd5e38db62f7'),
    'LI1_RED2': (180, 'a2fd1c14ed39b511'),
    'LI2_A1': (30, 'b2d3aed6c1c026e3'),
    'LI2_EX': (6, 'bc2affb11a61ec70'),
    'LI2_MAIN': (300, '2b8a92f5503e3257'),
    'LI2_RED1': (120, 'a249e01c36008fc9'),
    'LI2_RED2': (360, '060a4d09b655d8b7'),
    'MAIN_TRANSFORM': (3750, '1d4e1191ed6178e8'),
    'MEAN_EX1': (48, '1ab418d9e5bccda7'),
    'MEAN_EX2': (2, '7e26ca199d24d186'),
    'MEAN_FINITE': (720, '83656e78b3e66184'),
    'MEAN_INF_1': (3, 'fa669ad4a629ac7a'),
    'MEAN_INF_A': (7, '2df2c94628ea9344'),
    'MEAN_SUM_HK': (50, 'cb891e7d07d61cdf'),
    'MN1': (1120, '7028a3657b431540'),
    'MNEIMNEH_ORIG': (50, '9ef31c80b2e0378e'),
    'ODD_BINOM': (125, 'd628ac6c53b71abb'),
    'PAN_XU': (5120, 'ccc164b45becd1ef'),
    'P_DEGENERATE': (1500, '7bab93fc0057b203'),
}


def test_catalog_fields_grids_and_samples_are_pinned():
    assert _catalog_fingerprints() == CATALOG_PIN


def test_window_matrix_cache_stays_bounded_over_the_series_grids():
    # every ladder runs 64, 128, ... to at most POLY_MAX_N, 12 levels, so
    # its window fits share at most 38 design matrices (test_kernel)
    kernel._design_matrix.cache_clear()
    series = [i for i in sorted(EXPECTED_IDS) if i.startswith(("INTRO_", "LI1_", "LI2_"))]
    assert len(series) == 13
    for ident in series:
        for params, tol in catalog.default_grid(ident):
            assert catalog.verify(ident, params, tol).status == "pass"
    assert 0 < kernel._design_matrix.cache_info().currsize <= 38
