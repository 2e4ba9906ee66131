"""Whole-grid evaluation against the scalar functions, for exact equality.

Every grid column must carry the same bits as the scalar function at
each detuning, and ``run_sweep`` must give the rows, errors and
cross-validation report of the point-by-point loop in
``helpers.scalar_sweep``.  Nothing here is compared with a tolerance.
Where an output value is not finite the loop writes it or lets
``cmath`` raise, and ``run_sweep`` raises a ``NumericError`` at that
point instead; that rule is tested on its own.
"""

import io
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import FIG4_DELTAS, FIG4_VARIANTS, random_params, rows, scalar_sweep
from morsim import (
    DeltaGrid,
    MorsimError,
    NumericError,
    SingularSystemError,
    SusceptibilityPair,
    SweepConfig,
    SystemParams,
    Variant,
    emit,
    parse_config,
    probe_response_perturbative,
    rotation_angle,
    run_sweep,
    s_pair,
    transmission_x,
    transmission_y,
    write_sweep,
)
from morsim import lindblad, sweep
from morsim.analytic import s_pair_grid
from morsim.complexgrid import ComplexGrid
from morsim.core import ParamColumns
from morsim.lindblad import probe_response_perturbative_grid
from morsim.observables import observables_grid

# (name, random_params keywords, lower decay rate: None keeps the drawn
# one, "random" draws a common one).  A unit gamma makes many products
# exact, which hides rounding differences, so other rates are drawn too.
REGIMES = [
    ("drawn_gamma", {}, None),
    ("random_gamma", {}, "random"),
    ("strong_control", {"g_max": 1e8, "detuning_max": 1e3}, "random"),
    ("narrow_lines", {"detuning_max": 10.0}, 1e-9),
]


def _draws(seed: int, equal_gammas: bool, regime: tuple, count: int = 12):
    _, kwargs, gamma = regime
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = random_params(rng, equal_gammas=equal_gammas, **kwargs)
        if gamma is not None:
            g = rng.uniform(0.2, 3.0) if gamma == "random" else gamma
            p = replace(p, gamma1=g, gamma2=g if equal_gammas else p.gamma2)
        width = kwargs.get("detuning_max", 100.0)
        deltas = np.concatenate([np.linspace(-width, width, 21),
                                 rng.uniform(-width, width, 20)])
        yield p, deltas


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_same_pairs(grid_pair, scalar_pairs):
    s_plus, s_minus, failure = grid_pair
    assert failure is None
    for column, expected in (
        (s_plus.re, [q.s_plus.real for q in scalar_pairs]),
        (s_plus.im, [q.s_plus.imag for q in scalar_pairs]),
        (s_minus.re, [q.s_minus.real for q in scalar_pairs]),
        (s_minus.im, [q.s_minus.imag for q in scalar_pairs]),
    ):
        assert np.array_equal(_bits(column), _bits(expected))


@pytest.mark.parametrize("regime", REGIMES, ids=[r[0] for r in REGIMES])
def test_closed_form_grid_equals_scalar(regime):
    for equal_gammas in (True, False):
        for p, deltas in _draws(101, equal_gammas, regime):
            scalar = [s_pair(replace(p, delta=float(d))) for d in deltas]
            _assert_same_pairs(s_pair_grid(rows(p, deltas)), scalar)


@pytest.mark.parametrize("equal_gammas", [True, False], ids=["equal", "unequal"])
@pytest.mark.parametrize("regime", REGIMES, ids=[r[0] for r in REGIMES])
def test_first_order_grid_equals_scalar(regime, equal_gammas):
    for p, deltas in _draws(202, equal_gammas, regime):
        scalar = [probe_response_perturbative(replace(p, delta=float(d))) for d in deltas]
        _assert_same_pairs(probe_response_perturbative_grid(rows(p, deltas)), scalar)


def test_first_order_grid_equals_scalar_in_the_fig4_regime():
    for p in FIG4_VARIANTS:
        scalar = [probe_response_perturbative(replace(p, delta=float(d))) for d in FIG4_DELTAS]
        _assert_same_pairs(probe_response_perturbative_grid(rows(p, FIG4_DELTAS)), scalar)


@pytest.mark.parametrize("equal_gammas", [True, False], ids=["equal", "unequal"])
@pytest.mark.parametrize("regime", REGIMES, ids=[r[0] for r in REGIMES])
def test_observables_grid_equal_scalar(regime, equal_gammas):
    for p, deltas in _draws(303, equal_gammas, regime):
        scalar = [probe_response_perturbative(replace(p, delta=float(d))) for d in deltas]
        s_plus, s_minus, _ = probe_response_perturbative_grid(rows(p, deltas))
        t_y, t_x, theta = observables_grid(s_plus, s_minus, p.alpha_l)
        assert np.array_equal(_bits(t_y), _bits([transmission_y(q, p.alpha_l) for q in scalar]))
        assert np.array_equal(_bits(t_x), _bits([transmission_x(q, p.alpha_l) for q in scalar]))
        assert np.array_equal(_bits(theta), _bits([rotation_angle(q, p.alpha_l) for q in scalar]))


@pytest.mark.parametrize("engine", ["analytic", "numeric", "both"])
def test_sweep_rows_equal_scalar_loop(engine):
    rng = np.random.default_rng(404)
    variants = []
    for i in range(6):
        p = random_params(rng, equal_gammas=False)
        variants.append(Variant(f"v{i}", {name: getattr(p, name) for name in (
            "gamma1", "gamma2", "Gamma1", "Gamma2", "Omega", "Delta", "G1", "G2")}))
    cfg = SweepConfig(delta_grid=DeltaGrid(-120.0, 120.0, 97), variants=tuple(variants),
                      engine=engine)
    # JSON prints every bit and tells -0.0 from 0.0, which == on rows does not.
    assert emit(run_sweep(cfg), "json") == emit(scalar_sweep(cfg), "json")


def _outcome(run, cfg):
    try:
        return "rows", emit(run(cfg), "json")
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _assert_same_error(cfg):
    grid = _outcome(run_sweep, cfg)
    assert grid[0] != "rows", "expected the sweep to fail"
    assert grid == _outcome(scalar_sweep, cfg)


@pytest.mark.parametrize("p", [SystemParams(G1=1e200)], ids=["overflowing_control"])
def test_closed_form_grid_fails_a_whole_parameter_set_at_its_first_row(p):
    with pytest.raises(MorsimError) as info:
        s_pair(replace(p, delta=-1.0))
    *_, failure = s_pair_grid(rows(p, [-1.0, 0.0, 1.0]))
    assert failure[0] == 0
    assert type(failure[1]) is type(info.value) and str(failure[1]) == str(info.value)


def test_unequal_gammas_sweep_matches_scalar_loop():
    p = SystemParams(gamma2=2.0)
    deltas = [-1.0, 0.0, 1.0]
    _assert_same_pairs(s_pair_grid(rows(p, deltas)), [s_pair(replace(p, delta=d)) for d in deltas])
    for engine in ("analytic", "both"):
        cfg = SweepConfig(base=p, delta_grid=DeltaGrid(-1.0, 1.0, 3),
                          variants=(Variant("fine", {"gamma2": 1.0}), Variant("odd")),
                          engine=engine)
        assert emit(run_sweep(cfg), "json") == emit(scalar_sweep(cfg), "json")


def test_degenerate_denominator_error_matches_scalar_loop():
    cfg = parse_config(
        "gamma1 = 1e-7\ngamma2 = 1e-7\nGamma1 = 5e-10\nGamma2 = 5e-10\n"
        "delta_min = -1e-9\ndelta_max = 1e-9\ndelta_points = 2\n"
        "engine = analytic\n"
    )
    _assert_same_error(cfg)


@pytest.mark.parametrize("g1", [1e200, 1.3e154])
def test_closed_form_overflow_error_matches_scalar_loop(g1):
    cfg = SweepConfig(
        base=SystemParams(G2=g1 / 3, Omega=2.0),
        delta_grid=DeltaGrid(-5.0, 5.0, 5),
        variants=(Variant("fine", {"G1": 1.0, "G2": 0.0}), Variant("huge", {"G1": g1})),
        engine="both",
    )
    _assert_same_error(cfg)


def test_nonfinite_grid_point_error_matches_scalar_loop():
    # The span of this grid overflows; both paths reject it in validate_config.
    cfg = SweepConfig(delta_grid=DeltaGrid(-1e308, 1e308, 3), engine="numeric")
    with np.errstate(all="ignore"):
        _assert_same_error(cfg)


def test_forced_cross_validation_failure_matches_scalar_loop(monkeypatch):
    monkeypatch.setattr(sweep, "CROSS_VALIDATION_TOL", 0.0)
    cfg = SweepConfig(
        base=SystemParams(Omega=5.0, Delta=5.0, G2=10.0),
        delta_grid=DeltaGrid(-80.0, 80.0, 161),
        variants=(Variant("G1=0", {"G1": 0.0}), Variant("G1=20", {"G1": 20.0}),
                  Variant("G1=50", {"G1": 50.0})),
        engine="both",
    )
    _assert_same_error(cfg)


@pytest.mark.parametrize("tol", [0.0, 1e-17, 3e-17, 1e-16])
def test_residual_bound_matches_scalar_loop(monkeypatch, tol):
    # Tight bounds that some points of the grid pass and others fail:
    # the stacked solve must fail at the same first point as the loop.
    monkeypatch.setattr(lindblad, "RESIDUAL_TOL", tol)
    cfg = SweepConfig(
        base=SystemParams(gamma2=0.6, Omega=3.0, Delta=-4.0, G2=7.0 - 2.0j),
        delta_grid=DeltaGrid(-60.0, 60.0, 121),
        variants=(Variant("a", {"G1": 15.0 + 4.0j}), Variant("b", {"G1": 40.0})),
        engine="numeric",
    )
    grid, scalar = _outcome(run_sweep, cfg), _outcome(scalar_sweep, cfg)
    assert grid == scalar
    if tol == 0.0:
        assert grid[0] is SingularSystemError


@pytest.mark.parametrize("g, failure", [
    # The stacked solve is singular at delta = 0 only: the grid finds that matrix.
    (1e153, "delta=0.0: first-order coherence system singular"),
    # The residual bound overflows, so the first point already fails.
    (1e154, "delta=-5.0: first-order solve residual bound overflows"),
])
def test_singular_stack_error_matches_scalar_loop(g, failure):
    cfg = SweepConfig(
        base=SystemParams(gamma1=5e-324, gamma2=5e-324, Gamma1=0.0, Gamma2=1e-300,
                          Omega=5.0, G1=g, G2=g),
        delta_grid=DeltaGrid(-5.0, 5.0, 3),
        engine="numeric",
    )
    _assert_same_error(cfg)
    assert _outcome(run_sweep, cfg)[1].startswith(f"variant 'base', {failure}")


# Rates at the bottom of the float range: the first-order system of the
# first is singular at delta = 0 only, and the residual bound of the second
# overflows (see test_singular_stack_error_matches_scalar_loop).
_TINY_RATES = {"gamma1": 5e-324, "gamma2": 5e-324, "Gamma1": 0.0, "Gamma2": 1e-300,
               "Omega": 5.0}
_SINGULAR_AT_ZERO = SystemParams(**_TINY_RATES, G1=1e153, G2=1e153)
_OVERFLOWING_BOUND = SystemParams(**_TINY_RATES, G1=1e154, G2=1e154)


@pytest.mark.parametrize("points, expected", [
    ([(SystemParams(), 0.0), (_SINGULAR_AT_ZERO, 0.0), (_OVERFLOWING_BOUND, -5.0),
      (SystemParams(), 1.0)], "first-order coherence system singular"),
    ([(SystemParams(), 0.0), (_OVERFLOWING_BOUND, -5.0), (_SINGULAR_AT_ZERO, 0.0),
      (SystemParams(), 1.0)], "first-order solve residual bound overflows"),
], ids=["singular_first", "residual_first"])
def test_first_order_grid_failure_order_is_the_scalar_loops(points, expected):
    # Each stack holds a singular matrix, so it is re-solved matrix by matrix.
    columns = ParamColumns([replace(p, delta=delta) for p, delta in points])
    scalar = None
    for i in range(len(points)):
        try:
            probe_response_perturbative(columns.at(i))
        except MorsimError as exc:
            scalar = (i, type(exc), str(exc))
            break
    *_, (i, error) = probe_response_perturbative_grid(columns)
    assert (i, type(error), str(error)) == scalar
    assert i == 1 and str(error).startswith(expected)


_S_COLUMNS = ("re_s_plus", "im_s_plus", "re_s_minus", "im_s_minus")


def _fake_engine(label, check=None, nonfinite=None, column="re_s_plus"):
    """A grid engine whose check fails at index ``check`` and whose
    ``column`` of s+ and s- is nan at index ``nonfinite``."""
    def evaluate(columns):
        parts = {name: np.zeros(len(columns.delta)) for name in _S_COLUMNS}
        if nonfinite is not None:
            parts[column][nonfinite] = np.nan
        failure = None if check is None else (check, SingularSystemError(f"{label} check"))
        re_plus, im_plus, re_minus, im_minus = parts.values()
        return ComplexGrid(re_plus, im_plus), ComplexGrid(re_minus, im_minus), failure
    return evaluate


@pytest.mark.parametrize("analytic, numeric, expected", [
    ({"check": 2}, {"nonfinite": 1}, "delta=1.0: nonfinite numeric value re_s_plus=nan"),
    ({"nonfinite": 1}, {"check": 1}, "delta=1.0: nonfinite analytic value re_s_plus=nan"),
    ({"check": 1}, {"check": 1}, "delta=1.0: analytic check"),
    ({"nonfinite": 2}, {"check": 1}, "delta=1.0: numeric check"),
    # Values from a failing check on are not defined and not looked at.
    ({"check": 2, "nonfinite": 3}, {}, "delta=2.0: analytic check"),
    ({"check": 3, "nonfinite": 2}, {}, "delta=2.0: nonfinite analytic value re_s_plus=nan"),
])
def test_first_failure_in_row_order_is_raised(monkeypatch, analytic, numeric, expected):
    monkeypatch.setattr(sweep, "s_pair_grid", _fake_engine("analytic", **analytic))
    monkeypatch.setattr(sweep, "probe_response_perturbative_grid",
                        _fake_engine("numeric", **numeric))
    cfg = SweepConfig(delta_grid=DeltaGrid(0.0, 4.0, 5), engine="both")
    with pytest.raises(NumericError) as info:
        run_sweep(cfg)
    kind = SingularSystemError if expected.endswith("check") else NumericError
    assert type(info.value) is kind
    assert str(info.value) == f"variant 'base', {expected}"


@pytest.mark.parametrize("column", _S_COLUMNS)
@pytest.mark.parametrize("label", ["analytic", "numeric"])
def test_nonfinite_value_fails_before_any_byte_is_written(monkeypatch, tmp_path, label, column):
    # Rows are checked where they are made, so the writer never sees the
    # nan.  Its observables, later in the row, are nan too: the first
    # column in row order is the one named.
    for name, attribute in (("analytic", "s_pair_grid"),
                            ("numeric", "probe_response_perturbative_grid")):
        bad = {"nonfinite": 7, "column": column} if name == label else {}
        monkeypatch.setattr(sweep, attribute, _fake_engine(name, **bad))
    message = f"variant 'b', delta=2.0: nonfinite {label} value {column}=nan"
    for out_format in ("csv", "json"):
        cfg = SweepConfig(delta_grid=DeltaGrid(0.0, 4.0, 5), variants=(Variant("a"), Variant("b")),
                          engine="both", out_format=out_format)
        buffer = io.BytesIO()
        target = tmp_path / f"out.{out_format}"
        for run in (run_sweep, lambda c: write_sweep(c, buffer), lambda c: write_sweep(c, target)):
            with pytest.raises(NumericError) as info:
                run(cfg)
            assert type(info.value) is NumericError
            assert str(info.value) == message
        assert buffer.getvalue() == b""
    assert os.listdir(tmp_path) == []


# Valid parameter sets with magnitudes near 1e308 or |G| above 1e154, where
# intermediate products overflow, and sets of large scale that evaluate.
_EXTREME = [
    SystemParams(Omega=1e308, delta=-1e308),
    SystemParams(Omega=-1e308, Delta=1e308, delta=1e308),
    SystemParams(gamma1=1e308, gamma2=1e308, Gamma1=1e308, Gamma2=1e308),
    SystemParams(G1=2e154, G2=3e154j),
    SystemParams(Delta=-1e308, delta=1e308, G1=1e160j),
    SystemParams(delta=1e300, G2=1e300),
    SystemParams(gamma1=1e-300, gamma2=1e-300, delta=1e-300, alpha_l=1e308),
    SystemParams(G1=1e150, G2=1e150),
    SystemParams(G1=1e100, delta=1e100, alpha_l=1e308),
    SystemParams(delta=-1e150, Omega=1e150, G2=1e75j, alpha_l=1e308),
]


@pytest.mark.parametrize("p", _EXTREME)
def test_grid_engines_called_directly_do_not_warn(p):
    # Outside run_sweep's np.errstate: the engines own their floating-point state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scalar, grid in ((s_pair, s_pair_grid),
                             (probe_response_perturbative, probe_response_perturbative_grid)):
            s_plus, s_minus, failure = grid(ParamColumns([p]))
            try:
                expected = scalar(p)
            except MorsimError as exc:
                assert failure[0] == 0
                assert type(failure[1]) is type(exc) and str(failure[1]) == str(exc)
                continue
            _assert_same_pairs((s_plus, s_minus, failure), [expected])
            observed = observables_grid(s_plus, s_minus, p.alpha_l)
            for func, value in zip((transmission_y, transmission_x, rotation_angle), observed):
                assert _bits(value) == _bits([func(expected, p.alpha_l)])


@pytest.mark.parametrize("pair, alpha_l", [
    (SusceptibilityPair(1e308 - 1e308j, 1e308 + 1e308j), 1.0),
    (SusceptibilityPair(-1e300j, 1e300j), 1.0),
    (SusceptibilityPair(1e308 + 1e308j, -1e308 - 1e308j), 1e308),
    (SusceptibilityPair(1e308 + 0j, -1e308 + 0j), 1e308),
    (SusceptibilityPair(0.5 + 0.25j, -0.5 + 1e-300j), 1e308),
    (SusceptibilityPair(1e-308j, 1e-308j), 1e308),
])
def test_observables_grid_called_directly_does_not_warn(pair, alpha_l):
    s_plus, s_minus = (ComplexGrid.from_numpy(np.array([s])) for s in (pair.s_plus, pair.s_minus))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        observed = observables_grid(s_plus, s_minus, alpha_l)
    for func, value in zip((transmission_y, transmission_x, rotation_angle), observed):
        try:
            expected = func(pair, alpha_l)
        except NumericError:
            # Where a scalar raises, the grid holds inf.
            assert value[0] == np.inf
            continue
        assert _bits(value) == _bits([expected])
